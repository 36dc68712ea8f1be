"""Benchmark of rigidity-cert certificate time, end to end and per layer.

    python3 perfbench/run.py --workload strain-diff-16 --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 44 --trace 0

Run it from the repository root; it imports the package from `src/`.
Every timed run is one fresh `child.py` process with one BLAS/OpenMP
thread, pinned in the child's environment before its interpreter starts.
Children run in rounds: one child per core (two at most), started
together, and the next round starts when the whole round has ended (a
closed loop with one client per core).  The load never exceeds `nproc`
busy processes plus this idle parent.

`--trace 0` measures the end-to-end metrics for `--seconds`: after an
untimed warm-up process it makes one round of set-up-only probes,
then rounds of whole runs while the next one fits in the time left.  `--trace 1` makes one untraced and one traced run of the same
scenario, side by side in one round, and derives the per-layer metrics
from the traced run's spans (see spans.py and DESIGN.md).

Each run's report is checked: the verdict is `pass`, no candidate is
`fail`, and the measured constants match the references below within
REL_TOL.  The last line of output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every
metric with its unit, median, tail percentile and sample count.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from spans import summarize  # this file's directory is sys.path[0]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REL_TOL = 1e-9        # constants against their references
DEADLINE_S = 165.0    # one workload's measurement ends well inside 180 s
# children that run at once; each is single-threaded, so one per core
LANES = min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    keys: dict
    # constants.lambda_min of the certificate, or korn_constant per
    # resolution; none of them depends on the seed
    refs: tuple
    # traced and untraced reports must be byte-identical; the 48x48 Korn
    # eigensolve (shift-invert eigsh, random start) is not reproducible
    same_digest: bool


_STRETCH = {
    "mesh.kind": "rectangle",
    "mesh.nx": "16",
    "mesh.ny": "16",
    "material.model": "stvk",
    "material.lambda": "1.0",
    "material.mu": "1.0",
    "loads.dirichlet": "affine",
    "loads.matrix": "1.05 0.0 0.0 1.0",
    "certify.candidates": "12",
}

# Why these three (DESIGN.md has the measured shares): the two certify
# workloads are BMO-bound but reach different layers around it, and
# korn-sweep makes no BMO call at all, so a BMO change should move only
# the first two and an eigensolve change mostly the third.
WORKLOADS = {
    # pushforward, material.taylor_constants on chain-rule point
    # materials, and the reference CertInputs measured twice
    "strain-diff-16": Workload(
        {"pipeline": "certify-strain-diff", **_STRETCH},
        (1.1062234125447992,),
        True,
    ),
    # rigidity_fit and boundary_rotation_closeness per candidate, and the
    # Newton layer: 11 solve_equilibrium calls through multistart_agreement
    "small-strain-16": Workload(
        {"pipeline": "certify-small-strain", **_STRETCH, "certify.restarts": "10"},
        (1.1584441168240387,),
        True,
    ),
    # fem.coercivity_constant is nearly all of it; 48x48 (4418 dofs) is
    # the only eigensolve on the >3500-dof eigsh path, so it stays in the
    # sweep even though its result is not reproducible
    "korn-sweep": Workload(
        {"pipeline": "korn", "mesh.kind": "rectangle", "korn.resolutions": "16 32 48"},
        (2.0059128567816598, 2.00147737313853, 2.000656566812487),
        False,
    ),
}

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def scenario_text(name: str, seed: int) -> str:
    keys = {"name": name, "seed": str(seed), **WORKLOADS[name].keys}
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


class Runner:
    """Spawns child processes for one workload and seed; `spawn` may be
    called from several threads at once."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float):
        self.name, self.seed, self.work, self.deadline = name, seed, work, deadline
        self.scenario = work / f"{name}.cfg"
        self.scenario.write_text(scenario_text(name, seed))
        # pinned here, before the child's interpreter starts: the CLI's
        # --threads sets these only after numpy is imported
        self.env = {**os.environ, **{var: "1" for var in THREAD_VARS},
                    "PYTHONPATH": str(SRC)}
        self.count = itertools.count(1)

    def spawn(self, mode: str) -> tuple[dict, list, Path]:
        """Run one child; returns (result, problems, its directory)."""
        cdir = self.work / f"{mode}-{next(self.count):03d}"
        cdir.mkdir()
        result_path = cdir / "result.json"
        timeout = self.deadline - _now()
        if timeout <= 0:
            return {}, ["no time left before the deadline"], cdir
        with open(cdir / "stderr.txt", "wb") as err:
            t0 = _now()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), mode, str(self.scenario), str(self.seed),
                 str(cdir / "out"), str(result_path), repr(t0)],
                cwd=cdir, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return {}, [f"{mode} child killed after {timeout:.0f} s"], cdir
        if code != 0 or not result_path.exists():
            tail = (cdir / "stderr.txt").read_text(errors="replace").strip().splitlines()
            return {}, [f"{mode} child exit {code}: {tail[-1] if tail else ''}"], cdir
        result = json.loads(result_path.read_text())
        problems = []
        if Path(result["package"]).resolve().parent.parent != SRC.resolve():
            problems.append(f"imported rigidity_cert from {result['package']}, not {SRC}")
        if mode != "probe":
            problems += check_report(self.name, result)
        return result, problems, cdir


def check_report(name: str, result: dict) -> list:
    """The correctness check behind ok_frac; also records the digest."""
    data = Path(result["report"]).read_bytes()
    result["digest"] = hashlib.sha256(data).hexdigest()
    result["report_bytes"] = len(data)
    try:
        doc = json.loads(data)
        got = (
            (doc["constants"]["lambda_min"],) if "constants" in doc
            else tuple(doc["measurements"]["korn_constant"])
        )
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    if result["outcome"] != "pass" or doc.get("outcome") != "pass":
        problems.append(f"verdict {result['outcome']}/{doc.get('outcome')}, expected pass")
    failed = [c.get("id") for c in doc.get("candidates", []) if c.get("outcome") == "fail"]
    if failed:
        problems.append(f"failed candidates {failed}")
    refs = WORKLOADS[name].refs
    if len(got) != len(refs) or any(
        not math.isclose(g, r, rel_tol=REL_TOL, abs_tol=0.0) for g, r in zip(got, refs)
    ):
        problems.append(f"constants {got} differ from references {refs}")
    return problems


def tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "tail n/a (needs >= 11 samples)"
    k = n - 10
    return f"p{100 * k // n} {sorted(values)[k - 1]:.6g}"


def measure(name: str, seed: int, seconds: float, work: Path, deadline: float) -> dict:
    """--trace 0: the end-to-end metrics of one workload."""
    start = _now()
    runner = Runner(name, seed, work, deadline)
    attempted, failed, longest = 0, 0, 0.0
    setup, runs, rss, notes, info = [], [], [], [], {}

    def round_of(pool, mode):
        """LANES children started together; False once any has failed."""
        nonlocal attempted, failed, longest
        t0 = _now()
        children = list(pool.map(runner.spawn, [mode] * LANES))
        if mode == "run":
            longest = max(longest, _now() - t0)
        for result, problems, cdir in children:
            shutil.rmtree(cdir)
            attempted += 1
            failed += bool(problems)
            notes.extend(problems)
            if problems:
                continue
            info.update(threads=result["threads"], blas=result["blas"])
            setup.append(result["setup_s"])
            if mode == "run":
                runs.append(result["run_s"])
                rss.append(result["peak_rss_mb"])
        return not notes

    # fills the page cache and writes the bytecode cache; users do not pay
    # either on every run, so it is not timed
    _, problems, cdir = runner.spawn("probe")
    shutil.rmtree(cdir)
    if problems:
        raise SystemExit(f"{name}: warm-up failed: {problems[0]}")
    # Every sample is taken in a round of one child per core, started
    # together.  A child beside an idle core runs fast or slow as the
    # host's other tenants come and go; beside a busy neighbour of our own
    # the samples agree far better (DESIGN.md, "Run-to-run spread").  One
    # set-up round first, then run rounds while the next one fits in the
    # time left (at least one).
    with ThreadPoolExecutor(LANES) as pool:
        ok = round_of(pool, "probe")
        while ok and round_of(pool, "run") and _now() - start + longest <= seconds:
            pass
    print(f"workload {name} seed {seed}: {len(runs)} runs, {len(setup)} set-ups in "
          f"rounds of {LANES}, {_now() - start:.1f} s")
    print(f"  threads {info.get('threads')} blas {info.get('blas')}")
    print(f"  run_s samples {' '.join(f'{v:.4f}' for v in runs)}")
    for note in notes:
        print(f"  FAILED: {note}")
    samples = {"run_s": runs, "setup_s": setup, "peak_rss_mb": rss}
    metrics = {}
    for metric, unit in END_TO_END:
        if metric == "ok_frac":
            value = (attempted - failed) / attempted
            print(f"  {metric:<12} {value:.6g} {unit}  ({attempted - failed} of {attempted} ok)")
        else:
            vals = samples[metric]
            if not vals:
                continue
            value = statistics.median(vals)
            print(f"  {metric:<12} median {value:.6g} {unit}  {tail(vals)}  n={len(vals)}")
        metrics[metric] = {"value": value, "unit": unit}
    return {"correct": failed == 0 and len(metrics) == len(END_TO_END),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(stats: dict, counters: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced run."""

    def get(fn, key):
        return stats.get(fn, {}).get(key, 0)

    def layer_self(layer):
        return sum(st["self_s"] for fn, st in stats.items() if fn.split(".")[0] == layer)

    out = {}
    for fn, keys in (
        ("cli.load_scenario", ("self_s",)),
        ("cli.validate_scenario", ("total_s",)),
        ("cli.run_scenario", ("total_s",)),
        ("harmonic.bmo_seminorm", ("calls", "self_s")),
        ("harmonic.cube_family", ("calls", "self_s")),
        ("harmonic.fit_interpolation_constant", ("total_s",)),
        ("harmonic.verify_interpolation", ("total_s",)),
        ("fem.coercivity_constant", ("calls", "self_s")),
        ("fem.solve_equilibrium", ("calls", "total_s")),
        ("fem.total_energy", ("calls",)),
        ("fem.second_variation_matrix", ("calls", "self_s")),
        ("fem.residual_field", ("self_s",)),
        ("fem.gradient_field", ("calls",)),
        ("material.taylor_constants", ("calls", "self_s")),
        ("certify.certification_inputs", ("calls", "total_s")),
        ("certify.gated_perturbations", ("total_s",)),
        ("certify.local_min_gate", ("calls", "total_s")),
        ("certify.multistart_agreement", ("total_s",)),
        ("rigidity.rigidity_fit", ("total_s",)),
        ("rigidity.boundary_rotation_closeness", ("self_s",)),
        ("rigidity.korn_form_matrix", ("self_s",)),
        ("pushforward.certify_strain_neighborhood", ("self_s",)),
        ("pushforward.deform_configuration", ("self_s",)),
    ):
        for key in keys:
            out[f"{fn}.{key}"] = (get(fn, key), "count" if key == "calls" else "s")
    c = counters
    out["harmonic.cubes_visited"] = (c["cubes_visited"], "count")
    out["fem.coercivity_constant.max_dofs"] = (c["coercivity_max_dofs"], "count")
    out["fem.coercivity_constant.sparse_calls"] = (c["coercivity_sparse_calls"], "count")
    out["fem.newton_iterations"] = (c["newton_iterations"], "count")
    out["material.taylor_samples"] = (c["taylor_samples"], "count")
    out["certify.gate_pass_frac"] = (
        c["gates_pass"] / c["gates_run"] if c["gates_run"] else 0.0, "ratio")
    for layer in ("harmonic", "fem", "material", "certify", "rigidity",
                  "pushforward", "reporting", "tensor_core"):
        out[f"{layer}.self_s"] = (layer_self(layer), "s")
    return out


def trace(name: str, seed: int, work: Path, deadline: float) -> dict:
    """--trace 1: one untraced and one traced run, side by side as in a
    measured round; the per-layer metrics."""
    runner = Runner(name, seed, work, deadline)
    _, problems, cdir = runner.spawn("probe")
    shutil.rmtree(cdir)
    if problems:
        raise SystemExit(f"{name}: warm-up failed: {problems[0]}")
    with ThreadPoolExecutor(LANES) as pool:
        (plain, problems_plain, _), (traced, problems_traced, tdir) = pool.map(
            runner.spawn, ("run", "trace"))
    if plain and traced:
        if not traced["restored"]:
            problems_traced.append("a wrapped module attribute was not restored")
        drift = int(traced["digest"] != plain["digest"])
        if drift and WORKLOADS[name].same_digest:
            problems_traced.append("traced and untraced reports differ")
    problems = problems_plain + problems_traced
    failed = bool(problems_plain) + bool(problems_traced)
    if not plain or not traced:
        for note in problems:
            print(f"  FAILED: {note}")
        return {"correct": False, "attempted": 2, "failed": failed, "metrics": {}}
    kept = WORK / f"spans-{name}.json"
    shutil.move(str(tdir / "out" / "spans.json"), kept)
    spans = json.loads(kept.read_text())
    stats = summarize(spans)
    metrics = layer_metrics(stats, traced["counters"])
    metrics["reporting.report_bytes"] = (traced["report_bytes"], "B")
    metrics["reporting.digest_drift"] = (drift, "count")
    metrics["trace_overhead_frac"] = (traced["run_s"] / plain["run_s"] - 1.0, "ratio")
    run_s = metrics["cli.run_scenario.total_s"][0]
    print(f"workload {name} seed {seed}: untraced run_s {plain['run_s']:.4f} s, traced "
          f"run_s {traced['run_s']:.4f} s, {len(spans)} spans over {traced['wrapped']} "
          f"wrapped functions, written to {kept.relative_to(ROOT)}")
    print(f"  threads {traced['threads']} blas {traced['blas']}")
    print(f"  report digests {plain['digest'][:16]} {traced['digest'][:16]} (drift {drift})")
    for note in problems:
        print(f"  FAILED: {note}")
    for metric in sorted(metrics):
        value, unit = metrics[metric]
        share = f"  ({value / run_s:.1%} of traced run_s)" if unit == "s" and run_s else ""
        print(f"  {metric:<48} {value:.6g} {unit}{share}")
    bmo_share = metrics["harmonic.bmo_seminorm.self_s"][0] / run_s
    eig_share = metrics["fem.coercivity_constant.self_s"][0] / run_s
    if WORKLOADS[name].same_digest:
        print(f"  separation: bmo_seminorm self share {bmo_share:.1%} (>= 60% expected)")
    else:
        print(f"  separation: bmo_seminorm calls "
              f"{metrics['harmonic.bmo_seminorm.calls'][0]} (0 expected), "
              f"coercivity self share {eig_share:.1%} (>= 90% expected), sparse calls "
              f"{metrics['fem.coercivity_constant.sparse_calls'][0]} (1 expected)")
    return {"correct": not problems, "attempted": 2, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rigidity_cert" / "__init__.py").is_file():
        print(f"no rigidity_cert package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = _now() + DEADLINE_S
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            if args.trace:
                res = trace(name, args.seed, Path(tmp), deadline)
            else:
                res = measure(name, args.seed, args.seconds, Path(tmp), deadline)
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        total["metrics"].update({prefix + k: v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
