"""One scenario in a fresh interpreter: the unit that run.py times.

    python3 child.py MODE SCENARIO SEED OUT_DIR RESULT_JSON SPAWN_TIME

MODE is `probe` (import, load and validate, then stop: a set-up sample),
`run` (also call `cli.run_scenario` into OUT_DIR) or `trace` (`run` with
every public function of the package wrapped in a span; the spans go to
OUT_DIR/spans.json).  SPAWN_TIME is the parent's CLOCK_MONOTONIC reading
just before it started this process, so set-up time covers interpreter
start, imports, config parsing and the mesh build.  The thread variables
are set by the parent before this interpreter starts; this file only
reports them.
"""
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import rigidity_cert
from rigidity_cert import cli
from spans import Tracer  # this file's directory is sys.path[0]

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv) -> int:
    mode, scenario, seed, out_dir, result_path, spawn = argv
    out_dir = Path(out_dir)
    tracer = None
    if mode == "trace":
        tracer = Tracer("rigidity_cert", run_id=f"{Path(scenario).stem}-{seed}")
        tracer.install()
    sc = cli.load_scenario(scenario, seed_override=int(seed))
    cli.validate_scenario(sc)
    setup_s = _now() - float(spawn)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": setup_s,
        "package": rigidity_cert.__file__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    if mode != "probe":
        t = time.perf_counter()
        outcome, written = cli.run_scenario(sc, out_dir)
        result["run_s"] = time.perf_counter() - t
        result["outcome"] = outcome
        result["report"] = str(written[0])
        if tracer is not None:
            result["restored"] = tracer.restore()
            result["wrapped"] = tracer.wrapped
            result["counters"] = tracer.counters
            (out_dir / "spans.json").write_text(json.dumps(tracer.spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
