import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidity_cert.errors import OutsideDomain, SetEscapesDomain
from rigidity_cert.material import (
    CustomMaterial,
    check_constitutive,
    neo_hookean,
    quadratic_toy,
    stvk,
    taylor_constants,
    taylor_draws,
)
from rigidity_cert.pushforward import FrozenPointMaterial
from rigidity_cert.tensor_core import frob, random_rotation

from conftest import random_gradient
from oracles import fd_matrix_derivative, taylor_draws_loop

MODELS = [stvk(1.0, 1.0), neo_hookean(1.0, 1.0)]


def _at(m, quantity, F, x=None):
    """m's energy, stress or elasticity at one point x (None: no coordinate),
    from its batched evaluator on a stack of one."""
    coords = None if x is None else np.asarray(x, dtype=float)[None]
    return getattr(m, f"{quantity}_many")(coords, np.asarray(F, dtype=float)[None])[0]


def _apply(m, F, H):
    """A(F)[H] at one point."""
    return np.einsum("iajb,jb->ia", _at(m, "elasticity", F), H)


def test_stvk_frozen_energy_value():
    # F = 2I in 2D: E = 1.5 I, tr E = 3, E:E = 4.5, W = 0.5*9 + 4.5 = 9
    assert _at(stvk(1.0, 1.0), "energy", 2.0 * np.eye(2)) == pytest.approx(9.0, abs=1e-13)


def test_energy_zero_at_rotations():
    rng = np.random.default_rng(1)
    for m in MODELS:
        for n in (2, 3):
            assert _at(m, "energy", np.eye(n)) == 0.0
            for _ in range(20):
                R = random_rotation(rng, n)
                assert abs(_at(m, "energy", R)) <= 1e-13


def test_energy_nonnegative_sweep():
    rng = np.random.default_rng(2)
    for m in MODELS:
        for n in (2, 3):
            for _ in range(200):
                F = random_gradient(rng, n, 0.3, 3.0)
                assert _at(m, "energy", F) >= -1e-14


def test_stress_matches_fd_of_energy():
    rng = np.random.default_rng(3)
    for m in MODELS:
        for n in (2, 3):
            for _ in range(15):
                F = random_gradient(rng, n, 0.5, 2.0)
                h = 1e-6 * (1.0 + frob(F))
                fd = fd_matrix_derivative(lambda G: _at(m, "energy", G), F, h)
                S = _at(m, "stress", F)
                assert frob(S - fd) <= 1e-6 * (1.0 + frob(S))


def test_elasticity_matches_fd_of_stress():
    rng = np.random.default_rng(5)
    for m in MODELS:
        for n in (2, 3):
            for _ in range(10):
                F = random_gradient(rng, n, 0.5, 2.0)
                A = _at(m, "elasticity", F)
                h = 1e-6 * (1.0 + frob(F))
                for _ in range(4):
                    H = rng.normal(size=(n, n))
                    Fp, Fm = F + h * H, F - h * H
                    fd = (_at(m, "stress", Fp) - _at(m, "stress", Fm)) / (2 * h)
                    AH = np.einsum("iajb,jb->ia", A, H)
                    assert frob(AH - fd) <= 1e-5 * (1.0 + frob(AH))


def test_elasticity_bilinear_symmetric():
    rng = np.random.default_rng(7)
    for m in MODELS:
        for _ in range(30):
            F = random_gradient(rng, 2, 0.5, 2.0)
            A = _at(m, "elasticity", F)
            H1, H2 = rng.normal(size=(2, 2, 2))
            lhs = float(np.sum(H1 * np.einsum("iajb,jb->ia", A, H2)))
            rhs = float(np.sum(H2 * np.einsum("iajb,jb->ia", A, H1)))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_elasticity_identity_frozen_value():
    # lam = mu = 1, H = e1 x e1: lam (tr H)^2 + 2 mu |sym H|^2 = 1 + 2 = 3
    for m in MODELS:
        H = np.zeros((2, 2))
        H[0, 0] = 1.0
        AH = _apply(m, np.eye(2), H)
        assert float(np.sum(H * AH)) == pytest.approx(3.0, abs=1e-12)


def test_frame_indifference_sweep():
    rng = np.random.default_rng(11)
    for m in MODELS:
        for n in (2, 3):
            for _ in range(100):
                F = random_gradient(rng, n, 0.4, 2.5)
                Q = random_rotation(rng, n)
                a = _at(m, "energy", F)
                b = _at(m, "energy", Q @ F)
                assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_sigma_representation_of_stress():
    rng = np.random.default_rng(13)
    for m in MODELS:
        for _ in range(50):
            F = random_gradient(rng, 2, 0.5, 2.0)
            C = F.T @ F
            Ds = m.dsigma_many(None, C[None])[0]
            S = _at(m, "stress", F)
            assert frob(S - 2.0 * F @ Ds) <= 1e-10 * (1.0 + frob(S))


def test_sigma_split_of_elasticity():
    rng = np.random.default_rng(17)
    for m in MODELS:
        for n in (2, 3):
            for _ in range(30):
                F = random_gradient(rng, n, 0.5, 2.0)
                H = rng.normal(size=(n, n))
                C = F.T @ F
                B = H.T @ F + F.T @ H
                lhs = float(np.sum(H * _apply(m, F, H)))
                Ds = m.dsigma_many(None, C[None])[0]
                D2B = m.d2sigma_apply_many(None, C[None], B[None])[0]
                rhs = float(np.sum(B * D2B)) + 2.0 * float(np.sum(Ds * (H.T @ H)))
                assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_stress_free_reference():
    for m in MODELS:
        for n in (2, 3):
            assert frob(_at(m, "stress", np.eye(n))) <= 1e-14


def test_check_constitutive_stvk():
    rep = check_constitutive(stvk(1.0, 1.0), n=2, seed=0)
    assert rep.frame_indifference_err <= 1e-12
    assert rep.stress_free_err <= 1e-10
    assert rep.shear_floor > 0.0
    assert rep.stress_free_err <= 1e-14
    assert rep.sigma_stress_err <= 1e-12
    assert rep.sigma_split_err <= 1e-12
    # best constant in A(I)[H]:H >= c |H + H^T|^2 is mu/2
    assert rep.shear_floor == pytest.approx(0.5, abs=1e-9)
    assert rep.sigma_floor == pytest.approx(0.5, abs=1e-9)
    assert rep.skew_annihilation_err <= 1e-13


def test_check_constitutive_neo_hookean():
    rep = check_constitutive(neo_hookean(1.0, 1.0), n=2, seed=1)
    assert rep.frame_indifference_err <= 1e-12
    assert rep.stress_free_err <= 1e-10
    assert rep.shear_floor > 0.0
    assert rep.shear_floor == pytest.approx(0.5, abs=1e-9)
    assert rep.sigma_floor == pytest.approx(0.5, abs=1e-9)


def test_check_constitutive_3d():
    rep = check_constitutive(stvk(2.0, 0.75), n=3, seed=2)
    assert rep.frame_indifference_err <= 1e-12
    assert rep.stress_free_err <= 1e-10
    assert rep.shear_floor > 0.0
    assert rep.shear_floor == pytest.approx(0.375, abs=1e-9)


def test_outside_domain_rejected():
    m = neo_hookean(1.0, 1.0)
    with pytest.raises(OutsideDomain):
        _at(m, "energy", np.diag([1.0, -1.0]))
    with pytest.raises(OutsideDomain):
        _at(m, "stress", np.diag([0.0, 1.0]))
    with pytest.raises(OutsideDomain):
        neo_hookean().energy_many(None, np.stack([np.eye(2), np.diag([-1.0, 1.0])]))


def test_custom_material_fd_fallbacks():
    lam, mu = 1.3, 0.7
    ref = stvk(lam, mu)

    def w(x, F):
        E = 0.5 * (F.T @ F - np.eye(F.shape[0]))
        return 0.5 * lam * np.trace(E) ** 2 + mu * float(np.sum(E * E))

    m = CustomMaterial("stvk-by-hand", w, frame_indifferent=True)
    rng = np.random.default_rng(23)
    for _ in range(5):
        F = random_gradient(rng, 2, 0.5, 2.0)
        assert frob(_at(m, "stress", F) - _at(ref, "stress", F)) <= 1e-6 * (
            1 + frob(_at(ref, "stress", F))
        )
        H = rng.normal(size=(2, 2))
        a = _apply(m, F, H)
        b = _apply(ref, F, H)
        assert frob(a - b) <= 1e-4 * (1 + frob(b))


def test_quadratic_toy_shape():
    toy = quadratic_toy()
    assert not toy.frame_indifferent
    F = np.array([[1.2, 0.1], [0.0, 0.9]])
    d = F - np.eye(2)
    assert _at(toy, "energy", F) == pytest.approx(0.5 * float(np.sum(d * d)))
    assert np.allclose(_at(toy, "stress", F), d)


def test_taylor_constants_quadratic_toy_vanish():
    # the quadratic toy has no cubic defect; the sampled quotient only sees
    # cancellation noise of order eps / |H|^3
    tc = taylor_constants(quadratic_toy(), taylor_draws(2, 0.3, 0.1, 300, 0))
    assert tc.c <= 1e-12
    assert tc.c_hat <= 1e-12


def test_taylor_set_escape_guard():
    with pytest.raises(SetEscapesDomain):
        taylor_draws(2, 0.7, 0.3, 400, 0)


def test_taylor_constants_stvk_sane():
    tc = taylor_constants(stvk(1.0, 1.0), taylor_draws(2, 0.2, 0.05, 800, 1))
    assert 0.0 < tc.c < 100.0
    assert 0.0 < tc.c_hat < 100.0
    # larger sets cannot shrink the sampled constants (same seed nesting not
    # guaranteed, so compare against a clearly smaller set)
    small = taylor_constants(stvk(1.0, 1.0), taylor_draws(2, 0.05, 0.01, 800, 1))
    assert small.c <= tc.c * 1.5 + 1e-9


def test_taylor_constants_evaluate_elasticity_at_f_once(monkeypatch):
    # the cubic defect and the Lipschitz quotient share A(F); with A(G)
    # that is two batched elasticity calls, one per gradient, over every
    # sample, and the constants are the same
    m = stvk(1.0, 1.0)
    draws = taylor_draws(2, 0.2, 0.05, 50, 4)
    plain = taylor_constants(stvk(1.0, 1.0), draws)
    real = m.elasticity_many
    calls = []

    def counting(coords, F):
        calls.append(len(F))
        return real(coords, F)

    monkeypatch.setattr(m, "elasticity_many", counting)
    tc = taylor_constants(m, draws)
    assert calls == [50, 50]
    assert (tc.c, tc.c_hat) == (plain.c, plain.c_hat)
    # both materials read the same draws, which cannot be written
    assert not any(a.flags.writeable for a in (draws.X, draws.F, draws.G, draws.K))


def _closure_push_point(base, x, F):
    """The frozen-point pushforward as per-point closures: the reference
    the batched FrozenPointMaterial reproduces bitwise."""
    det = float(np.linalg.det(F))

    def energy_fn(_, G):
        return float(base.energy_many(x[None], (G @ F)[None])[0]) / det

    def stress_fn(_, G):
        return base.stress_many(x[None], (G @ F)[None])[0] @ F.T / det

    def elasticity_fn(_, G):
        A = base.elasticity_many(x[None], (G @ F)[None])[0]
        return np.einsum("ikjl,ak,bl->iajb", A, F, F) / det

    return CustomMaterial("pushforward-point", energy_fn, stress_fn, elasticity_fn)


def _reference_taylor(m, n, delta, epsilon, nsamples, seed, coords):
    """taylor_constants as one loop over samples, each drawn and evaluated
    in turn; the batched version must give the same bits."""
    c_best = 0.0
    chat_best = 0.0
    floor = 1e-3
    for x, F, G, K in taylor_draws_loop(n, delta, epsilon, nsamples, seed, coords):
        x = x[None, :]
        H = G - F
        hn = frob(H)
        if hn > 1e-10:
            AF = m.elasticity_many(x, F[None])[0]
        if hn >= floor:
            WF = float(m.energy_many(x, F[None])[0])
            WG = float(m.energy_many(x, G[None])[0])
            S = m.stress_many(x, F[None])[0]
            A_H = np.einsum("iajb,jb->ia", AF, H)
            defect = WF - WG + float(np.sum(S * H)) + 0.5 * float(np.sum(H * A_H))
            c_best = max(c_best, defect / hn**3)
        if hn > 1e-10:
            qF = float(np.sum(K * np.einsum("iajb,jb->ia", AF, K)))
            qG = float(np.sum(K * np.einsum("iajb,jb->ia", m.elasticity_many(x, G[None])[0], K)))
            chat_best = max(chat_best, abs(qF - qG) / hn)
    return c_best, chat_best


_TAYLOR_MODELS = ("stvk", "neo-hookean", "quadratic-toy", "push-stvk", "push-neo")


@settings(max_examples=40, deadline=None)
@example(model="quadratic-toy", n=2, seed=0, delta=0.2, epsilon=0.1, npoints=0, nsamples=0)
@example(model="stvk", n=3, seed=7, delta=0.3, epsilon=0.1, npoints=5, nsamples=40)
@example(model="push-neo", n=2, seed=11, delta=0.25, epsilon=0.2, npoints=1, nsamples=1)
@given(model=st.sampled_from(_TAYLOR_MODELS), n=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1), delta=st.floats(0.0, 0.6),
       epsilon=st.floats(0.0, 0.35), npoints=st.sampled_from([0, 1, 5]),
       nsamples=st.integers(0, 120))
def test_taylor_constants_match_per_sample_loop(model, n, seed, delta, epsilon, npoints,
                                                nsamples):
    rng = np.random.default_rng(seed)
    coords = None if npoints == 0 else rng.uniform(-1.0, 1.0, size=(npoints, n))
    if model.startswith("push"):
        base = stvk(1.2, 0.8) if model == "push-stvk" else neo_hookean(0.9, 1.1)
        x = rng.uniform(0.0, 1.0, size=n)
        F = random_gradient(rng, n, 0.8, 1.25)
        m, ref = FrozenPointMaterial(base, x, F), _closure_push_point(base, x, F)
    else:
        m = ref = {
            "stvk": stvk(1.3, 0.7),
            "neo-hookean": neo_hookean(1.0, 0.6),
            "quadratic-toy": quadratic_toy(),
        }[model]
    tc = taylor_constants(m, taylor_draws(n, delta, epsilon, nsamples, seed, coords=coords))
    expected = _reference_taylor(ref, n, delta, epsilon, nsamples, seed, coords)
    assert (tc.c, tc.c_hat) == expected
    assert type(tc.c) is float and type(tc.c_hat) is float


@settings(max_examples=30, deadline=None)
@example(n=3, seed=7, delta=0.3, epsilon=0.1, npoints=5, nsamples=40)
@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
       delta=st.floats(0.0, 0.6), epsilon=st.floats(0.0, 0.35),
       npoints=st.sampled_from([0, 1, 5]), nsamples=st.integers(0, 120))
def test_taylor_draws_match_per_sample_loop_bytes(n, seed, delta, epsilon, npoints, nsamples):
    # the batched draws read the stream with standard_normal and random;
    # the per-sample loop with normal and uniform, as its definition does
    coords = None if npoints == 0 else np.random.default_rng(seed).uniform(-1, 1, (npoints, n))
    draws = taylor_draws(n, delta, epsilon, nsamples, seed, coords=coords)
    loop = list(taylor_draws_loop(n, delta, epsilon, nsamples, seed, coords))
    for i, got in enumerate((draws.X, draws.F, draws.G, draws.K)):
        assert len(got) == nsamples
        assert got.tobytes() == np.array([sample[i] for sample in loop]).tobytes()


@pytest.mark.parametrize("npoints", [1, 16])
@pytest.mark.parametrize("n", [2, 3])
def test_taylor_draws_pick_a_coordinate_only_among_several(monkeypatch, n, npoints):
    # integers(1) draws nothing from the stream, so the draws over one
    # coordinate skip it and stay the per-sample loop's bytes, as the
    # draws over 16 coordinates do with it
    coords = np.random.default_rng(npoints).uniform(-1, 1, (npoints, n))
    picks = []

    def counting_rng(seed):
        rng = _DEFAULT_RNG(seed)
        return types.SimpleNamespace(
            standard_normal=rng.standard_normal, random=rng.random,
            integers=lambda high: picks.append(high) or rng.integers(high))

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    draws = taylor_draws(n, 0.3, 0.1, 200, 11, coords=coords)
    monkeypatch.undo()
    assert picks == ([] if npoints == 1 else [npoints] * 200)
    loop = list(taylor_draws_loop(n, 0.3, 0.1, 200, 11, coords))
    for i, got in enumerate((draws.X, draws.F, draws.G, draws.K)):
        assert got.tobytes() == np.array([sample[i] for sample in loop]).tobytes()
    if npoints > 1:
        assert len(np.unique(draws.X, axis=0)) > 1


_DEFAULT_RNG = np.random.default_rng


class _DegenerateSteps:
    """A generator whose matrix draws fail the norm tests of the Taylor
    draws: sample by sample, the steps of F and G and the fattening E are
    plain, skew (the symmetric part of a step is 0), with a zero (0, 0)
    entry, or zero, in turn; the direction K stays plain."""

    def __init__(self, seed):
        self._rng = _DEFAULT_RNG(seed)
        self._matrices = 0
        self.uniforms = 0

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        self.uniforms += 1
        return self._rng.uniform(*args, **kwargs)

    def random(self, size=None):
        self.uniforms += 1 if size is None else size
        return self._rng.random(size)

    def standard_normal(self, size=None, out=None):
        if out is None:
            return self.normal(size)
        out[...] = self.normal(out.shape)
        return out

    def normal(self, size=None):
        A = self._rng.normal(size=size)
        if np.ndim(A) == 2:
            sample, slot = divmod(self._matrices, 4)
            self._matrices += 1
            kind = sample % 4 if slot < 3 else 0
            if kind == 1:
                A = A - A.T
            elif kind == 2:
                A[0, 0] = 0.0
            elif kind == 3:
                A[...] = 0.0
        return A


@pytest.mark.parametrize("n", [2, 3])
def test_taylor_draws_scale_a_step_only_when_its_norm_is_positive(monkeypatch, n):
    generators = []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: generators.append(_DegenerateSteps(seed)) or generators[-1])
    m = stvk(1.3, 0.7)
    tc = taylor_constants(m, taylor_draws(n, 0.3, 0.1, 40, 5))
    assert (tc.c, tc.c_hat) == _reference_taylor(m, n, 0.3, 0.1, 40, 5, None)
    # per 4 samples, the plain and the (0, 0) kind draw 3 lengths, the skew
    # kind 1 (E's), the zero kind none; in 2D every rotation draws an angle
    angles = 2 * 40 if n == 2 else 0
    assert [g.uniforms for g in generators] == [angles + 10 * 7] * 2


def test_taylor_chat_one_sided_against_third_derivative():
    # For the quartic stvk energy the second-derivative quadratic form is
    # quadratic along any segment, so every Lipschitz quotient is dominated
    # by the largest directional third derivative over the sampled set.
    m = stvk(1.0, 1.0)
    tc = taylor_constants(m, taylor_draws(2, 0.2, 0.05, 600, 2))
    rng = np.random.default_rng(3)
    bound = 0.0
    h = 1e-5
    for _ in range(2000):
        F = random_gradient(rng, 2, 0.7, 1.4)
        K = rng.normal(size=(2, 2))
        K /= frob(K)
        L = rng.normal(size=(2, 2))
        L /= frob(L)
        qp = float(np.sum(K * _apply(m, F + h * L, K)))
        qm = float(np.sum(K * _apply(m, F - h * L, K)))
        bound = max(bound, abs(qp - qm) / (2 * h))
    assert tc.c_hat <= 2.0 * bound
