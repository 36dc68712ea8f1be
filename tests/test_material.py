import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidity_cert.errors import OutsideDomain, SetEscapesDomain
from rigidity_cert.material import identity_floor, neo_hookean, stvk, sym_basis
from rigidity_cert.tensor_core import frob, random_rotation

from conftest import frozen_point, random_gradient
from oracles import (
    CustomMaterial,
    d2sigma_apply,
    dsigma,
    exact_matrix,
    fd_matrix_derivative,
    frame_indifferent,
    gate_pair,
    neo_hookean_energy_sympy,
    quadratic_toy,
    stvk_energy_sympy,
    taylor_quotients,
    third_derivative,
)

MODELS = [stvk(1.0, 1.0), neo_hookean(1.0, 1.0)]


def _at(m, quantity, F):
    """m's energy, stress or elasticity at one gradient F, from its batched
    evaluator on a stack of one."""
    return getattr(m, f"{quantity}_many")(np.asarray(F, dtype=float)[None])[0]


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
            Ds = dsigma(m, C)
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
                Ds = dsigma(m, C)
                D2B = d2sigma_apply(m, C, B)
                rhs = float(np.sum(B * D2B)) + 2.0 * float(np.sum(Ds * (H.T @ H)))
                assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_stress_free_reference():
    for m in MODELS:
        for n in (2, 3):
            assert frob(_at(m, "stress", np.eye(n))) <= 1e-14


def _sigma_floor(m, n):
    """The least eigenvalue of D2sigma(I) on the symmetric matrices."""
    basis = sym_basis(n)
    Q = np.array([[float(np.sum(bi * d2sigma_apply(m, np.eye(n), bj))) for bj in basis]
                  for bi in basis])
    return float(np.linalg.eigvalsh(0.5 * (Q + Q.T)).min())


def test_identity_floor_stvk():
    m = stvk(1.0, 1.0)
    free_err, floor, skew_err = identity_floor(m, 2)
    assert frame_indifferent(m, 2, np.random.default_rng(0))
    assert free_err <= 1e-14
    # best constant in A(I)[H]:H >= c |H + H^T|^2 is mu/2, and with a
    # stress-free reference A(I) on symmetric directions is 4 D2sigma(I)
    assert floor == pytest.approx(0.5, abs=1e-9)
    assert _sigma_floor(m, 2) == pytest.approx(0.5, abs=1e-9)
    assert skew_err <= 1e-13


def test_identity_floor_neo_hookean():
    m = neo_hookean(1.0, 1.0)
    free_err, floor, skew_err = identity_floor(m, 2)
    assert frame_indifferent(m, 2, np.random.default_rng(1))
    assert free_err <= 1e-10
    assert floor == pytest.approx(0.5, abs=1e-9)
    assert _sigma_floor(m, 2) == pytest.approx(0.5, abs=1e-9)
    assert skew_err <= 1e-13


def test_identity_floor_3d():
    m = stvk(2.0, 0.75)
    free_err, floor, skew_err = identity_floor(m, 3)
    assert frame_indifferent(m, 3, np.random.default_rng(2))
    assert free_err <= 1e-10
    assert floor == pytest.approx(0.375, abs=1e-9)
    assert skew_err <= 1e-13


@settings(max_examples=80, deadline=None)
@example(model="stvk", n=2, lam=1.0, mu=1.0)
@example(model="neo-hookean", n=3, lam=1e-3, mu=50.0)
@given(model=st.sampled_from(["stvk", "neo-hookean"]), n=st.sampled_from([2, 3]),
       lam=st.floats(1e-3, 1e3), mu=st.floats(1e-3, 1e3))
def test_identity_floor_is_the_exact_symmetric_eigenvalue(model, n, lam, mu):
    # A(I)[H] = lam tr H I + 2 mu sym H: on the symmetric matrices its
    # eigenvalues are 2 mu (traceless) and n lam + 2 mu (along I), and it
    # annihilates every skew direction
    m = stvk(lam, mu) if model == "stvk" else neo_hookean(lam, mu)
    free_err, floor, skew_err = identity_floor(m, n)
    expected = min(mu / 2.0, (n * lam + 2.0 * mu) / 4.0)
    assert floor == pytest.approx(expected, rel=1e-12)
    assert free_err == 0.0
    assert skew_err == 0.0


def test_identity_floor_sees_a_skew_leak():
    # |F - I|^2 / 2 has A(I) = id, which maps each skew basis matrix to
    # itself: a skew error of 1 beside the floor 1/4
    free_err, floor, skew_err = identity_floor(quadratic_toy(), 2)
    assert free_err == 0.0
    assert floor == pytest.approx(0.25, rel=1e-12)
    assert skew_err == pytest.approx(1.0, rel=1e-12)


def test_outside_domain_rejected():
    m = neo_hookean(1.0, 1.0)
    with pytest.raises(OutsideDomain):
        _at(m, "energy", np.diag([1.0, -1.0]))
    with pytest.raises(OutsideDomain):
        _at(m, "stress", np.diag([0.0, 1.0]))
    with pytest.raises(OutsideDomain):
        neo_hookean().energy_many(np.stack([np.eye(2), np.diag([-1.0, 1.0])]))


def test_custom_material_fd_fallbacks():
    lam, mu = 1.3, 0.7
    ref = stvk(lam, mu)

    def w(F):
        E = 0.5 * (F.T @ F - np.eye(F.shape[0]))
        return 0.5 * lam * np.trace(E) ** 2 + mu * float(np.sum(E * E))

    m = CustomMaterial("stvk-by-hand", w)
    assert frame_indifferent(m, 2, np.random.default_rng(29))
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
    assert not frame_indifferent(toy, 2, np.random.default_rng(31))
    F = np.array([[1.2, 0.1], [0.0, 0.9]])
    d = F - np.eye(2)
    assert _at(toy, "energy", F) == pytest.approx(0.5 * float(np.sum(d * d)))
    assert np.allclose(_at(toy, "stress", F), d)


def test_taylor_constants_quadratic_toy_vanish():
    # the quadratic toy has no third derivative: its bounds are 0, and the
    # sampled quotients only see rounding, within their allowance
    toy = quadratic_toy()
    assert toy.taylor_bounds(2, 0.3, 0.1) == (0.0, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(300):
        for q, allowance in taylor_quotients(toy, *gate_pair(rng, 2, 0.3, 0.1)):
            assert q <= allowance


def test_taylor_set_escape_guard():
    for m in (stvk(1.0, 1.0), neo_hookean(1.0, 1.0)):
        for rho, epsilon in ((0.7, 0.3), (0.5, 0.6), (-0.1, 0.2), (0.2, -0.1)):
            with pytest.raises(SetEscapesDomain):
                m.taylor_bounds(2, rho, epsilon)
    with pytest.raises(NotImplementedError, match="no closed-form Taylor bounds"):
        CustomMaterial("bare", lambda F: 0.0).taylor_bounds(2, 0.25, 0.25)


def test_taylor_constants_stvk_sane():
    # the closed forms at lam = mu = 1, n = 2, rho = epsilon = 0.25: c is
    # (sqrt(2) + 1/4) / 2 + 5/4 + 3/32 = 2.176, below half the crude 5.12
    # of the remainder bounded term by term with Frobenius norms, and
    # c_hat is 3 (sqrt(2) + 3/8) + 6 * 11/8
    c, c_hat = stvk(1.0, 1.0).taylor_bounds(2, 0.25, 0.25)
    assert c == pytest.approx(math.sqrt(2.0) / 2.0 + 0.125 + 1.25 + 0.09375, rel=1e-15)
    assert c_hat == pytest.approx(3.0 * (math.sqrt(2.0) + 0.375) + 8.25, rel=1e-15)
    assert c < 5.12 / 2.0
    # a smaller set cannot raise either bound, and a pushforward through
    # F = I is the material itself
    for m in (stvk(1.0, 1.0), neo_hookean(1.5, 1.0)):
        for n in (2, 3):
            c, c_hat = m.taylor_bounds(n, 0.25, 0.25)
            assert 0.0 < c < c_hat
            for smaller in (m.taylor_bounds(n, 0.1, 0.25), m.taylor_bounds(n, 0.25, 0.1)):
                assert smaller[0] <= c and smaller[1] <= c_hat
            assert frozen_point(m, np.eye(n)).taylor_bounds(n, 0.25, 0.25) == (c, c_hat)
    # StVK's remainder is homogeneous of degree 4 in (X, H), so through
    # F = s I every quotient scales by s^4 / det F = s^(4 - n), and the
    # bounds scale alike: they stay as tight as the material's own
    for n in (2, 3):
        c, c_hat = stvk(1.0, 1.0).taylor_bounds(n, 0.25, 0.25)
        pushed = frozen_point(stvk(1.0, 1.0), 2.0 * np.eye(n)).taylor_bounds(n, 0.25, 0.25)
        assert pushed == pytest.approx((2.0 ** (4 - n) * c, 2.0 ** (4 - n) * c_hat), rel=1e-14)
    # within 1.3x of the largest quotients a dense sample finds
    rng = np.random.default_rng(1)
    m = stvk(1.0, 1.0)
    c, c_hat = m.taylor_bounds(2, 0.25, 0.25)
    sampled = np.max([[q for q, _ in taylor_quotients(m, *gate_pair(rng, 2, 0.25, 0.25))]
                      for _ in range(3000)], axis=0)
    assert np.all(sampled <= (c, c_hat))
    assert np.all(sampled >= (c / 1.3, c_hat / 1.3))


def _bounded_model(model, n, lam, mu, rng):
    base = stvk(lam, mu) if model.endswith("stvk") else neo_hookean(lam, mu)
    if model.startswith("push"):
        return frozen_point(base, random_gradient(rng, n, 0.5, 2.0))
    return base


@settings(max_examples=60, deadline=None)
@example(model="stvk", n=2, lam=1.0, mu=1.0, rho=0.25, epsilon=0.25, seed=0)
@example(model="neo-hookean", n=3, lam=1.5, mu=1.0, rho=0.25, epsilon=0.25, seed=1)
@example(model="push-neo-hookean", n=2, lam=1e3, mu=1e-3, rho=0.6, epsilon=0.35, seed=2)
@given(model=st.sampled_from(["stvk", "neo-hookean", "push-stvk", "push-neo-hookean"]),
       n=st.sampled_from([2, 3]), lam=st.floats(1e-3, 1e3), mu=st.floats(1e-3, 1e3),
       rho=st.floats(0.0, 0.95), epsilon=st.floats(0.01, 0.95), seed=st.integers(0, 2**32 - 1))
def test_taylor_bounds_hold_on_sampled_pairs(model, n, lam, mu, rho, epsilon, seed):
    # no cubic or Lipschitz quotient sampled on the set the gate admits
    # exceeds its bound, beyond its rounding allowance; the pushforward
    # goes through a random forward gradient with singular values in
    # [0.5, 2]
    if rho + epsilon >= 0.99:
        epsilon = 0.99 - rho
    rng = np.random.default_rng(seed)
    m = _bounded_model(model, n, lam, mu, rng)
    bounds = m.taylor_bounds(n, rho, epsilon)
    for _ in range(150):
        for (q, allowance), bound in zip(taylor_quotients(m, *gate_pair(rng, n, rho, epsilon)),
                                         bounds):
            assert q <= bound * (1.0 + 1e-12) + allowance


def _stvk_third(lam, mu, X, H):
    """The StVK closed form 3 lam (X:H) |H|^2 + 6 mu <X, H H^T H>."""
    return 3.0 * lam * np.sum(X * H) * np.sum(H * H) + 6.0 * mu * np.sum(X * (H @ H.T @ H))


def _neo_hookean_third(lam, mu, X, H):
    """The neo-Hookean closed form 2 (lam log J - mu) tr N^3 - 3 lam tr N
    tr N^2, N = X^-1 H."""
    N = np.linalg.solve(X, H)
    N2 = N @ N
    logJ = math.log(np.linalg.det(X))
    return 2.0 * (lam * logJ - mu) * np.trace(N2 @ N) - 3.0 * lam * np.trace(N) * np.trace(N2)


@pytest.mark.parametrize("n", [2, 3])
def test_taylor_closed_forms_against_sympy(n):
    # sympy differentiates W(X + tH) three times on the exact values of X
    # and H: the closed forms the bounds are derived from agree with it,
    # as do those of a pushforward W(X F) / det F, whose third derivative
    # is T(X F)[H F, H F, H F] / det F; and |T| stays within the
    # pointwise bounds 3 lam |X| + 6 mu |X|_op (StVK) and
    # (2 |lam log J - mu| + 3 sqrt(n) lam) / sigma_min(X)^3 (neo-Hookean)
    rng = np.random.default_rng(40 + n)
    lam, mu = 1.5, 0.75
    for _ in range(4):
        X = random_gradient(rng, n, 0.5, 1.5)
        H = rng.normal(size=(n, n))
        H /= frob(H)
        F = random_gradient(rng, n, 0.7, 1.4)
        Fx, det = exact_matrix(F), float(np.linalg.det(F))
        sig = np.linalg.svd(X, compute_uv=False)
        for energy, closed, bound in (
            (stvk_energy_sympy(lam, mu), _stvk_third,
             3.0 * lam * frob(X) + 6.0 * mu * sig[0]),
            (neo_hookean_energy_sympy(lam, mu), _neo_hookean_third,
             (2.0 * abs(lam * math.log(np.prod(sig)) - mu) + 3.0 * math.sqrt(n) * lam)
             / sig[-1] ** 3),
        ):
            T = third_derivative(energy, X, H)
            assert closed(lam, mu, X, H) == pytest.approx(T, rel=1e-10, abs=1e-12)
            assert abs(T) <= bound * (1.0 + 1e-12)
            pushed = third_derivative(lambda Y: energy(Y * Fx) / Fx.det(), X, H)
            assert closed(lam, mu, X @ F, H @ F) / det == pytest.approx(pushed, rel=1e-10,
                                                                       abs=1e-12)


def test_taylor_chat_one_sided_against_third_derivative():
    # StVK's T(X) is linear in X, and c_hat is the bound on its norm over
    # the points within rho + epsilon / 2 of SO(n): no directional third
    # derivative there, taken by differences of A, exceeds it
    m = stvk(1.0, 1.0)
    rho, epsilon = 0.2, 0.05
    _, c_hat = m.taylor_bounds(2, rho, epsilon)
    rng = np.random.default_rng(3)
    largest = 0.0
    h = 1e-5
    for _ in range(2000):
        X, _, K = gate_pair(rng, 2, rho + epsilon / 2.0, 0.0)
        L = rng.normal(size=(2, 2))
        L /= frob(L)
        qp = float(np.sum(K * _apply(m, X + h * L, K)))
        qm = float(np.sum(K * _apply(m, X - h * L, K)))
        largest = max(largest, abs(qp - qm) / (2 * h))
    assert largest <= c_hat
    assert largest >= c_hat / 2.0
