import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_cert.errors import DeterminantViolation, DimensionMismatch, Singular
from rigidity_cert.tensor_core import (
    det_many,
    dist_to_rotations,
    dist_to_rotations_many,
    frob,
    polar_decompose,
    strain,
    strain_dist_sandwich,
)

from conftest import random_gradient
from oracles import (
    dist_via_svd,
    random_rotation,
    rotation_grid_min_2d,
    rotation_grid_min_2d_enum,
    rotation_min_3d_sampled,
)


def test_polar_diagonal_stretch():
    pair = polar_decompose(np.diag([2.0, 0.5]))
    assert np.allclose(pair.rotation, np.eye(2), atol=1e-14)
    assert np.allclose(pair.stretch, np.diag([2.0, 0.5]), atol=1e-14)


def test_polar_recovers_constructed_factors():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for _ in range(200):
            R = random_rotation(rng, n)
            ev = rng.uniform(0.1, 10.0, size=n)
            B = random_rotation(rng, n)
            U = B @ np.diag(ev) @ B.T
            pair = polar_decompose(R @ U)
            assert frob(pair.rotation - R) <= 1e-9
            assert frob(pair.stretch - U) <= 1e-9 * (1.0 + frob(U))


def test_polar_invariants_random_sweep():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        for _ in range(500):
            F = random_gradient(rng, n)
            pair = polar_decompose(F)
            R, U = pair.rotation, pair.stretch
            assert frob(R.T @ R - np.eye(n)) <= 1e-12
            assert np.linalg.det(R) > 0
            assert np.all(np.linalg.eigvalsh(0.5 * (U + U.T)) > 0)
            assert frob(R @ U - F) <= 1e-10 * (1.0 + frob(F))


def test_polar_rejects_nonpositive_det():
    with pytest.raises(DeterminantViolation):
        polar_decompose(np.diag([1.0, -1.0]))
    with pytest.raises(DeterminantViolation):
        polar_decompose(np.zeros((2, 2)))
    with pytest.raises(DeterminantViolation):
        dist_to_rotations(np.diag([-2.0, 1.0, 1.0]))


def test_polar_rejects_near_singular():
    with pytest.raises(Singular):
        polar_decompose(np.diag([1.0, 1e-16]))


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        polar_decompose(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        dist_to_rotations(np.eye(4))
    with pytest.raises(DimensionMismatch):
        strain(np.array([1.0, 2.0]))


def test_dist_frozen_value():
    # diag(2, 1/2): stretches 2 and 1/2, so dist^2 = 1 + 1/4
    assert dist_to_rotations(np.diag([2.0, 0.5])) == pytest.approx(
        math.sqrt(1.25), abs=1e-14
    )


def test_dist_zero_on_rotations():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        for _ in range(50):
            assert dist_to_rotations(random_rotation(rng, n)) <= 1e-7


def test_dist_matches_svd_route():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        for _ in range(300):
            F = random_gradient(rng, n)
            assert dist_to_rotations(F) == pytest.approx(dist_via_svd(F), rel=1e-10)


def test_dist_matches_angle_grid_oracle_2d():
    rng = np.random.default_rng(13)
    for _ in range(50):
        F = random_gradient(rng, 2)
        grid = rotation_grid_min_2d_enum(F, 200_000)
        fast = rotation_grid_min_2d(F, 200_000)
        assert fast == pytest.approx(grid, abs=1e-12)
        d = dist_to_rotations(F)
        assert d <= grid + 1e-9
        assert d == pytest.approx(grid, abs=1e-6)


def test_dist_one_sided_against_3d_samples():
    rng = np.random.default_rng(17)
    for _ in range(20):
        F = random_gradient(rng, 3)
        sampled = rotation_min_3d_sampled(F, rng, 20_000)
        assert dist_to_rotations(F) <= sampled + 1e-12


def test_dist_many_is_the_scalar_per_matrix():
    # one spectrum computation: every matrix of a stack, in any layout,
    # gets the scalar function's value bit for bit
    rng = np.random.default_rng(19)
    for n in (2, 3):
        F = np.stack([random_gradient(rng, n) for _ in range(60)])
        one = np.array([dist_to_rotations(f) for f in F])
        assert np.array_equal(dist_to_rotations_many(F), one)
        grid = np.ascontiguousarray(F.reshape(6, 10, n, n).transpose(1, 0, 2, 3))
        assert np.array_equal(dist_to_rotations_many(grid).T.ravel(), one)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dist_many_rejects_a_non_finite_matrix(bad):
    F = np.stack([np.eye(2)] * 4)
    F[2, 1, 0] = bad
    with pytest.raises(DimensionMismatch, match="non-finite"):
        dist_to_rotations_many(F)
    with pytest.raises(DimensionMismatch, match="non-finite"):
        dist_to_rotations(F[2])


def test_dist_many_validation():
    for shape in [(3,), (4, 2, 3), (5, 4, 4)]:
        with pytest.raises(DimensionMismatch):
            dist_to_rotations_many(np.ones(shape))
    with pytest.raises(DeterminantViolation):
        dist_to_rotations_many(np.stack([np.eye(3), np.diag([-2.0, 1.0, 1.0])]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]),
       shape=st.sampled_from([(1,), (7,), (3, 4)]))
def test_det_many_is_the_determinant_in_closed_form(seed, n, shape):
    rng = np.random.default_rng(seed)
    F = rng.normal(size=shape + (n, n))
    np.testing.assert_allclose(det_many(F), np.linalg.det(F), rtol=1e-12, atol=1e-14)
    # integer matrices, singular ones among them, exactly; a sign read
    # from the closed form is exact there
    Z = rng.integers(-2, 3, size=shape + (n, n)).astype(float)
    assert np.array_equal(det_many(Z), np.round(np.linalg.det(Z)))
    assert det_many(np.ones(shape + (n, n))).tolist() == np.zeros(shape).tolist()


def test_strain_simple_shear():
    g = 0.3
    F = np.array([[1.0, g], [0.0, 1.0]])
    expected = np.array([[0.0, g / 2], [g / 2, g * g / 2]])
    assert np.allclose(strain(F), expected, atol=1e-15)


def test_strain_vanishes_exactly_on_rotations():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        for _ in range(50):
            assert frob(strain(random_rotation(rng, n))) <= 1e-14


def test_sandwich_frozen_diagonal_case():
    # diag(2, 1/2): d^2 = 5/4, E = diag(3/2, -3/8), |E|^2 = 2.390625
    rep = strain_dist_sandwich(np.diag([2.0, 0.5]))
    assert rep.dist == pytest.approx(math.sqrt(1.25), abs=1e-14)
    assert rep.strain_norm == pytest.approx(math.sqrt(2.390625), abs=1e-14)
    assert 1.25 <= 2.0 * math.sqrt(2.0) * rep.strain_norm
    assert rep.all_ok


def test_sandwich_exact_at_identity_and_rotations():
    rep = strain_dist_sandwich(np.eye(3))
    assert rep.dist == 0.0 and rep.strain_norm == 0.0 and rep.all_ok
    rng = np.random.default_rng(43)
    for n in (2, 3):
        for _ in range(50):
            assert strain_dist_sandwich(random_rotation(rng, n)).all_ok


def test_sandwich_random_sweep_no_violations():
    rng = np.random.default_rng(47)
    for n in (2, 3):
        for _ in range(1000):
            rep = strain_dist_sandwich(random_gradient(rng, n))
            assert rep.all_ok
