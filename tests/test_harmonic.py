import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_cert import harmonic
from rigidity_cert.errors import (
    BadExponents,
    CubeOverflow,
    DegenerateFamily,
    DimensionMismatch,
    EmptyDomain,
)
from rigidity_cert.harmonic import (
    GridField,
    bmo_l1_norm,
    bmo_seminorm,
    cube_family,
    domain_mean,
    fit_interpolation_constant,
    fs_sharp,
    hl_maximal,
    interpolation_bound,
    interpolation_exponent,
    lp_mean_norm,
    oscillation_constant,
    rh_exponents,
    verify_interpolation,
    verify_pointwise_bounds,
)

from oracles import (
    bmo_bruteforce,
    cube_family_windows,
    enumerate_cubes,
    fs_sharp_bruteforce,
    fs_sharp_bruteforce_matrix,
    hl_maximal_bruteforce,
    hl_maximal_bruteforce_matrix,
)


def full_field(values):
    values = np.asarray(values, dtype=float)
    return GridField(np.ones(values.shape[:2], dtype=bool), values)


def l_mask(n):
    m = np.ones((n, n), dtype=bool)
    m[n // 2 :, n // 2 :] = False
    return m


def random_fields(rng, count, max_extent=16, matrix=False, masked=False):
    out = []
    for _ in range(count):
        shape = tuple(rng.integers(2, max_extent + 1, size=2))
        mask = np.ones(shape, dtype=bool)
        if masked and min(shape) >= 4 and rng.random() < 0.5:
            mask[shape[0] // 2 :, shape[1] // 2 :] = False
        vshape = shape + (2, 2) if matrix else shape
        vals = rng.normal(size=vshape)
        out.append(GridField(mask, vals))
    return out


# ---------------------------------------------------------------- fields

def test_grid_field_shape_validation():
    with pytest.raises(DimensionMismatch):
        GridField(np.ones((4, 4), dtype=bool), np.zeros((4, 5)))
    with pytest.raises(DimensionMismatch):
        GridField(np.ones(4, dtype=bool), np.zeros(4))
    bad = np.full((3, 3), np.nan)
    with pytest.raises(DimensionMismatch):
        GridField(np.ones((3, 3), dtype=bool), bad)


# ----------------------------------------------------------- cube family

def test_cube_count_formula_rectangles():
    for a, b in [(2, 2), (3, 2), (8, 8), (5, 7)]:
        fam = cube_family(full_field(np.zeros((a, b))))
        expected = sum(
            (a - s + 1) * (b - s + 1) for s in range(1, min(a, b) + 1)
        )
        assert fam.count == expected
    assert cube_family(full_field(np.zeros((2, 2)))).count == 5
    assert cube_family(full_field(np.zeros((3, 2)))).count == 8


def test_cube_family_matches_enumeration_on_l_shape():
    mask = l_mask(8)
    fam = cube_family(GridField(mask, np.zeros(mask.shape)))
    oracle = set(enumerate_cubes(mask))
    assert set(fam.at(slice(None))) == oracle
    # every cube really sits inside the mask
    for corner, side in fam.at(slice(None)):
        assert mask[corner[0] : corner[0] + side, corner[1] : corner[1] + side].all()


def test_cube_family_3d():
    mask = np.ones((3, 3, 3), dtype=bool)
    fam = cube_family(GridField(mask, np.zeros(mask.shape)))
    assert fam.count == 27 + 8 + 1
    assert set(fam.at(slice(None))) == set(enumerate_cubes(mask))


@st.composite
def _masks(draw):
    """2D and 3D masks: full boxes, boxes with holes cut out, and scattered
    cells, each with at least one cell."""
    ndim = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.lists(st.integers(1, 14 if ndim == 2 else 7),
                                min_size=ndim, max_size=ndim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) >= draw(st.sampled_from([0.0, 0.02, 0.1, 0.4]))
    for _ in range(draw(st.integers(0, 3))):
        lo = rng.integers(0, shape)
        mask[tuple(map(slice, lo, lo + rng.integers(1, 4, size=ndim)))] = False
    mask.flat[rng.integers(mask.size)] = True
    return mask


@settings(max_examples=150, deadline=None)
@given(_masks())
def test_cube_family_matches_the_sliding_window_enumeration(mask):
    # each side's cubes come from the previous side's by the 2^n cover,
    # in the order the sliding window finds them
    fam = harmonic._cube_family_of(mask.shape, mask.tobytes())
    for got, want in zip((fam.sides, fam.corners, fam.vertices), cube_family_windows(mask)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_empty_domain_rejected():
    with pytest.raises(EmptyDomain):
        GridField(np.zeros((4, 4), dtype=bool), np.zeros((4, 4)))


# ------------------------------------------------------- maximal functions

def test_hl_constant_field():
    fld = full_field(np.full((6, 5), -3.25))
    out = hl_maximal(fld)
    assert np.all(out.values == 3.25)


def test_hl_left_half_indicator_right_edge():
    # On the right edge the best containing cube maximizes overlap with the
    # left half; the value equals that overlap fraction.
    vals = np.zeros((8, 8))
    vals[:, :4] = 1.0
    fld = full_field(vals)
    out = hl_maximal(fld)
    oracle = hl_maximal_bruteforce(fld.mask, fld.values)
    assert np.array_equal(out.values, np.where(fld.mask, oracle, 0.0))
    # rightmost column: an 8-cube holds mean 1/2; nothing does better
    assert np.all(out.values[:, 7] == 0.5)


def test_maximal_functions_match_bruteforce_bitwise():
    rng = np.random.default_rng(101)
    for fld in random_fields(rng, 40, masked=True):
        star = hl_maximal(fld).values
        sharp = fs_sharp(fld).values
        m = fld.mask
        assert np.array_equal(star[m], hl_maximal_bruteforce(m, fld.values)[m])
        assert np.array_equal(sharp[m], fs_sharp_bruteforce(m, fld.values)[m])


def test_maximal_functions_match_bruteforce_matrix_fields():
    rng = np.random.default_rng(103)
    for fld in random_fields(rng, 10, max_extent=8, matrix=True):
        m = fld.mask
        assert np.array_equal(
            hl_maximal(fld).values[m], hl_maximal_bruteforce_matrix(m, fld.values)[m]
        )
        assert np.array_equal(
            fs_sharp(fld).values[m], fs_sharp_bruteforce_matrix(m, fld.values)[m]
        )


def test_pointwise_bounds_hold():
    rng = np.random.default_rng(107)
    for fld in random_fields(rng, 30, masked=True):
        rep = verify_pointwise_bounds(fld)
        assert rep.ok
    # dyadic rational inputs keep everything exactly representable
    vals = np.round(np.random.default_rng(0).uniform(size=(9, 9)) * 1024) / 1024
    assert verify_pointwise_bounds(full_field(vals)).ok


def test_pointwise_bounds_report_the_maximal_sups():
    # the sups are those of the maximal fields the bounds were checked on
    rng = np.random.default_rng(109)
    for fld in random_fields(rng, 10, masked=True) + random_fields(rng, 5, matrix=True):
        rep = verify_pointwise_bounds(fld)
        m = fld.mask
        assert rep.sharp_max == fs_sharp(fld).values[m].max()
        assert rep.maximal_sup == hl_maximal(fld).values[m].max()


def test_sharp_bmo_identity_exact():
    rng = np.random.default_rng(109)
    for fld in random_fields(rng, 30, masked=True):
        sharp = fs_sharp(fld)
        assert bmo_seminorm(fld) == sharp.values[fld.mask].max()


def test_bmo_left_half_indicator():
    vals = np.zeros((8, 8))
    vals[:, :4] = 1.0
    fld = full_field(vals)
    assert bmo_seminorm(fld) == pytest.approx(0.5, abs=1e-15)
    assert domain_mean(fld) == pytest.approx(0.5, abs=1e-15)
    assert bmo_l1_norm(fld) == pytest.approx(1.0, abs=1e-15)
    assert bmo_seminorm(fld) == bmo_bruteforce(fld.mask, fld.values)


def test_sharp_two_valued_square():
    # 2x2 lattice split {0, 1}: only the side-2 cube oscillates, giving 1/2
    vals = np.array([[0.0, 1.0], [0.0, 1.0]])
    out = fs_sharp(full_field(vals))
    assert np.all(out.values == 0.5)


def test_matrix_bmo_uses_frobenius_deviation():
    vals = np.zeros((2, 2, 2, 2))
    vals[:, 1] = np.eye(2)  # right column holds I, left column 0
    fld = full_field(vals)
    # side-2 cube: mean I/2, each deviation |I/2| = sqrt(2)/2
    assert bmo_seminorm(fld) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)


# ------------------------------------------- filter-then-refine vs oracles

_OVERFLOW = "overflow"


def _random_mask(rng, kind):
    """A mask with at least one cell: random holes, an L-shape, or 3D."""
    if kind == "l-shape":
        a, b = rng.integers(2, 8, size=2)
        mask = np.ones((a, b), dtype=bool)
        mask[a // 2 :, b // 2 :] = False
    else:
        shape = tuple(rng.integers(2, 5 if kind == "3d" else 8, size=3 if kind == "3d" else 2))
        mask = rng.random(shape) < 0.8
    mask.flat[rng.integers(mask.size)] = True
    return mask


def _random_values(rng, shape, k, kind, exponent=0):
    vshape = shape + (k, k) if k else shape
    if kind == "constant":
        return np.full(vshape, rng.normal())
    if kind == "near-constant":
        return 1.05 + 1e-15 * rng.normal(size=vshape)
    if kind == "ulp-spread":
        # cube averages a few ulps apart: float64 estimates misorder them
        return rng.normal() * (1.0 + rng.integers(0, 8, size=vshape) * 2.0**-52)
    if kind == "scaled":
        # up to 1e308: finite samples whose cube sums and squares can overflow
        return rng.uniform(-1.0, 1.0, size=vshape) * 10.0 ** exponent
    if kind == "offset":
        # c + s noise with |c| / s up to 1e12: the summed-area bound centres
        # the field, but the fsum cube means round relative to c
        s = 10.0 ** rng.uniform(-15.0, 15.0)
        c = s * 10.0 ** rng.uniform(0.0, 12.0) * rng.choice([-1.0, 1.0], size=vshape[len(shape):])
        return c + s * rng.normal(size=vshape)
    return rng.normal(size=vshape)


def _oracle(name, mask, values, matrix):
    """Brute-force value, or _OVERFLOW when it overflows or raises on overflow."""
    try:
        if name == "hl_maximal":
            out = (hl_maximal_bruteforce_matrix if matrix else hl_maximal_bruteforce)(mask, values)
        else:
            out = (fs_sharp_bruteforce_matrix if matrix else fs_sharp_bruteforce)(mask, values)
    except OverflowError:
        return _OVERFLOW
    out = out[mask]
    if not np.all(np.isfinite(out)):
        return _OVERFLOW
    if name == "bmo_seminorm":
        return float(out.max()) if matrix else bmo_bruteforce(mask, values)
    return out


def _package(name, fld):
    """The package's value, or _OVERFLOW when it raises CubeOverflow."""
    try:
        out = getattr(harmonic, name)(fld)
    except CubeOverflow:
        return _OVERFLOW
    if name == "bmo_seminorm":
        return out
    return out.values[fld.mask]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mask_kind=st.sampled_from(["holes", "l-shape", "3d"]),
    k=st.sampled_from([0, 2, 3]),
    value_kind=st.sampled_from(
        ["normal", "constant", "near-constant", "ulp-spread", "scaled", "offset"]),
    exponent=st.integers(-300, 308),
)
def test_cube_maxima_equal_oracles_bitwise(seed, mask_kind, k, value_kind, exponent):
    rng = np.random.default_rng(seed)
    mask = _random_mask(rng, mask_kind)
    values = _random_values(rng, mask.shape, k, value_kind, exponent)
    fld = GridField(mask, values)
    for name in ("bmo_seminorm", "fs_sharp", "hl_maximal"):
        want = _oracle(name, mask, fld.values, bool(k))
        got = _package(name, fld)
        if want is _OVERFLOW or got is _OVERFLOW:
            assert want is got, name
        else:
            assert np.array_equal(got, want), name


# scalar sums overflow inside fsum; 2x2 samples at 1e200 have finite sums
# but squares that overflow, in numpy and in the Frobenius cell norms
@pytest.mark.parametrize("k, scale", [(0, 1e308), (2, 1e200)])
def test_overflow_raises_one_typed_error(k, scale):
    rng = np.random.default_rng(5)
    shape = (4, 4) + ((k, k) if k else ())
    fld = GridField(np.ones((4, 4), dtype=bool), rng.uniform(-1.0, 1.0, size=shape) * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (bmo_seminorm, fs_sharp, hl_maximal):
            with pytest.raises(CubeOverflow, match=kernel.__name__):
                kernel(fld)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([0, 2, 3]),
       power=st.integers(-200, 200))
def test_bmo_positively_homogeneous_under_powers_of_two(seed, k, power):
    # scaling by 2^power is exact in every operation while nothing over- or
    # underflows, so the reported values scale exactly
    rng = np.random.default_rng(seed)
    mask = _random_mask(rng, "holes")
    fld = GridField(mask, _random_values(rng, mask.shape, k, "normal"))
    scaled = fld.with_values(fld.values * 2.0**power)
    assert bmo_seminorm(scaled) == 2.0**power * bmo_seminorm(fld)
    assert np.array_equal(fs_sharp(scaled).values, 2.0**power * fs_sharp(fld).values)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([0, 2]),
       mask_kind=st.sampled_from(["holes", "3d"]),
       pad=st.lists(st.integers(0, 3), min_size=6, max_size=6))
def test_measurements_invariant_under_lattice_translation(seed, k, mask_kind, pad):
    rng = np.random.default_rng(seed)
    mask = _random_mask(rng, mask_kind)
    fld = GridField(mask, _random_values(rng, mask.shape, k, "normal"))
    widths = [(pad[2 * i], pad[2 * i + 1]) for i in range(mask.ndim)]
    inner = tuple(slice(a, a + n) for (a, _), n in zip(widths, mask.shape))
    big = GridField(np.pad(mask, widths),
                    np.pad(fld.values, widths + [(0, 0)] * (fld.values.ndim - mask.ndim)))
    assert bmo_seminorm(big) == bmo_seminorm(fld)
    assert np.array_equal(fs_sharp(big).values[inner], fs_sharp(fld).values)
    assert np.array_equal(hl_maximal(big).values[inner], hl_maximal(fld).values)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([0, 2, 3]),
       mask_kind=st.sampled_from(["holes", "l-shape", "3d"]),
       shift=st.floats(-1e3, 1e3))
def test_bmo_invariant_under_adding_a_constant(seed, k, mask_kind, shift):
    # mean oscillation ignores constants; only rounding moves it.  With
    # u = 2^-53 and S = max|f| + |c| over the domain, each shifted sample
    # rounds once (u S), the exactly rounded cube mean moves by at most
    # 2 u S, each deviation by 8 u S after its own subtraction, and the
    # exactly rounded average by 4 u S more: 12 u S for scalars.  A k x k
    # sample's Frobenius deviation takes at most k times the entry error,
    # plus its square, fsum and sqrt roundings: under 20 k u S.  The
    # bound below leaves room for second-order terms.
    rng = np.random.default_rng(seed)
    mask = _random_mask(rng, mask_kind)
    fld = GridField(mask, _random_values(rng, mask.shape, k, "normal"))
    c = shift * (rng.normal(size=(k, k)) if k else 1.0)
    shifted = fld.with_values(fld.values + c)
    scale = float(np.abs(fld.values).max()) + float(np.abs(c).max())
    tol = 32 * max(k, 1) * 2.0**-53 * scale
    assert abs(bmo_seminorm(shifted) - bmo_seminorm(fld)) <= tol


def _count_refined(monkeypatch):
    calls = []
    exact = harmonic._cube_oscillation
    monkeypatch.setattr(harmonic, "_cube_oscillation",
                        lambda *args: calls.append(1) or exact(*args))
    return calls


def test_refine_recomputes_few_cubes_on_generic_fields(monkeypatch):
    fld = full_field(np.random.default_rng(157).normal(size=(12, 12, 2, 2)))
    calls = _count_refined(monkeypatch)
    bmo_seminorm(fld)
    assert 1 <= len(calls) <= 5 < cube_family(fld).count


def test_refine_recomputes_every_cube_on_constant_fields(monkeypatch):
    # every oscillation is 0, well inside the rounding bound, so no cube
    # can be ruled out
    fld = full_field(np.full((6, 5), 1.05))
    calls = _count_refined(monkeypatch)
    assert bmo_seminorm(fld) == 0.0
    assert len(calls) == cube_family(fld).count


def _pattern(shape, kind):
    idx = np.indices(shape)
    if kind == "checkerboard":
        return (idx.sum(axis=0) % 2).astype(float)
    return (idx[0] % int(kind[-1]) == 0).astype(float)  # stripes of period 2 or 3


@pytest.mark.parametrize("shape", [(12, 12), (12, 9), (5, 5, 5)])
@pytest.mark.parametrize("kind", ["checkerboard", "stripes-2", "stripes-3"])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_bmo_equals_oracle_when_many_cubes_tie(shape, kind, offset):
    # every even cube of a checkerboard oscillates by exactly 1/2, and
    # stripes repeat one oscillation along a whole row of cubes: many cubes
    # fall within the bounds of one another and of the maximum
    base = _pattern(shape, kind)
    mask = np.ones(shape, dtype=bool)
    scalar = GridField(mask, offset + base)
    assert bmo_seminorm(scalar) == _oracle("bmo_seminorm", mask, scalar.values, False)
    matrix = GridField(mask, offset + base[..., None, None] * np.array([[1.0, -2.0], [0.5, 3.0]]))
    assert bmo_seminorm(matrix) == _oracle("bmo_seminorm", mask, matrix.values, True)


def test_summed_area_bound_prunes_most_cubes_before_the_estimate(monkeypatch):
    fld = full_field(np.random.default_rng(163).normal(size=(16, 16, 2, 2)))
    estimated = []
    estimate = harmonic._side_estimates
    monkeypatch.setattr(harmonic, "_side_estimates",
                        lambda X, side, corners, osc: estimated.append(len(corners))
                        or estimate(X, side, corners, osc))
    bmo_seminorm(fld)
    assert 1 <= sum(estimated) < 0.1 * cube_family(fld).count


def test_cube_family_cached_per_mask():
    mask = l_mask(6)
    a = GridField(mask, np.zeros(mask.shape))
    b = GridField(mask.copy(), np.ones(mask.shape))
    assert cube_family(a) is cube_family(b)
    assert cube_family(full_field(np.zeros((6, 6)))) is not cube_family(a)


# ------------------------------------------------------------- inequalities

def test_interpolation_fit_degenerate_family():
    zero = full_field(np.zeros((4, 4)))
    with pytest.raises(DegenerateFamily):
        fit_interpolation_constant([zero, zero], 2.0, 3.0)


def test_rh_exponents_exact_thirds():
    ex_bmo, ex_p = rh_exponents(2.0, 3.0)
    assert ex_bmo == Fraction(1, 3)
    assert ex_p == Fraction(2, 3)
    # 1/2 = theta + (1 - theta)/3 forces theta = 1/4
    theta = interpolation_exponent(2.0, 3.0)
    assert theta == Fraction(1, 4)


def test_bad_exponents_rejected():
    fld = full_field(np.ones((3, 3)))
    for p, q in [(3.0, 2.0), (2.0, 2.0), (0.5, 2.0)]:
        with pytest.raises(BadExponents):
            rh_exponents(p, q)
        with pytest.raises(BadExponents):
            verify_interpolation(fld, p, q, 1.0)


def test_infinite_exponents_rejected():
    # an infinite p used to give lp_mean_norm 1.0 for every field, and an
    # infinite q a bare OverflowError from Fraction(inf)
    fld = full_field(np.full((3, 3), 5.0))
    for p in (math.inf, math.nan, 0.5):
        with pytest.raises(BadExponents, match="need 1 <= p < inf"):
            harmonic.lp_mean_norm(fld, p)
    with pytest.raises(BadExponents, match=r"need 1 <= p < q < inf, got p=2.0, q=inf"):
        rh_exponents(2.0, math.inf)
    for p, q in [(1.0, math.inf), (math.inf, math.inf), (math.nan, 2.0), (1.0, math.nan)]:
        with pytest.raises(BadExponents, match="interpolation_exponent"):
            harmonic.interpolation_exponent(p, q)
        with pytest.raises(BadExponents, match="verify_interpolation"):
            verify_interpolation(fld, p, q, 1.0)
    assert harmonic.lp_mean_norm(fld, 2.0) == 5.0


def test_interpolation_equality_for_constant_fields():
    fld = full_field(np.full((5, 5), 2.5))
    # both bounds are equalities for constants; J2 = 1 is then exact
    assert verify_interpolation(fld, 2.0, 3.0, 1.0)
    assert lp_mean_norm(fld, 2.0) == pytest.approx(2.5)
    assert bmo_l1_norm(fld) == pytest.approx(2.5)


def test_fit_then_verify_interpolation_family():
    rng = np.random.default_rng(131)
    fields = random_fields(rng, 60, max_extent=12, masked=True)
    for p, q in [(1.5, 3.0), (2.0, 3.0), (2.0, 4.0)]:
        J2 = fit_interpolation_constant(fields, p, q)
        assert math.isfinite(J2) and J2 > 0
        assert all(verify_interpolation(f, p, q, J2) for f in fields)
        # understating J2 must be caught
        worst = max(
            lp_mean_norm(f, q)
            / (bmo_l1_norm(f) ** float(rh_exponents(p, q)[0]) * lp_mean_norm(f, p) ** float(rh_exponents(p, q)[1]))
            for f in fields
        )
        assert not all(verify_interpolation(f, p, q, worst * 0.5) for f in fields)


def test_verify_interpolation_takes_each_norm_once(monkeypatch):
    calls = {}
    original = harmonic.lp_mean_norm

    def counted(fld, p):
        calls[p] = calls.get(p, 0) + 1
        return original(fld, p)

    monkeypatch.setattr(harmonic, "lp_mean_norm", counted)
    fld = random_fields(np.random.default_rng(139), 1)[0]
    assert verify_interpolation(fld, 2.0, 3.0, 10.0)
    assert calls == {3.0: 1, 2.0: 1, 1.0: 1}


def test_interpolation_bound_unconditional_sweep():
    rng = np.random.default_rng(137)
    for fld in random_fields(rng, 100, max_extent=10, masked=True):
        theta = float(interpolation_exponent(2.0, 3.0))
        lhs = lp_mean_norm(fld, 2.0)
        rhs = lp_mean_norm(fld, 1.0) ** theta * lp_mean_norm(fld, 3.0) ** (1 - theta)
        assert lhs <= rhs * (1 + 1e-12)


# ------------------------------------------------ the proved J2 of a lattice

def ring_mask(n, wall):
    m = np.ones((n, n), dtype=bool)
    m[wall : n - wall, wall : n - wall] = False
    return m


def _bound_mask(rng, kind):
    if kind == "square":
        n = int(rng.integers(1, 9))
        return np.ones((n, n), dtype=bool)
    if kind == "rectangle":
        return np.ones((8, 4), dtype=bool)
    if kind == "l-shape":
        return l_mask(int(rng.choice([4, 6, 8])))
    if kind == "ring":
        n = int(rng.choice([8, 12]))
        return ring_mask(n, n // 4)
    n = int(rng.integers(1, 6))
    return np.ones((n, n, n), dtype=bool)


def _bound_field(rng, mask, kind):
    x = np.indices(mask.shape).astype(float)
    if kind == "normal":
        return rng.normal(size=mask.shape) * rng.uniform(0.1, 10.0) + rng.normal()
    if kind == "spike":
        values = np.zeros(mask.shape)
        cells = np.argwhere(mask)
        values[tuple(cells[rng.integers(len(cells))])] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5)
        return values
    if kind == "ramp":
        return np.tensordot(rng.normal(size=mask.ndim), x, axes=1) + rng.normal()
    # the angle about the centre of the domain: on a ring it winds once
    centre = (np.array(mask.shape) - 1.0) / 2.0
    return np.arctan2(x[1] - centre[1], x[0] - centre[0])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       mask_kind=st.sampled_from(["square", "rectangle", "l-shape", "ring", "cube"]),
       field_kind=st.sampled_from(["normal", "spike", "ramp", "angle"]))
def test_the_proved_bounds_hold_for_every_field(seed, mask_kind, field_kind):
    # |psi(x) - mean psi| <= C ||psi||_BMO at every cell, and the
    # reverse-Hoelder inequality with the proved J2
    rng = np.random.default_rng(seed)
    mask = _bound_mask(rng, mask_kind)
    fld = GridField(mask, _bound_field(rng, mask, field_kind))
    C = oscillation_constant(mask)
    assert math.isfinite(C)
    gap = np.abs(fld.values[mask] - domain_mean(fld)).max()
    assert gap <= C * bmo_seminorm(fld) * (1.0 + 1e-12) + 1e-12 * np.abs(fld.values).max()
    assert verify_interpolation(fld, 2.0, 3.0, interpolation_bound(mask, 2.0, 3.0))


@pytest.mark.parametrize("n, J2", [(6, 2.172), (12, 2.401), (16, 2.489), (32, 2.676),
                                   (64, 2.840)])
def test_the_bound_on_a_square_is_its_chain_of_sides(n, J2):
    # on a cube domain C is the cheapest chain of nested squares, and
    # J2 = C^(1/3); at 6 the chain 6 -> 4 -> 2 -> 1 (or 6 -> 3 -> 2 -> 1)
    # costs 2.25 + 4 + 4 = 10.25
    mask = np.ones((n, n), dtype=bool)
    assert interpolation_bound(mask, 2.0, 3.0) == pytest.approx(J2, abs=5e-4)
    if n == 6:
        assert oscillation_constant(mask) == pytest.approx(10.25, rel=1e-12)
        assert oscillation_constant(mask) >= 10.25


@pytest.mark.parametrize("mask, J2", [
    (np.ones((8, 4), dtype=bool), 3.130),
    (l_mask(8), 3.223),
    (ring_mask(8, 2), 5.149),
    (np.ones((6, 6, 6), dtype=bool), 2.577),
])
def test_the_bound_on_other_lattices(mask, J2):
    # the first three walk the overlaps of their maximal squares
    assert interpolation_bound(mask, 2.0, 3.0) == pytest.approx(J2, abs=5e-4)


def test_a_one_cell_neck_has_no_finite_bound():
    # two 3x3 blocks joined by one cell: no square holds the neck and a
    # cell of a block, so a field constant on each piece has BMO seminorm
    # 0 without being constant, and inf is the exact constant
    mask = np.zeros((7, 3), dtype=bool)
    mask[:3] = mask[4:] = True
    mask[3, 1] = True
    assert oscillation_constant(mask) == math.inf
    assert interpolation_bound(mask, 2.0, 3.0) == math.inf
    steps = GridField(mask, np.repeat(np.array([0.0, 0, 0, 1, 2, 2, 2])[:, None], 3, axis=1))
    assert bmo_seminorm(steps) == 0.0 and np.ptp(steps.values[mask]) > 0.0
    assert oscillation_constant(ring_mask(8, 1)) == math.inf


def test_the_bound_is_cached_by_mask():
    mask = l_mask(12)
    before = harmonic._oscillation_constant_of.cache_info().hits
    first = oscillation_constant(mask)
    assert oscillation_constant(mask.copy()) == first
    assert interpolation_bound(mask, 2.0, 3.0) == interpolation_bound(mask.copy(), 2.0, 3.0)
    assert harmonic._oscillation_constant_of.cache_info().hits >= before + 3
