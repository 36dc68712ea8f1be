"""Discrete maximal functions and BMO measurements on lattice cell fields.

A field lives on an axis-aligned lattice domain: a boolean mask selects
which cells belong to the body, and each cell carries one sample (scalar
or square matrix).  Integrals are cell sums, so every average below is an
honest finite average and the cube suprema are exact maxima.

Every reported cube statistic is the math.fsum value: the correctly
rounded sum, whatever the iteration order.  That makes every statistic
reproducible bit for bit and lets independent re-implementations agree
exactly.  The maxima over cubes get there by filter then refine: cubes are
estimated in plain float64 with a rigorous bound on the distance to their
fsum value, and fsum recomputes only the cubes that can hold the maximum.
bmo_seminorm runs three stages: a rigorous upper bound on every cube's
oscillation at once, from summed-area tables of the field and of its
squared norm; the float64 estimate, only for the cubes whose upper bound
reaches a lower bound on the maximum; then fsum.
"""
from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadExponents, CubeOverflow, DegenerateFamily, DimensionMismatch, EmptyDomain

__all__ = [
    "GridField",
    "CubeFamily",
    "cube_family",
    "oscillation_constant",
    "interpolation_bound",
    "hl_maximal",
    "fs_sharp",
    "bmo_seminorm",
    "bmo_l1_norm",
    "domain_mean",
    "lp_mean_norm",
    "verify_pointwise_bounds",
    "PointwiseBoundsReport",
    "fit_interpolation_constant",
    "verify_interpolation",
    "rh_exponents",
    "interpolation_exponent",
]

_REL_SLACK = 1e-12


@dataclass(frozen=True)
class GridField:
    """One sample per lattice cell over a masked axis-aligned domain.

    values has shape mask.shape for scalar fields or mask.shape + (k, k)
    with k in {2, 3} for matrix fields.  Entries outside the mask are
    normalized to zero.  spacing and origin carry physical placement and
    never enter averages, which keeps every measurement scale invariant.
    """

    mask: np.ndarray
    values: np.ndarray
    spacing: float = 1.0
    origin: tuple = ()

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim not in (2, 3):
            raise DimensionMismatch(f"GridField: mask must be 2D or 3D, got {mask.ndim}D")
        if not mask.any():
            raise EmptyDomain("GridField: mask selects no cells")
        values = np.asarray(self.values, dtype=float)
        if values.shape == mask.shape:
            pass
        elif (
            values.ndim == mask.ndim + 2
            and values.shape[: mask.ndim] == mask.shape
            and values.shape[-1] == values.shape[-2]
            and values.shape[-1] in (2, 3)
        ):
            pass
        else:
            raise DimensionMismatch(
                f"GridField: values shape {values.shape} does not fit mask {mask.shape}"
            )
        if not np.all(np.isfinite(values[mask])):
            raise DimensionMismatch("GridField: non-finite sample inside the domain")
        values = values.copy()
        values[~mask] = 0.0
        origin = tuple(self.origin) if self.origin else (0.0,) * mask.ndim
        if len(origin) != mask.ndim:
            raise DimensionMismatch("GridField: origin length does not match mask rank")
        if not self.spacing > 0:
            raise DimensionMismatch("GridField: spacing must be positive")
        mask.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "origin", origin)

    @property
    def is_matrix(self) -> bool:
        return self.values.ndim == self.mask.ndim + 2

    @property
    def ncells(self) -> int:
        return int(self.mask.sum())

    def with_values(self, values) -> "GridField":
        return GridField(self.mask, values, self.spacing, self.origin)

    def cell_norms(self) -> np.ndarray:
        """Per-cell |sample|: abs for scalars, Frobenius for matrices.

        Matrix norms use sqrt of an fsum of squares so they are exactly
        rounded and reproducible.
        """
        if not self.is_matrix:
            return np.abs(self.values)
        out = np.zeros(self.mask.shape)
        rows = self.values.reshape(self.mask.shape + (-1,))[self.mask].tolist()
        out[self.mask] = [math.sqrt(fsum(c * c for c in row)) for row in rows]
        return out


@dataclass(frozen=True, eq=False)
class CubeFamily:
    """Every axis-aligned lattice cube contained in a domain.

    Cube i has corner corners[i] and side sides[i]: sides ascending and
    corners in row-major order within each side, so the order is
    canonical.  vertices[v, i] is the flat index of vertex v of cube i in a
    zero-padded prefix-sum array of shape shape + 1, vertices in the order
    of _VERTEX_SIGNS.
    """

    shape: tuple
    sides: np.ndarray = field(repr=False)
    corners: np.ndarray = field(repr=False)
    vertices: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.sides)

    @property
    def max_side(self) -> int:
        return int(self.sides.max(initial=0))

    def at(self, positions):
        """(corner, side) pairs of the cubes at positions, in that order."""
        return zip(map(tuple, self.corners[positions].tolist()), self.sides[positions].tolist())


def _window(corner, side):
    return tuple(slice(c, c + side) for c in corner)


def cube_family(fld: GridField) -> CubeFamily:
    """Enumerate all lattice cubes fully inside the domain mask.

    Families are cached by mask, so every field on one domain shares one.
    """
    return _cube_family_of(fld.mask.shape, fld.mask.tobytes())


# per rank: the 0/1 offsets of a cube's vertices, and the inclusion-exclusion
# sign of each, so that a box sum is sum_v sign_v P[corner + side * offset_v]
# for the zero-padded prefix sums P
_VERTEX_OFFSETS = {d: np.array(list(itertools.product((0, 1), repeat=d))) for d in (2, 3)}
_VERTEX_SIGNS = {d: (-1.0) ** (d - offsets.sum(axis=1)) for d, offsets in _VERTEX_OFFSETS.items()}


@functools.lru_cache(maxsize=16)
def _cube_family_of(shape: tuple, mask_bytes: bytes) -> CubeFamily:
    mask = np.frombuffer(mask_bytes, dtype=bool).reshape(shape)
    ndim = mask.ndim
    sides, corners = [], []
    for side in range(1, min(shape) + 1):
        windows = sliding_window_view(mask, (side,) * ndim)
        found = np.argwhere(windows.all(axis=tuple(range(-ndim, 0))))
        sides.append(np.full(len(found), side))
        corners.append(found)
    sides, corners = np.concatenate(sides), np.concatenate(corners)
    if not len(sides):
        raise EmptyDomain("cube_family: no cube fits in the domain")
    # C-order strides of the padded prefix array
    strides = np.cumprod((1,) + tuple(n + 1 for n in shape[:0:-1]))[::-1]
    vertices = (_VERTEX_OFFSETS[ndim] @ strides)[:, None] * sides + corners @ strides
    for a in (sides, corners, vertices):
        a.setflags(write=False)
    return CubeFamily(shape=shape, sides=sides, corners=corners, vertices=vertices)


# ------------------------------------------------ the interpolation bound
#
# A field psi on the cells of a domain Omega in Z^n, B its BMO seminorm
# (the largest mean oscillation over the cube family), psi_Q its average
# over a cube Q and m its domain average.  The telescoping step of
# John-Nirenberg (F. John and L. Nirenberg, Comm. Pure Appl. Math. 14
# (1961) 415-426) bounds |psi(x) - m| <= C B at every cell x, with C a
# function of the mask alone:
#   * Nested cubes.  For cubes R inside Q, |psi_R - psi_Q| <= (1/|R|)
#     sum_R |psi - psi_Q| <= (|Q| / |R|) B.  A cube of side s holds, for
#     every t < s and every cell x in it, a cube of side t holding x, and
#     a cell is the cube of side 1 whose average is psi(x).  So a chain of
#     sides s = s_0 > s_1 > ... > s_K = 1 gives |psi(x) - psi_Q| <=
#     sum_k (s_k / s_(k+1))^n B for x in Q, and the cheapest chain is
#     C_s = min_(t < s) (s / t)^n + C_t, C_1 = 0.
#   * Overlaps.  Every cube lies in a maximal cube, one inside no larger
#     cube of the family.  Two maximal cubes M, M' that share a cell share
#     the largest cube R of their intersection, so |psi_M - psi_M'| <=
#     (|M| + |M'|) / |R| B.  With D(M) the shortest path over such steps
#     from a root M_0 (the first maximal cube of the largest side), and
#     D_x = min over the maximal M holding x of D(M) + C_side(M),
#     |psi(x) - psi_(M_0)| <= D_x B.
#   * The domain mean.  The cells of M_0 deviate from psi_(M_0) by zero
#     in sum, so m - psi_(M_0) = (1/|Omega|) sum_(y not in M_0) (psi(y) -
#     psi_(M_0)), and
#       C = max_x D_x + (1/|Omega|) sum_(y not in M_0) D_y.
#     On a cube domain M_0 is the domain, the sum is empty and C = C_N.
#   * Interpolation.  ||psi||_inf <= |m| + C B <= max(C, 1) ||psi||_{BMO+L1},
#     and with domain averages ||psi||_q^q <= ||psi||_inf^(q-p) ||psi||_p^p,
#     so J2 = max(C, 1)^(1 - p/q) bounds the reverse-Hoelder constant of
#     every field on the domain, scalar or matrix (Frobenius norms).
#   * A disconnected overlap graph gives C = inf, and that is exact: a
#     field constant on the cells of each component has B = 0.
#
# Rounding: every term is nonnegative and every step is a quotient of exact
# integers, a sum or a min, so the float64 C is the exact value of the same
# chains to within relative g(K), K = 2 (maximal cubes + largest side) +
# cells + 4, the most roundings any one term passes through.  The pow of
# J2 adds a rounding and the exponent's, u (1 - p/q) ln C.  Both are taken
# with the factor 4 of headroom of the comment below.

def _chain_constants(top, ndim):
    """C_s of the comment above for s = 0..top (C_0 unused)."""
    chain = np.zeros(top + 1)
    for s in range(2, top + 1):
        t = np.arange(1, s)
        chain[s] = (float(s ** ndim) / (t ** ndim) + chain[1:s]).min()
    return chain


def _maximal_cubes(family):
    """(sides, corners) of the cubes of the family inside no larger one:
    those inside no cube one side larger, whose corners lie one step back
    along some of the axes."""
    fits = {}
    for side, part in _side_runs(family.sides):
        grid = np.zeros(tuple(n - side + 1 for n in family.shape), dtype=bool)
        grid[tuple(family.corners[part].T)] = True
        fits[side] = grid
    sides, corners = [], []
    for side, grid in fits.items():
        if side + 1 in fits:
            grid = grid & ~_box_reduce(np.pad(fits[side + 1], 1), 2, np.max)
        found = np.argwhere(grid)
        sides.append(np.full(len(found), side))
        corners.append(found)
    return np.concatenate(sides), np.concatenate(corners)


def _overlap_reach(sides, corners, root):
    """Shortest paths from the cube root over the steps (|M| + |M'|) / |R|
    between the maximal cubes that share a cell, R the largest cube of
    their intersection (Bellman-Ford, one sweep over every step at once
    until none shortens a path); inf for a cube no path reaches."""
    m, ndim = corners.shape
    ends = corners + sides[:, None]
    volume = sides.astype(float) ** ndim
    rows, cols, costs = [], [], []
    step = max(1, _CHUNK // (m * ndim))
    for lo in range(0, m, step):
        # side of the largest cube in each intersection, <= 0 if empty (a
        # cube's step to itself never shortens a path)
        side = (np.minimum(ends[lo:lo + step, None], ends)
                - np.maximum(corners[lo:lo + step, None], corners)).min(axis=-1)
        i, j = np.nonzero(side > 0)
        costs.append((volume[i + lo] + volume[j]) / side[i, j].astype(float) ** ndim)
        rows.append(i + lo)
        cols.append(j)
    rows, cols, costs = (np.concatenate(a) for a in (rows, cols, costs))
    reach = np.full(m, np.inf)
    reach[root] = 0.0
    while True:
        shorter = reach.copy()
        np.minimum.at(shorter, cols, reach[rows] + costs)
        if np.array_equal(shorter, reach):
            return reach
        reach = shorter


def oscillation_constant(mask) -> float:
    """C with |psi(x) - mean psi| <= C ||psi||_BMO at every cell x, for
    every field psi on the domain mask selects (see the comment above):
    inf when the domain's maximal cubes do not overlap into one piece.
    Cached by mask."""
    mask = np.asarray(mask, dtype=bool)
    return _oscillation_constant_of(mask.shape, mask.tobytes())


@functools.lru_cache(maxsize=16)
def _oscillation_constant_of(shape: tuple, mask_bytes: bytes) -> float:
    mask = np.frombuffer(mask_bytes, dtype=bool).reshape(shape)
    sides, corners = _maximal_cubes(_cube_family_of(shape, mask_bytes))
    root = int(np.argmax(sides))
    reach = _overlap_reach(sides, corners, root)
    if not np.isfinite(reach).all():
        return math.inf
    chain = _chain_constants(int(sides.max()), mask.ndim)
    cell = np.full(shape, np.inf)
    for side, part in _side_runs(sides):
        grid = np.full(tuple(n - side + 1 for n in shape), np.inf)
        grid[tuple(corners[part].T)] = reach[part] + chain[side]
        grid = np.pad(grid, side - 1, constant_values=np.inf)
        np.minimum(cell, _box_reduce(grid, side, np.min), out=cell)
    outside = mask.copy()
    outside[_window(corners[root], sides[root])] = False
    C = cell[mask].max() + cell[outside].sum() / mask.sum()
    K = 2 * (len(sides) + int(sides.max())) + int(mask.sum()) + 4
    return float(C * (1.0 + 4.0 * _gamma(K)))


def interpolation_bound(mask, p: float, q: float) -> float:
    """J2 with ||psi||_q <= J2 ||psi||_{BMO+L1}^(1-p/q) ||psi||_p^(p/q) for
    every field psi on the domain mask selects, proved from the lattice
    (the comment above): max(C, 1)^(1-p/q), C = oscillation_constant(mask),
    rounded up.  inf when C is."""
    e = float(rh_exponents(p, q)[0])
    C = max(oscillation_constant(mask), 1.0)
    return C ** e * (1.0 + 4.0 * _U * (2.0 + e * math.log(C)))


def _stacked(fld: GridField) -> np.ndarray:
    """Samples as mask.shape + (K,), K = 1 for scalar fields."""
    return fld.values.reshape(fld.mask.shape + (-1,))


def _component_views(fld: GridField):
    """List of scalar component arrays (one for scalar fields)."""
    stacked = _stacked(fld)
    return [stacked[..., i] for i in range(stacked.shape[-1])]


def _cube_mean(components, corner, side):
    """Componentwise cube average, exactly rounded per component."""
    w = _window(corner, side)
    return [fsum(comp[w].ravel()) / comp[w].size for comp in components]


def _cube_oscillation(components, corner, side, mean):
    """Average Frobenius deviation from the cube mean, exactly rounded."""
    w = _window(corner, side)
    blocks = [comp[w].ravel() for comp in components]
    count = blocks[0].size
    if len(blocks) == 1:
        return fsum(abs(v - mean[0]) for v in blocks[0]) / count
    devs = []
    for k in range(count):
        devs.append(math.sqrt(fsum((b[k] - m) * (b[k] - m) for b, m in zip(blocks, mean))))
    return fsum(devs) / count


def _cube_average(norms, corner, side):
    """Cube average of |sample|, exactly rounded."""
    w = _window(corner, side)
    return fsum(norms[w].ravel()) / norms[w].size


# ------------------------------------------------ filter-then-refine kernel
#
# The cube maxima below are exact maxima of the fsum values computed by the
# helpers above.  Each cube first gets a float64 estimate `est` and a bound
# `err` >= |est - fsum value|; only cubes with est + err at or above a lower
# bound on the maximum they compete for are recomputed with fsum.  The true
# maximiser always passes, so every output is the fsum value bit for bit.
# bmo_seminorm puts a cheaper stage first: an upper bound on the fsum value
# of every cube at once, from summed-area tables, so that only the cubes
# whose upper bound reaches a lower bound on the maximum are estimated.
#
# The bound.  u = 2^-53, eta = 2^-1074 (smallest subnormal) and
# g(k) = k u / (1 - k u).  A cube has N cells x_j with K components each.
# While every |x| < 2^480 nothing can overflow (the largest intermediate,
# a sum of squares, stays below 2^1000), so only rounding and underflow
# need bounding:
#   * Any float64 sum of N terms, in any order, is off by at most
#     g(N-1) sum|x| (Higham, Accuracy and Stability, ch. 4); fsum is off by
#     at most u |sum|.  A product or quotient is off by u relative plus
#     eta/2 absolute (underflow); a sum, difference or square root has no
#     absolute term.
#   * Means.  With A_c = sum_j |x_jc| / N, both the estimated and the fsum
#     mean are within g(N+1) A_c + eta/2 of the exact mean mu_c, so they
#     differ by E = 2 g(N+1) sum_c A_c + K eta at most.  The float64 mean
#     of |x| gives sum_c A_c <= (sum_c Ahat_c + K eta) / (1 - g(N+1)).
#   * Oscillation.  D(m) = (1/N) sum_j |x_j - m| (abs, or Frobenius norm)
#     is 1-Lipschitz in m, so the two means move it by E at most.  For a
#     fixed float mean m, both paths compute D(m) to within relative
#     rho = g(N+K+4) (difference, square, K-term sum, sqrt, N-term sum,
#     division) plus tau absolute: eta for scalars, and for matrices
#     2 sqrt(K eta) + eta, from squares that underflow and the sqrt that
#     follows.  Hence, with o the estimate,
#       |o - fsum value| <= E + 2 tau + rho (2 D(mhat) + E),
#       D(mhat) <= (o + tau) / (1 - rho).
#   * Average of |x| (the Hardy-Littlewood kernel, nonnegative terms):
#       |o - fsum value| <= g(N+2) (o + eta) / (1 - g(N+2)) + eta.
#
# The summed-area bound (Crow, SIGGRAPH 1984).  By Cauchy-Schwarz the mean
# oscillation about the exact mean is at most the root mean square
# deviation, D(mu) <= sqrt(V), V = (1/N) sum_j |x_j - mu|^2, and V needs
# only the cube sums of x and of |x|^2.  Those come from zero-padded prefix
# sums P: a cube sum is the signed sum of P at the cube's 2^d vertices
# (d = ndim, n_1..n_d the extents of the domain).
#   * Centring.  V does not change under a shift, so the field is centred
#     on its domain mean c first, C_j = fl(x_j - c), and V does not cancel.
#     With y_j = x_j - c exactly, |C_j - y_j| <= g(1) |C_j|, so
#       D(mu) <= D_C + 2 g(1) (1/N) sum_j |C_j| <= sqrt(V_C) + 2 g(1) sqrt(a),
#     D_C and V_C those of C and a >= (1/N) sum_j |C_j|^2.
#   * Prefix sums.  An entry of P adds up its prefix box one axis at a
#     time, so each term passes through fewer than n_1 + ... + n_d
#     additions: the entry is off by g(n_1 + ... + n_d) times the sum of
#     the |terms| of its prefix, which only the total T over the whole
#     domain bounds, not anything of the cube.  The signed sum of 2^d
#     entries adds g(2^d) of their magnitudes, so each cube sum S is off
#     by at most t = 2^d g(n_1 + ... + n_d + 2^d) T, for each component c
#     of C (S_c, t_c) and for q_j = fl(|C_j|^2) >= (1 - g(K)) |C_j|^2 - K eta
#     (S_q, t_q).  Hence
#       a = (S_q + t_q + N K eta) / ((1 - g(K)) N) >= (1/N) sum_j |C_j|^2,
#       b = sum_c max(|S_c| - t_c, 0)^2 / N^2 <= |(1/N) sum_j C_j|^2,
#       V_C <= a - b,
#     and a - b formed in float64 is off by at most g(K+7) (a + b).
#   * The fsum value.  The fsum mean is within g(2) |mu_c| + eta/2 of mu_c,
#     a rounding relative to the uncentred samples, not to C: so with
#     M = sum_c max_j |x_jc| over the domain, E' = g(2) M + K eta/2 and rho,
#     tau as above (rho taken at the family's largest N covers every cube),
#       fsum value <= (1 + rho) (sqrt(a - b) + 2 g(1) sqrt(a) + E') + tau.
#
# Every bound is evaluated with a factor 4 of headroom, which covers the
# roundings made in evaluating it and in forming est +- err; in the
# summed-area bound, 1 + 4 rho does the same for the factor 1 + rho.  Above
# the 2^480 guard every cube is refined; a side whose estimates come out
# non-finite has err = inf, and the whole side is refined.

_U = 2.0 ** -53
_ETA = 2.0 ** -1074
_TAME = 2.0 ** 480
_CHUNK = 1 << 16  # floats per filter block; bounds the filter's memory


def _gamma(k):
    return k * _U / (1.0 - k * _U)


def _tau(K):
    """Absolute rounding of D(m) from underflow: see the comment above."""
    return _ETA if K == 1 else 2.0 * math.sqrt(K * _ETA) + _ETA


def _side_estimates(X, side, corners, oscillation):
    """est and err for the cubes of one side: mean oscillations, or with
    oscillation=False averages of a one-component X.  X has shape
    mask.shape + (K,)."""
    ndim = corners.shape[1]
    K = X.shape[-1]
    N = side ** ndim
    windows = sliding_window_view(X, (side,) * ndim, axis=tuple(range(ndim)))
    est = np.empty(len(corners))
    mag = np.empty(len(corners))
    step = max(1, _CHUNK // (K * N))
    for lo in range(0, len(corners), step):
        part = slice(lo, lo + step)
        blk = windows[tuple(corners[part].T)].reshape(-1, K, N)
        if not oscillation:
            est[part] = blk[:, 0].sum(axis=-1) / N
            continue
        mean = blk.sum(axis=-1) / N
        mag[part] = (np.abs(blk).sum(axis=-1) / N).sum(axis=-1)
        dev = blk - mean[..., None]
        if K == 1:
            dev = np.abs(dev[:, 0])
        else:
            dev = np.sqrt((dev * dev).sum(axis=1))
        est[part] = dev.sum(axis=-1) / N
    if not oscillation:
        g = _gamma(N + 2)
        return est, 4.0 * (g * (est + _ETA) / (1.0 - g) + _ETA)
    g, rho, tau = _gamma(N + 1), _gamma(N + K + 4), _tau(K)
    E = 2.0 * g * (mag + K * _ETA) / (1.0 - g) + K * _ETA
    return est, 4.0 * (E + 2.0 * tau + rho * (2.0 * (est + tau) / (1.0 - rho) + E))


def _variance_bounds(X, mask, family):
    """An upper bound on the fsum mean oscillation of every cube of the
    family, from summed-area tables of the centred field and of its
    squared norm.  X has shape mask.shape + (K,)."""
    ndim, K = mask.ndim, X.shape[-1]
    cells = tuple(range(ndim))
    # zero-padded prefix sums of the K components of C, then of q = |C|^2
    P = np.zeros(tuple(n + 1 for n in mask.shape) + (K + 1,))
    data = P[(slice(1, None),) * ndim]
    C = data[..., :K]
    np.subtract(X, X.sum(axis=cells) / mask.sum(), out=C)
    C[~mask] = 0.0
    np.einsum("...k,...k->...", C, C, out=data[..., K])
    t = 4.0 * 2 ** ndim * _gamma(sum(mask.shape) + 2 ** ndim) * np.abs(data).sum(axis=cells)
    for axis in cells:
        np.cumsum(data, axis=axis, out=data)
    at_vertices = P.reshape(-1, K + 1).take(family.vertices, axis=0)
    S = np.einsum("v,vck->ck", _VERTEX_SIGNS[ndim], at_vertices)
    N = family.sides.astype(float) ** ndim
    low = np.maximum(np.abs(S[:, :K]) - t[:K], 0.0)
    a = (S[:, K] + t[K] + N * K * _ETA) / ((1.0 - _gamma(K)) * N)
    b = np.einsum("ck,ck->c", low, low) / (N * N)
    e = 4.0 * _gamma(K + 7)
    rms = np.sqrt((1.0 + e) * a - (1.0 - e) * b)
    slack = 4.0 * (_gamma(2) * np.abs(X).max(axis=cells).sum() + K * _ETA)
    rho = _gamma(family.max_side ** ndim + K + 4)
    return (1.0 + 4.0 * rho) * (rms + 8.0 * _gamma(1) * np.sqrt(a) + slack) + 4.0 * _tau(K)


def _side_runs(sides):
    """(side, slice) for each run of one side in an ascending sides array."""
    cuts = [0, *(np.flatnonzero(np.diff(sides)) + 1).tolist(), len(sides)]
    return [(int(sides[lo]), slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def _estimate_bounds(X, family, pos, oscillation):
    """(est + err, est - err) of the cubes at the ascending positions pos,
    and (inf, -inf) on a side whose estimates are not finite."""
    hi, lo = np.full(len(pos), np.inf), np.full(len(pos), -np.inf)
    for side, part in _side_runs(family.sides[pos]):
        est, err = _side_estimates(X, side, family.corners[pos[part]], oscillation)
        if np.isfinite(est).all() and np.isfinite(err).all():
            hi[part], lo[part] = est + err, est - err
    return hi, lo


def _box_reduce(a, side, reduce):
    """reduce over every side^ndim box of a, one axis at a time."""
    for axis in range(a.ndim):
        a = reduce(sliding_window_view(a, side, axis=axis), axis=-1)
    return a


def _max_positions(X, mask, family):
    """Ascending positions of the cubes whose fsum oscillation can be the
    largest (bmo_seminorm).  The float64 estimate of the cube with the
    largest summed-area bound gives a lower bound on the maximum; only the
    cubes whose bound reaches it are estimated, and those whose est + err
    reaches the largest est - err are kept."""
    everything = np.arange(family.count)
    if not np.abs(X).max() < _TAME:
        return everything
    bound = _variance_bounds(X, mask, family)
    floor = _estimate_bounds(X, family, np.argmax(bound, keepdims=True), True)[1][0]
    survivors = everything[~(bound < floor)]  # a NaN bound survives
    hi, lo = _estimate_bounds(X, family, survivors, True)
    return survivors[hi >= lo.max()]


def _cell_positions(X, family, oscillation):
    """Ascending positions of the cubes whose fsum value can be the
    maximum at one of their cells (fs_sharp, hl_maximal).  A cube is kept
    when est + err reaches the smallest, over its cells, of each cell's
    largest est - err."""
    everything = np.arange(family.count)
    if not np.abs(X).max() < _TAME:
        return everything
    hi, lo = _estimate_bounds(X, family, everything, oscillation)
    runs = _side_runs(family.sides)
    shape = X.shape[:-1]
    floor = np.full(shape, -np.inf)
    for side, part in runs:
        grid = np.full(tuple(n - side + 1 for n in shape), -np.inf)
        grid[tuple(family.corners[part].T)] = lo[part]
        grid = np.pad(grid, side - 1, constant_values=-np.inf)
        np.maximum(floor, _box_reduce(grid, side, np.max), out=floor)
    keep = []
    for side, part in runs:
        need = _box_reduce(floor, side, np.min)[tuple(family.corners[part].T)]
        keep.append(everything[part][hi[part] >= need])
    return np.concatenate(keep)


@contextmanager
def _float64_range(who):
    """Raise CubeOverflow where a cube kernel overflows: fsum's
    OverflowError, or numpy's, raised here instead of a RuntimeWarning."""
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, FloatingPointError) as exc:
        raise CubeOverflow(f"{who}: a cube value overflows float64") from exc


def hl_maximal(fld: GridField) -> GridField:
    """Hardy-Littlewood maximal field: sup over containing cubes of the
    cube average of |sample|."""
    family = cube_family(fld)
    out = np.zeros(fld.mask.shape)
    with _float64_range("hl_maximal"):
        norms = fld.cell_norms()
        # a matrix norm whose squares overflow comes back as inf
        if not np.isfinite(norms).all():
            raise CubeOverflow("hl_maximal: a cube value overflows float64")
        for corner, side in family.at(_cell_positions(norms[..., None], family, False)):
            w = _window(corner, side)
            np.maximum(out[w], _cube_average(norms, corner, side), out=out[w])
    return GridField(fld.mask, out, fld.spacing, fld.origin)


def fs_sharp(fld: GridField) -> GridField:
    """Sharp maximal field: sup over containing cubes of the mean
    oscillation about the cube average."""
    family = cube_family(fld)
    components = _component_views(fld)
    out = np.zeros(fld.mask.shape)
    with _float64_range("fs_sharp"):
        for corner, side in family.at(_cell_positions(_stacked(fld), family, True)):
            mean = _cube_mean(components, corner, side)
            osc = _cube_oscillation(components, corner, side, mean)
            w = _window(corner, side)
            np.maximum(out[w], osc, out=out[w])
    return GridField(fld.mask, out, fld.spacing, fld.origin)


def bmo_seminorm(fld: GridField) -> float:
    """Largest mean oscillation over the cube family.

    Identical by construction to the max cell of fs_sharp: both reduce the
    same per-cube oscillations with exact max operations.
    """
    family = cube_family(fld)
    components = _component_views(fld)
    best = 0.0
    with _float64_range("bmo_seminorm"):
        for corner, side in family.at(_max_positions(_stacked(fld), fld.mask, family)):
            mean = _cube_mean(components, corner, side)
            best = max(best, _cube_oscillation(components, corner, side, mean))
    return best


def domain_mean(fld: GridField):
    """Componentwise average over the domain cells."""
    count = fld.ncells
    means = [fsum(comp[fld.mask].tolist()) / count for comp in _component_views(fld)]
    if not fld.is_matrix:
        return means[0]
    n = fld.values.shape[-1]
    return np.array(means).reshape(n, n)


def _mean_norm(fld: GridField) -> float:
    """Norm of the domain average (Frobenius for matrix fields)."""
    m = domain_mean(fld)
    return abs(m) if np.isscalar(m) else math.sqrt(fsum((m * m).ravel()))


def bmo_l1_norm(fld: GridField) -> float:
    """BMO seminorm plus the norm of the domain average."""
    return bmo_seminorm(fld) + _mean_norm(fld)


def lp_mean_norm(fld: GridField, p: float) -> float:
    """(average of |sample|^p over the domain)^(1/p)."""
    if not p >= 1:
        raise BadExponents(f"lp_mean_norm: p must be >= 1, got {p}")
    # numpy scalars: a power that overflows is inf, not an OverflowError
    norms = fld.cell_norms()[fld.mask]
    return (fsum(v ** p for v in norms) / len(norms)) ** (1.0 / p)


@dataclass(frozen=True)
class PointwiseBoundsReport:
    """The worst gaps of |psi| <= psi* and psi# <= 2 psi* over the cells,
    and the sups of psi# (sharp_max) and psi* (maximal_sup)."""

    max_value_minus_star: float
    max_sharp_minus_twice_star: float
    sharp_max: float
    maximal_sup: float

    @property
    def ok(self) -> bool:
        return self.max_value_minus_star <= 0.0 and self.max_sharp_minus_twice_star <= 0.0


def verify_pointwise_bounds(fld: GridField) -> PointwiseBoundsReport:
    """Check |psi| <= psi* and psi# <= 2 psi* cell by cell.

    Both are exact discrete facts (each cell is itself a cube of the
    family), so the reported worst gaps should never be positive.
    """
    star = hl_maximal(fld).values
    sharp = fs_sharp(fld).values
    norms = fld.cell_norms()
    m = fld.mask
    return PointwiseBoundsReport(
        max_value_minus_star=float((norms[m] - star[m]).max()),
        max_sharp_minus_twice_star=float((sharp[m] - 2.0 * star[m]).max()),
        sharp_max=float(sharp[m].max()),
        maximal_sup=float(star[m].max()),
    )


def _largest_ratio(who, pairs) -> float:
    """Largest num / den over the (num, den) pairs of a field family.

    A pair with both sides zero comes from a vanishing field and carries no
    information; a zero den under a nonzero num makes the ratio inf (the
    pairs after it are not evaluated).  If every field vanishes, the family
    is degenerate.
    """
    best = None
    for num, den in pairs:
        if den == 0.0:
            if num == 0.0:
                continue
            return math.inf
        best = max(best if best is not None else 0.0, num / den)
    if best is None:
        raise DegenerateFamily(f"{who}: every field vanishes")
    return best


def rh_exponents(p: float, q: float) -> tuple[Fraction, Fraction]:
    """Exact exponent pair (1 - p/q, p/q) for the reverse-Hoelder form."""
    if not (1 <= p < q):
        raise BadExponents(f"rh_exponents: need 1 <= p < q, got p={p}, q={q}")
    r = Fraction(p) / Fraction(q)
    return (1 - r, r)


def interpolation_exponent(p: float, q: float) -> Fraction:
    """theta with 1/p = theta + (1 - theta)/q, exact."""
    if not (1 <= p < q):
        raise BadExponents(f"interpolation_exponent: need 1 <= p < q, got p={p}, q={q}")
    pf, qf = Fraction(p), Fraction(q)
    return (1 / pf - 1 / qf) / (1 - 1 / qf)


def _rh_sides(fld: GridField, p: float, q: float, J2: float):
    """||psi||_p, ||psi||_q and J2 ||psi||_{BMO+L1}^(1-p/q) ||psi||_p^(p/q)."""
    ex_bmo, ex_p = rh_exponents(p, q)
    norm_q = lp_mean_norm(fld, q)
    bound = J2 * bmo_l1_norm(fld) ** float(ex_bmo)
    norm_p = lp_mean_norm(fld, p)
    return norm_p, norm_q, bound * norm_p ** float(ex_p)


def fit_interpolation_constant(fields, p: float, q: float) -> float:
    """Empirical constant J2 for ||psi||_q <= J2 ||psi||_{BMO+L1}^(1-p/q) ||psi||_p^(p/q).

    Norms are domain averages, which makes the fit scale invariant and
    lets the same J2 serve any cell size.
    """
    return _largest_ratio("fit_interpolation_constant",
                          (_rh_sides(fld, p, q, 1.0)[1:] for fld in fields))


def verify_interpolation(fld: GridField, p: float, q: float, J2: float) -> bool:
    """Check the reverse-Hoelder bound with the supplied J2 and the
    parameter-free interpolation bound ||psi||_p <= ||psi||_1^theta ||psi||_q^(1-theta).

    A hair of relative slack absorbs roundoff in the equality cases
    (constant fields give equality in both bounds).
    """
    if not (1 <= p < q):
        raise BadExponents(f"verify_interpolation: need 1 <= p < q, got p={p}, q={q}")
    norm_p, norm_q, rhs = _rh_sides(fld, p, q, J2)
    if norm_q > rhs * (1.0 + _REL_SLACK):
        return False
    theta = float(interpolation_exponent(p, q))
    rhs2 = lp_mean_norm(fld, 1.0) ** theta * norm_q ** (1.0 - theta)
    return norm_p <= rhs2 * (1.0 + _REL_SLACK)
