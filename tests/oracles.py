"""Independent oracles used to pin expected values in the test suite.

Everything here is deliberately written from scratch against the
definitions, not by calling the package, so the two sides of every
comparison share no code.
"""
import math
from math import fsum

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


# ---------------------------------------------------------------- rotations

def rotation_grid_min_2d_enum(F, m):
    """Brute-force min of |F - R(theta)| over a uniform m-point angle grid."""
    F = np.asarray(F, dtype=float)
    a = F[0, 0] + F[1, 1]
    b = F[1, 0] - F[0, 1]
    theta = 2.0 * np.pi * np.arange(m) / m
    proj = a * np.cos(theta) + b * np.sin(theta)
    val = float(np.sum(F * F)) + 2.0 - 2.0 * float(np.max(proj))
    return math.sqrt(max(val, 0.0))


def rotation_grid_min_2d(F, m):
    """Same grid minimum as rotation_grid_min_2d_enum without the full scan.

    |F - R(theta)|^2 = |F|^2 + 2 - 2(a cos theta + b sin theta), and the
    projection is maximized over the grid at one of the two grid angles
    bracketing atan2(b, a), so only those two need evaluating.  Agreement
    with the full enumeration is asserted on a subsample wherever this is
    used.
    """
    F = np.asarray(F, dtype=float)
    a = F[0, 0] + F[1, 1]
    b = F[1, 0] - F[0, 1]
    step = 2.0 * np.pi / m
    phi = math.atan2(b, a) % (2.0 * math.pi)
    k = int(phi // step)
    best = max(
        a * math.cos(step * kk) + b * math.sin(step * kk)
        for kk in (k % m, (k + 1) % m)
    )
    val = float(np.sum(F * F)) + 2.0 - 2.0 * best
    return math.sqrt(max(val, 0.0))


def rotation_min_3d_sampled(F, rng, count):
    """One-sided 3D oracle: min |F - Q| over `count` random unit quaternions."""
    F = np.asarray(F, dtype=float)
    q = rng.normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b, c, d = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    R = np.empty((count, 3, 3))
    R[:, 0, 0] = a * a + b * b - c * c - d * d
    R[:, 0, 1] = 2 * (b * c - a * d)
    R[:, 0, 2] = 2 * (b * d + a * c)
    R[:, 1, 0] = 2 * (b * c + a * d)
    R[:, 1, 1] = a * a - b * b + c * c - d * d
    R[:, 1, 2] = 2 * (c * d - a * b)
    R[:, 2, 0] = 2 * (b * d - a * c)
    R[:, 2, 1] = 2 * (c * d + a * b)
    R[:, 2, 2] = a * a - b * b - c * c + d * d
    diff = R - F[None, :, :]
    return float(np.sqrt(np.einsum("kij,kij->k", diff, diff)).min())


def dist_via_svd(F):
    """Rotation distance through singular values, an independent route."""
    s = np.linalg.svd(np.asarray(F, dtype=float), compute_uv=False)
    return math.sqrt(float(np.sum((s - 1.0) ** 2)))


# ---------------------------------------------- grid maximal functions

def enumerate_cubes(mask):
    """All axis-aligned lattice cubes fully inside the mask, by direct scan.

    Yields (corner, side) with corner a tuple of lattice indices.
    """
    shape = mask.shape
    max_side = min(shape)
    for side in range(1, max_side + 1):
        ranges = [range(extent - side + 1) for extent in shape]
        corners = [()]
        for r in ranges:
            corners = [c + (i,) for c in corners for i in r]
        for corner in corners:
            window = tuple(slice(c, c + side) for c in corner)
            if mask[window].all():
                yield corner, side


def _cube_values(values, corner, side):
    window = tuple(slice(c, c + side) for c in corner)
    return values[window].reshape(-1)


def hl_maximal_bruteforce(mask, values):
    """Hardy-Littlewood maximal field by double loop over cells and cubes."""
    out = np.full(mask.shape, np.nan)
    for corner, side in enumerate_cubes(mask):
        cells = _cube_values(values, corner, side)
        avg = fsum(abs(float(v)) for v in cells) / cells.size
        window = tuple(slice(c, c + side) for c in corner)
        block = out[window]
        np.copyto(block, avg, where=np.isnan(block) | (block < avg))
    return out


def fs_sharp_bruteforce(mask, values):
    """Sharp maximal field (mean oscillation sup) by double loop."""
    out = np.full(mask.shape, np.nan)
    for corner, side in enumerate_cubes(mask):
        cells = _cube_values(values, corner, side)
        avg = fsum(float(v) for v in cells) / cells.size
        osc = fsum(abs(float(v) - avg) for v in cells) / cells.size
        window = tuple(slice(c, c + side) for c in corner)
        block = out[window]
        np.copyto(block, osc, where=np.isnan(block) | (block < osc))
    return out


def bmo_bruteforce(mask, values):
    """BMO seminorm as the max mean oscillation over all cubes."""
    best = 0.0
    for corner, side in enumerate_cubes(mask):
        cells = _cube_values(values, corner, side)
        avg = fsum(float(v) for v in cells) / cells.size
        osc = fsum(abs(float(v) - avg) for v in cells) / cells.size
        best = max(best, osc)
    return best


def _cube_matrices(values, corner, side):
    window = tuple(slice(c, c + side) for c in corner)
    block = values[window]
    return block.reshape(-1, block.shape[-2] * block.shape[-1])


def hl_maximal_bruteforce_matrix(mask, values):
    out = np.full(mask.shape, np.nan)
    for corner, side in enumerate_cubes(mask):
        rows = _cube_matrices(values, corner, side)
        norms = [math.sqrt(fsum(float(c) * float(c) for c in row)) for row in rows]
        avg = fsum(norms) / len(norms)
        window = tuple(slice(c, c + side) for c in corner)
        block = out[window]
        np.copyto(block, avg, where=np.isnan(block) | (block < avg))
    return out


def fs_sharp_bruteforce_matrix(mask, values):
    out = np.full(mask.shape, np.nan)
    for corner, side in enumerate_cubes(mask):
        rows = _cube_matrices(values, corner, side)
        mean = [fsum(float(row[j]) for row in rows) / len(rows) for j in range(rows.shape[1])]
        # d * d, not d ** 2: float ** goes through libm pow, which may be
        # off by an ulp, while a product is correctly rounded
        diffs = [[float(row[j]) - mean[j] for j in range(rows.shape[1])] for row in rows]
        devs = [math.sqrt(fsum(d * d for d in diff)) for diff in diffs]
        osc = fsum(devs) / len(devs)
        window = tuple(slice(c, c + side) for c in corner)
        block = out[window]
        np.copyto(block, osc, where=np.isnan(block) | (block < osc))
    return out


# ------------------------------------------------------------------ bumps

def bump_values_closure(nodes, rng, eps):
    """certify.bump_values evaluated node by node, one closure call each."""
    dim = nodes.shape[1]
    a = rng.uniform(-1.0, 1.0, size=(dim, 2))

    def w(x):
        s = [math.sin(math.pi * t) for t in x]
        c = [math.cos(math.pi * t) for t in x]
        prod = float(np.prod(s))
        out = np.empty(dim)
        for i in range(dim):
            out[i] = eps * (a[i, 0] * prod + a[i, 1] * s[i % dim] * c[(i + 1) % dim])
        return out

    return np.array([w(x) for x in nodes])


# -------------------------------------------------------- Taylor sampling

def sample_near_rotations(rng, n, delta):
    """One point of {dist(F, SO(n)) <= delta}, drawn and computed on its
    own: a rotation times (I + small sym), the symmetric step scaled to a
    uniform length in [0, delta) unless its norm is 0.  The rotation is a
    uniform angle in 2D and a normalised normal quaternion in 3D."""
    S = rng.normal(size=(n, n))
    S = 0.5 * (S + S.T)
    flat = S.ravel(order="K")
    norm = math.sqrt(flat.dot(flat))
    if norm > 0:
        S *= rng.uniform(0.0, delta) / norm
    if n == 2:
        t = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(t), math.sin(t)
        R = np.array([[c, -s], [s, c]])
    else:
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        a, b, c, d = q
        R = np.array([
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ])
    return R @ (np.eye(n) + S)


def taylor_draws_loop(n, delta, epsilon, nsamples, seed, coords=None):
    """The Taylor draws of default_rng(seed), sample by sample, each drawn
    with the generator's integers, normal and uniform and computed on its
    own: yields (x, F, G, K), a coordinate, two points of the fattened
    rotation neighborhood (G moved by a normal step scaled to a uniform
    length in [0, epsilon) unless its norm is 0) and a unit direction."""
    rng = np.random.default_rng(seed)
    coords = [np.zeros(n)] if coords is None else [np.asarray(x, dtype=float) for x in coords]

    def norm(A):
        flat = A.ravel(order="K")
        return math.sqrt(flat.dot(flat))

    for _ in range(nsamples):
        x = coords[rng.integers(len(coords))]
        F = sample_near_rotations(rng, n, delta)
        G = sample_near_rotations(rng, n, delta)
        E = rng.normal(size=(n, n))
        if norm(E) > 0:
            E *= rng.uniform(0.0, epsilon) / norm(E)
        K = rng.normal(size=(n, n))
        yield x, F, G + E, K / norm(K)


# ---------------------------------------------------- finite differences

def fd_gradient(f, x, h):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_matrix_derivative(f, F, h):
    """Central-difference derivative of scalar f wrt a matrix argument."""
    F = np.asarray(F, dtype=float)
    out = np.zeros_like(F)
    for i in range(F.shape[0]):
        for j in range(F.shape[1]):
            Fp = F.copy()
            Fm = F.copy()
            Fp[i, j] += h
            Fm[i, j] -= h
            out[i, j] = (f(Fp) - f(Fm)) / (2.0 * h)
    return out


# ------------------------------------------- einsum quadrature kernels
#
# The einsums that St. Venant-Kirchhoff and the Q1 assembly were written
# with; the point-major kernels must reproduce them bit for bit.  An
# einsum's summation order depends on its operands' strides, so each
# oracle contracts C-ordered copies: the reference for any layout.

def _stvk_strain(F):
    n = F.shape[1]
    E = 0.5 * (np.einsum("kji,kjl->kil", F, F) - np.eye(n))
    return E, np.trace(E, axis1=1, axis2=2)


def stvk_energy_einsum(lam, mu, F):
    """St. Venant-Kirchhoff W = lam/2 (tr E)^2 + mu E:E of a (k, n, n)
    stack, with per-point moduli lam, mu of shape (k,)."""
    F = np.ascontiguousarray(F, dtype=float)
    E, trE = _stvk_strain(F)
    return 0.5 * lam * trE**2 + mu * np.einsum("kij,kij->k", E, E)


def stvk_stress_einsum(lam, mu, F):
    """St. Venant-Kirchhoff S = F (lam tr E I + 2 mu E) of a stack."""
    F = np.ascontiguousarray(F, dtype=float)
    n = F.shape[1]
    E, trE = _stvk_strain(F)
    inner = lam[:, None, None] * trE[:, None, None] * np.eye(n) + 2.0 * mu[:, None, None] * E
    return np.einsum("kip,kpa->kia", F, inner)


def stvk_elasticity_einsum(lam, mu, F):
    """St. Venant-Kirchhoff A[k, i, a, j, b] = dS_ia / dF_jb of a stack."""
    F = np.ascontiguousarray(F, dtype=float)
    n = F.shape[1]
    eye = np.eye(n)
    E, trE = _stvk_strain(F)
    inner = lam[:, None, None] * trE[:, None, None] * eye + 2.0 * mu[:, None, None] * E
    B = np.einsum("kip,kjp->kij", F, F)
    A = np.einsum("ij,kba->kiajb", eye, inner)
    A = A + lam[:, None, None, None, None] * np.einsum("kia,kjb->kiajb", F, F)
    A = A + mu[:, None, None, None, None] * (
        np.einsum("kib,kja->kiajb", F, F) + np.einsum("ab,kij->kiajb", eye, B)
    )
    return A


def deformation_gradients_einsum(vals, elements, grads):
    """grad u (M, q, n, n) at the quadrature points from nodal values
    (N, n), element node ids (M, k) and shape gradients (M, q, k, n)."""
    return np.einsum("eai,eqaj->eqij", vals[elements], grads)


def residual_field_einsum(stress, vals, elements, grads, wdet, nvals,
                          body=None, traction=None):
    """Nodal residual (N, n) of the Q1 energy: stress maps a (K, n, n)
    stack of gradients to stresses; body is (M, q, n) or None; traction
    is (jac (T, qf), facet shape values (T, qf, f), facet node ids (T, f),
    tractions (T, qf, n)) or None."""
    M, q = wdet.shape
    n = vals.shape[1]
    F = deformation_gradients_einsum(vals, elements, grads)
    S = stress(F.reshape(-1, n, n)).reshape(M, q, n, n)
    r_el = np.einsum("eq,eqik,eqak->eai", wdet, S, grads)
    if body is not None:
        r_el -= np.einsum("eq,qa,eqi->eai", wdet, nvals, body)
    R = np.zeros(vals.shape)
    np.add.at(R, elements, r_el)
    if traction is not None:
        jac, fvals, fidx, t = traction
        np.add.at(R, fidx, -np.einsum("tq,tqa,tqi->tai", jac, fvals, t))
    return R


# ------------------------------------------------------- mesh topology

def boundary_map_walk(elements, local_facets):
    """Boundary facets of a mesh by one walk over every element facet:
    frozenset of node ids -> (element, local facet index) for the facets
    that exactly one element has, in the order the walk first meets them."""
    seen = {}
    for e, conn in enumerate(elements):
        for lf, loc in enumerate(local_facets):
            key = frozenset(int(conn[i]) for i in loc)
            seen[key] = None if key in seen else (e, lf)
    return {k: v for k, v in seen.items() if v is not None}


# ------------------------------------------------------- assembly

def scatter_matrix_coo(elements, nnodes, free, Ke):
    """Sparse CSR assembly of element matrices Ke (M, k, n, k, n) by
    scipy's COO -> CSR conversion, which sums duplicate entries, sliced
    with np.ix_ to the dofs that the bool vector free keeps."""
    M, k = elements.shape
    n = Ke.shape[-1]
    dof = (elements[:, :, None] * n + np.arange(n)[None, None, :]).reshape(M, k * n)
    rows = np.repeat(dof, k * n, axis=1).ravel()
    cols = np.tile(dof, (1, k * n)).ravel()
    vals = Ke.reshape(M, k * n, k * n).ravel()
    K = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(nnodes * n, nnodes * n)).tocsr()
    idx = np.flatnonzero(free)
    return K[np.ix_(idx, idx)].tocsr()


# ------------------------------------------------------- eigensolve

def negative_pivots_mmd(A):
    """Count of the negative LDL^T pivots of the symmetric sparse A in
    SuperLU's minimum-degree order on A + A^T, or None when A is exactly
    singular: by Sylvester's law, A's count of negative eigenvalues."""
    try:
        lu = scipy.sparse.linalg.splu(
            scipy.sparse.csc_matrix(A), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None
    assert np.array_equal(lu.perm_r, lu.perm_c), "LU pivoted off the diagonal"
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _positive_definite_splu(A):
    """SuperLU factors of the symmetric sparse A if its diagonal pivots
    are all > 0 (A positive definite, by Sylvester's law), else None."""
    try:
        lu = scipy.sparse.linalg.splu(
            A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None
    assert np.array_equal(lu.perm_r, lu.perm_c), "LU pivoted off the diagonal"
    return lu if np.all(lu.U.diagonal() > 0) else None


def coercivity_constant_bisection(M_mat, G_mat):
    """Smallest generalized eigenvalue of the pencil (M, G) of at least 2
    dofs by the plain inertia bisection: step down from the smallest
    diagonal quotient to a positive definite shift lo, bisect [lo, hi] on
    the LDL^T inertia to a relative width 1e-3, run shift-invert Lanczos
    at lo from a fixed start vector, and confirm that no eigenvalue lies
    1e-12 relative below the result."""
    M = scipy.sparse.csc_matrix(0.5 * (M_mat + M_mat.T))
    G = scipy.sparse.csc_matrix(0.5 * (G_mat + G_mat.T))
    nd = M.shape[0]
    ratios = M.diagonal() / G.diagonal()
    scale = float(np.abs(ratios).max()) or 1.0
    hi = float(ratios.min())
    step = max(abs(hi), 1e-3 * scale)
    for _ in range(64):
        lo = hi - step
        lu = _positive_definite_splu(M - lo * G)
        if lu is not None:
            break
        step *= 2.0
    else:
        raise AssertionError("no positive definite shift")
    for _ in range(40):
        if hi - lo <= 1e-3 * max(abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        mid_lu = _positive_definite_splu(M - mid * G)
        if mid_lu is None:
            hi = mid
        else:
            lo, lu = mid, mid_lu
    vals = scipy.sparse.linalg.eigsh(
        M, k=1, M=G, sigma=lo, which="LM",
        OPinv=scipy.sparse.linalg.LinearOperator((nd, nd), matvec=lu.solve, dtype=float),
        v0=np.random.default_rng(0).standard_normal(nd), return_eigenvectors=False,
    )
    lam = float(vals[0])
    tau = 1e-12 * max(abs(lam), scale)
    assert lam >= lo and _positive_definite_splu(M - (lam - tau) * G) is not None, lam
    return lam
