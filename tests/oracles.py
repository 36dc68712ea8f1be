"""Independent oracles used to pin expected values in the test suite.

Everything here is deliberately written from scratch against the
definitions, not by calling the package, so the two sides of every
comparison share no code.  The test materials at the end are the one
exception: they implement the package's Material interface, so that the
solver and the certificates can run on them.
"""
import math
from math import fsum

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from rigidity_cert.material import Material


# ---------------------------------------------------------------- rotations

def random_rotation(rng, n):
    """One Haar-distributed rotation: a uniform angle in 2D, a normalised
    Gaussian quaternion in 3D."""
    if n == 2:
        t = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s], [s, c]])
    q = rng.normal(size=4)
    a, b, c, d = q / math.sqrt(q.dot(q))
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ])


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


def cube_family_windows(mask):
    """(sides, corners, vertices) of the cube family of the mask, as
    harmonic.cube_family enumerated it side by side with a sliding window:
    every cube of each side, corners in C order, and each cube's 2^n
    vertex indices into the zero-padded prefix-sum array."""
    from itertools import product

    from numpy.lib.stride_tricks import sliding_window_view

    shape, ndim = mask.shape, mask.ndim
    sides, corners = [], []
    for side in range(1, min(shape) + 1):
        windows = sliding_window_view(mask, (side,) * ndim)
        found = np.argwhere(windows.all(axis=tuple(range(-ndim, 0))))
        sides.append(np.full(len(found), side))
        corners.append(found)
    sides, corners = np.concatenate(sides), np.concatenate(corners)
    strides = np.cumprod((1,) + tuple(n + 1 for n in shape[:0:-1]))[::-1]
    offsets = np.array(list(product((0, 1), repeat=ndim)))
    vertices = (offsets @ strides)[:, None] * sides + corners @ strides
    return sides, corners, vertices


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


# -------------------------------------------------------------- restarts

def max_pairwise_difference(grads):
    """Largest entry of |a - b| over every pair of the arrays grads, pair
    by pair; 0.0 for fewer than two."""
    out = 0.0
    for i in range(len(grads)):
        for j in range(i + 1, len(grads)):
            out = max(out, float(np.max(np.abs(grads[i] - grads[j]))))
    return out


# -------------------------------------------------------- Taylor sampling

def gate_pair(rng, n, rho, epsilon):
    """One draw from the set the Taylor bounds cover, computed on its own:
    a base gradient F = R (I + S) with R a rotation (a uniform angle in 2D,
    a normalised normal quaternion in 3D) and S symmetric, so that
    dist(F, SO(n)) = |S| <= rho; a step H with |H| <= epsilon; and a unit
    direction K.  The lengths of S and H are rho u^(1/4) and
    epsilon u^(1/4) for uniform u, which crowds the draws towards the
    edge of the set, where the quotients are largest."""
    def scaled(A, length):
        return A * (length / math.sqrt(float(np.sum(A * A))))

    S = rng.normal(size=(n, n))
    S = scaled(0.5 * (S + S.T), rho * rng.uniform() ** 0.25)
    if n == 2:
        t = rng.uniform(0.0, 2.0 * math.pi)
        R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    else:
        a, b, c, d = scaled(rng.normal(size=4), 1.0)
        R = np.array([
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ])
    H = scaled(rng.normal(size=(n, n)), epsilon * rng.uniform() ** 0.25)
    return R @ (np.eye(n) + S), H, scaled(rng.normal(size=(n, n)), 1.0)


def taylor_quotients(m, F, H, K):
    """The sampled Taylor quotients of material m at one pair, each with
    its rounding allowance: the cubic quotient |W(F + H) - W(F) - S(F):H
    - A(F)[H]:H / 2| / |H|^3 and the Lipschitz quotient
    |K:(A(F + H) - A(F))[K]| / |H|, evaluated on stacks of one."""
    def at(quantity, X):
        return getattr(m, f"{quantity}_many")(X[None])[0]

    G = F + H
    h = math.sqrt(float(np.sum(H * H)))
    AF = at("elasticity", F)
    terms = [at("energy", G), -at("energy", F), -float(np.sum(at("stress", F) * H)),
             -0.5 * float(np.einsum("ia,iajb,jb", H, AF, H))]
    qF = float(np.einsum("ia,iajb,jb", K, AF, K))
    qG = float(np.einsum("ia,iajb,jb", K, at("elasticity", G), K))
    u = 64 * np.finfo(float).eps
    cubic = (abs(fsum(terms)) / h**3, u * fsum(abs(t) for t in terms) / h**3)
    lipschitz = (abs(qG - qF) / h, u * (abs(qF) + abs(qG)) / h)
    return cubic, lipschitz


def exact_matrix(A):
    """A sympy Matrix of the exact binary values of the float matrix A."""
    import sympy

    return sympy.Matrix([[sympy.Rational(float(x)) for x in row] for row in np.asarray(A)])


def third_derivative(energy, X, H):
    """d^3/dt^3 energy(X + t H) at t = 0 by sympy, on the exact values of
    X and H, to 30 digits; energy maps a sympy Matrix to W."""
    import sympy

    t = sympy.Symbol("t")
    expr = energy(exact_matrix(X) + t * exact_matrix(H))
    return float(sympy.diff(expr, t, 3).subs(t, 0).evalf(30))


def stvk_energy_sympy(lam, mu):
    """W = lam/2 (tr E)^2 + mu E:E, E = (X^T X - I)/2, of a sympy Matrix."""
    import sympy

    lam, mu = sympy.Rational(lam), sympy.Rational(mu)

    def energy(X):
        E = (X.T * X - sympy.eye(X.shape[0])) / 2
        return lam / 2 * E.trace() ** 2 + mu * (E.T * E).trace()

    return energy


def neo_hookean_energy_sympy(lam, mu):
    """W = mu/2 (tr C - n) - mu log J + lam/2 (log J)^2 of a sympy Matrix."""
    import sympy

    lam, mu = sympy.Rational(lam), sympy.Rational(mu)

    def energy(X):
        logJ = sympy.log(X.det())
        return mu / 2 * ((X.T * X).trace() - X.shape[0]) - mu * logJ + lam / 2 * logJ**2

    return energy


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


# ----------------------------------- sigma(C) forms, frame indifference
#
# A frame-indifferent W(F) is sigma(C) of C = F^T F, with S = 2 F Dsigma(C)
# and A(F)[H]:H = B:D2sigma(C)[B] + 2 Dsigma(C):(H^T H) for B = H^T F +
# F^T H.  The closed forms of St. Venant-Kirchhoff and neo-Hookean, at one
# C, by the model's name and moduli.

def dsigma(m, C):
    """Dsigma(C) of a St. Venant-Kirchhoff or neo-Hookean material m."""
    n = C.shape[0]
    eye = np.eye(n)
    if m.name == "stvk":
        return 0.25 * m.lam * (np.trace(C) - n) * eye + 0.5 * m.mu * (C - eye)
    if m.name == "neo-hookean":
        Cinv = np.linalg.inv(C)
        return 0.5 * m.mu * (eye - Cinv) + 0.25 * m.lam * math.log(np.linalg.det(C)) * Cinv
    raise ValueError(f"no sigma form for {m.name}")


def d2sigma_apply(m, C, B):
    """D2sigma(C)[B] of a St. Venant-Kirchhoff or neo-Hookean material m."""
    if m.name == "stvk":
        return 0.25 * m.lam * np.trace(B) * np.eye(C.shape[0]) + 0.5 * m.mu * B
    if m.name == "neo-hookean":
        Cinv = np.linalg.inv(C)
        CBC = Cinv @ B @ Cinv
        return (0.5 * m.mu * CBC
                + 0.25 * m.lam * (np.trace(Cinv @ B) * Cinv - math.log(np.linalg.det(C)) * CBC))
    raise ValueError(f"no sigma form for {m.name}")


def frame_indifferent(m, n, rng, count=20):
    """Whether W(Q F) = W(F), to 1e-12 relative, for count random pairs of
    a rotation Q and a gradient F = R1 diag(s) R2 with s in [0.4, 2.2]."""
    def rotation():
        Q, R = np.linalg.qr(rng.normal(size=(n, n)))
        Q = Q * np.sign(np.diag(R))
        return Q if np.linalg.det(Q) > 0 else Q @ np.diag([-1.0] + [1.0] * (n - 1))

    def energy(F):
        return float(m.energy_many(F[None])[0])

    for _ in range(count):
        F = rotation() @ np.diag(rng.uniform(0.4, 2.2, size=n)) @ rotation()
        W = energy(F)
        if abs(energy(rotation() @ F) - W) > 1e-12 * (1.0 + abs(W)):
            return False
    return True


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


# ------------------------------------------------------- test materials

class CustomMaterial(Material):
    """An energy given by callables of one gradient F, for tests that need
    a material no model provides: a finite-difference probe, a stiff or
    flat energy.  Missing derivatives fall back to central differences
    with step h = 1e-6 (1 + |F|); taylor, when given, is the pair (c, c_hat)
    taylor_bounds returns.  The energy carries its own moduli, so the
    descriptor reports lambda and mu as 0.0."""

    def __init__(self, name, energy_fn, stress_fn=None, elasticity_fn=None, taylor=None):
        super().__init__(0.0, 0.0)
        self.name = name
        self._energy_fn = energy_fn
        self._stress_fn = stress_fn or self._fd_stress
        self._elasticity_fn = elasticity_fn or self._fd_elasticity
        self._taylor = taylor

    @staticmethod
    def _step(F):
        return 1e-6 * (1.0 + math.sqrt(float(np.sum(F * F))))

    def _fd_stress(self, F):
        return fd_matrix_derivative(self._energy_fn, F, self._step(F))

    def _fd_elasticity(self, F):
        n, h = F.shape[0], self._step(F)
        A = np.zeros((n, n, n, n))
        for j in range(n):
            for b in range(n):
                Fp, Fm = F.copy(), F.copy()
                Fp[j, b] += h
                Fm[j, b] -= h
                A[:, :, j, b] = (self._stress_fn(Fp) - self._stress_fn(Fm)) / (2 * h)
        return A

    def energy_many(self, F):
        return np.array([self._energy_fn(f) for f in F], dtype=float)

    def stress_many(self, F):
        return np.array([self._stress_fn(f) for f in F]).reshape(F.shape)

    def elasticity_many(self, F):
        return np.array([self._elasticity_fn(f) for f in F]).reshape(F.shape + F.shape[1:])

    def _taylor_bounds(self, n, rho, epsilon, s_max, det):
        if self._taylor is None:
            return super()._taylor_bounds(n, rho, epsilon, s_max, det)
        return self._taylor


def quadratic_toy(offset=1.0):
    """W = |F - offset I|^2 / 2, with exact derivatives.  At offset 1 it
    is stress-free and its A(I) = id moves skew directions; at offset 0 it
    is stressed at the identity.  Not frame indifferent.  Its third
    derivative vanishes, so both Taylor bounds are 0 exactly."""
    def energy(F):
        d = F - offset * np.eye(F.shape[0])
        return 0.5 * float(np.sum(d * d))

    def elasticity(F):
        n = F.shape[0]
        return np.einsum("ij,ab->iajb", np.eye(n), np.eye(n))

    return CustomMaterial("quadratic-toy", energy, lambda F: F - offset * np.eye(F.shape[0]),
                          elasticity, taylor=(0.0, 0.0))
