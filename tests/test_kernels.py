"""The point-major quadrature kernels against the einsums they replace.

StVenantKirchhoff.{energy,stress,elasticity}_many, fem.deformation_gradients,
fem.gradient_field and fem.residual_field sum in the order of the einsums
in oracles.py, so each output must equal its oracle byte for byte: -0.0
against +0.0 is a failure too.  Inputs stay small enough that nothing
overflows.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_cert import fem, material

from oracles import (
    deformation_gradients_einsum,
    residual_field_einsum,
    stvk_elasticity_einsum,
    stvk_energy_einsum,
    stvk_stress_einsum,
)


@st.composite
def _stacks(draw):
    """(n, (k, n, n) gradients) with k in {0, 1, many}: normal entries,
    some of them set to 0.0 or -0.0 so that signed zeros and exact
    cancellations turn up."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.sampled_from([0, 1, draw(st.integers(2, 40))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = rng.normal(size=(k, n, n)) * draw(st.sampled_from([1e-3, 1.0, 3.0]))
    zeros = rng.random(F.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    F[zeros] = np.where(rng.random(F.shape) < 0.5, 0.0, -0.0)[zeros]
    return n, F


_STVK = material.stvk(1.3, 0.6)


def _moduli(k):
    """The moduli of _STVK at k points, as the oracles take them: the
    kernels read the two scalars, and must give the same bits."""
    return np.full(k, 1.3), np.full(k, 0.6)


def _transposed(F):
    """F's values in a stack whose last two axes are swapped in memory."""
    return np.ascontiguousarray(F.transpose(0, 2, 1)).transpose(0, 2, 1)


_KERNELS = (
    ("energy_many", stvk_energy_einsum),
    ("stress_many", stvk_stress_einsum),
    ("elasticity_many", stvk_elasticity_einsum),
)


@settings(max_examples=120, deadline=None)
@given(_stacks())
def test_stvk_kernels_equal_their_einsums_bitwise(case):
    n, F = case
    lam, mu = _moduli(len(F))
    for name, oracle in _KERNELS:
        want = oracle(lam, mu, F)
        for stack in (F, _transposed(F)):
            got = getattr(_STVK, name)(stack)
            assert got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), name


_MESHES = {
    "rectangle": fem.rectangle_mesh(5, 3, 1.0, 0.6, dirichlet=("left",)),
    "l-shape": fem.l_shape_mesh(6, dirichlet=("bottom",)),
    "ring": fem.square_ring_mesh(8, dirichlet=("left", "right")),
    "box": fem.box_mesh(3, 2, 2, (1.5, 1.0, 1.0), dirichlet=("x0",)),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_MESHES)), st.integers(0, 2**32 - 1))
def test_gradients_and_residual_equal_their_einsums_bitwise(kind, seed):
    mesh = _MESHES[kind]
    n = mesh.dim
    rng = np.random.default_rng(seed)
    vals = mesh.nodes + 0.02 * rng.standard_normal(mesh.nodes.shape)
    _, grads, wdet, nvals = mesh.quadrature()
    F = fem.deformation_gradients(mesh, vals)
    assert F.flags.c_contiguous
    assert F.tobytes() == deformation_gradients_einsum(vals, mesh.elements, grads).tobytes()
    if mesh.lattice is not None:
        # the lattice cell field takes the same sum at the element centres
        dN = fem.shape_gradients(np.zeros((1, n)), n)
        J = np.einsum("eai,qaj->eqij", mesh.nodes[mesh.elements], dN)
        centre = np.einsum("qaj,eqji->eqai", dN, np.linalg.inv(J))
        G = deformation_gradients_einsum(vals, mesh.elements, centre)[:, 0]
        lat = mesh.lattice
        got = fem.gradient_field(mesh, vals).values[lat.mask]
        assert got.tobytes() == G[lat.elem_of_cell[lat.mask]].tobytes()

    loads = fem.LoadSet.build(mesh, body=rng.normal(size=n), traction=rng.normal(size=n),
                              dirichlet=lambda x: x)
    lam, mu = _moduli(wdet.size)
    _, fvals, jac, _, _ = mesh.facet_quadrature(mesh.traction_facets)
    fidx = np.array(mesh.traction_facets)
    want = residual_field_einsum(
        lambda G: stvk_stress_einsum(lam, mu, G), vals, mesh.elements, grads, wdet, nvals,
        body=loads.body, traction=(jac, fvals, fidx, loads.traction),
    )
    got = fem.residual_field(_STVK, mesh, loads, fem.FeField(mesh, vals))
    assert got.tobytes() == want.tobytes()
