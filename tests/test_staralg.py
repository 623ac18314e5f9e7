import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgauge.linalg import Subspace, adjoint, commutator, nullspace, op_norm
from ncgauge.models import build_finite_ym, build_hs_model, build_orbifold_algebra
from ncgauge.staralg import (
    FiniteStarAlgebra,
    NotClosed,
    block_diagonal_algebra,
    center,
    diagonal_algebra,
    full_matrix_algebra,
    minimal_projections,
    random_unitary,
    skew_hermitian_basis,
    subalgebra_from_span,
)


def test_full_algebra_shape():
    alg = full_matrix_algebra(3)
    assert alg.dim == 9
    assert alg.ambient == 3
    assert not alg.is_commutative()
    assert np.allclose(alg.unit, np.eye(3))


def test_diagonal_algebra_is_commutative():
    alg = diagonal_algebra(4)
    assert alg.dim == 4
    assert alg.is_commutative()
    assert center(alg).dim == 4


def test_block_diagonal_dims_and_center():
    alg = block_diagonal_algebra([2, 2, 1])
    assert alg.ambient == 5
    assert alg.dim == 9
    z = center(alg)
    assert z.dim == 3
    for c in z.basis:
        for b in alg.basis:
            assert op_norm(c @ b - b @ c) < 1e-10


def test_center_of_full_algebra_is_scalars():
    z = center(full_matrix_algebra(3))
    assert z.dim == 1
    v = z.basis[0]
    off = v - np.trace(v) / 3 * np.eye(3)
    assert op_norm(off) < 1e-10


def test_coordinates_roundtrip():
    alg = full_matrix_algebra(2)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    coords = alg.coordinates(m)
    rebuilt = sum(c * b for c, b in zip(coords, alg.basis))
    assert op_norm(rebuilt - m) < 1e-12
    assert alg.contains(m)


def test_contains_rejects_outside():
    alg = diagonal_algebra(2)
    off = np.array([[0, 1], [0, 0]], dtype=complex)
    assert not alg.contains(off)
    assert alg.residual(off) > 0.5


def test_subalgebra_from_span_requires_closure():
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NotClosed) as info:
        subalgebra_from_span(Subspace.from_spanning([e12], shape=(2, 2)))
    # the span has no unit; the raise carries the residual it measured
    assert 1e-9 < info.value.residual < 10


def test_empty_span_carries_unit_distance():
    with pytest.raises(NotClosed) as info:
        subalgebra_from_span(Subspace.from_spanning([np.zeros((2, 2))]))
    assert info.value.residual == 1.0


def test_minimal_projections_of_diagonal():
    alg = diagonal_algebra(3)
    fam = minimal_projections(alg, seed=0)
    labels = list(fam.labels)
    assert len(labels) == 3
    total = sum(p for _, p in fam)
    assert op_norm(total - np.eye(3)) < 1e-10
    for _, p in fam:
        assert op_norm(p @ p - p) < 1e-10
        assert op_norm(p - adjoint(p)) < 1e-10
        assert abs(np.trace(p).real - 1.0) < 1e-10


def test_minimal_projections_deterministic_across_seeds():
    alg = block_diagonal_algebra([1, 1])
    a = minimal_projections(alg, seed=1)
    b = minimal_projections(alg, seed=5)
    for (_, p), (_, r) in zip(a, b):
        assert op_norm(p - r) < 1e-9


def test_skew_hermitian_basis_counts():
    alg = full_matrix_algebra(2)
    skew = skew_hermitian_basis(alg)
    assert len(skew) == 4
    for x in skew:
        assert op_norm(x + adjoint(x)) < 1e-10
        assert alg.contains(x)


def test_random_unitary_lives_in_algebra():
    alg = block_diagonal_algebra([2, 1])
    u = random_unitary(alg, seed=11)
    assert op_norm(u @ adjoint(u) - np.eye(3)) < 1e-10
    assert alg.contains(u)


def test_random_unitary_deterministic():
    alg = full_matrix_algebra(2)
    assert np.allclose(random_unitary(alg, seed=3), random_unitary(alg, seed=3))


def test_random_element_spans_algebra():
    alg = full_matrix_algebra(2)
    els = [alg.random_element(seed=s) for s in range(6)]
    sp = Subspace.from_spanning(els, shape=(2, 2))
    assert sp.dim == 4


# -- the product table and the center against the dense oracles ----------------


def einsum_products(alg):
    """Oracle: every product basis[a] @ basis[b] as row a d + b, by einsum."""
    b = np.stack(alg.basis)
    return np.einsum("aij,bjk->abik", b, b).reshape(alg.dim ** 2, alg.ambient ** 2)


def dense_center(alg):
    """Oracle: the nullspace of a -> ([a, b_1], ..., [a, b_d]) on n x n commutators.

    The cut is the one ``center`` states, 1e-9 * max(s_max, 1).
    """
    images = [np.stack([commutator(a, b) for b in alg.basis]) for a in alg.basis]
    return nullspace(alg.basis, images, floor=1e-9)


def haar_unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(alg, seed):
    """The algebra conjugated by a random unitary of C^n, in a random orthonormal basis."""
    rng = np.random.default_rng(seed)
    v, w = haar_unitary(alg.ambient, rng), haar_unitary(alg.dim, rng)
    moved = [v @ b @ adjoint(v) for b in alg.basis]
    basis = [sum(c * m for c, m in zip(row, moved)) for row in w]
    return FiniteStarAlgebra(basis, v @ alg.unit @ adjoint(v), label=alg.label)


def assert_matches_oracles(alg, center_dim):
    prods = einsum_products(alg)
    stack = np.stack(alg.basis).reshape(alg.dim, -1)
    rebuilt = alg.structure_constants.reshape(alg.dim ** 2, alg.dim) @ stack
    scale = np.linalg.norm(prods, axis=1).max()
    assert np.linalg.norm(rebuilt - prods, axis=1).max() <= 1e-12 * scale
    z, want = center(alg).span(), dense_center(alg)
    assert z.dim == want.dim == center_dim
    assert z.intersection_dim(want) == center_dim


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hs_products_and_center_match_oracles(n):
    assert_matches_oracles(build_hs_model(n).algebra, 1)


@pytest.mark.parametrize("k", [2, 3])
def test_ym_products_and_center_match_oracles(k):
    assert_matches_oracles(build_finite_ym(k, 2).algebra, k)


@pytest.mark.parametrize("q,p,m", [(4, 1, 1), (3, 1, 2), (4, 1, 2), (3, 1, 3)])
def test_orbifold_products_and_center_match_oracles(q, p, m):
    assert_matches_oracles(build_orbifold_algebra(q, p, m)[0], m)


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3), seed=st.integers(0, 2 ** 16))
def test_rotated_block_diagonal_matches_oracles(sizes, seed):
    assert_matches_oracles(rotated(block_diagonal_algebra(sizes), seed), len(sizes))


@pytest.mark.parametrize("k", [3, 4, 6])
def test_rotated_commutative_algebra_is_its_own_center(k):
    # every commutator is zero up to rounding: the absolute cut keeps the whole span
    alg = rotated(diagonal_algebra(k), seed=k)
    assert alg.is_commutative()
    assert center(alg).dim == k
    assert len(minimal_projections(alg)) == k


def test_rotated_m2_plus_c_has_two_central_scalars():
    assert center(rotated(block_diagonal_algebra([2, 1]), seed=7)).dim == 2
