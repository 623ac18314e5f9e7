import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgauge import linalg, staralg
from ncgauge.linalg import Subspace, adjoint, commutator, max_op_norm, nullspace, op_norm
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
    z, want = center(alg), dense_center(alg)
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


# -- the unit solved from the structure constants against the matrix-space solve --


def find_unit_oracle(alg):
    """Oracle: solve e b = b = b e for e in the span, in matrix space (2 d n^2 x d)."""
    d, n = alg.dim, alg.ambient
    basis = np.stack(alg.basis)
    prods = basis[:, None] @ basis[None]  # prods[k, b] = basis[k] @ basis[b]
    # rows (b, side, i, j), columns k: first (basis[k] @ b)_ij, then (b @ basis[k])_ij
    a = np.moveaxis(np.stack([np.swapaxes(prods, 0, 1), prods], axis=1), 2, -1).reshape(-1, d)
    y = np.repeat(basis[:, None], 2, axis=1).reshape(-1)
    c, *_ = np.linalg.lstsq(a, y, rcond=None)
    e = (c @ basis.reshape(d, n * n)).reshape(n, n)
    assert max_op_norm([e @ basis - basis, basis @ e - basis])[0] <= 1e-9
    return e


def assert_unit_matches_oracle(alg):
    solved = FiniteStarAlgebra(alg.basis)
    assert op_norm(solved.unit - find_unit_oracle(alg)) <= 1e-12
    assert op_norm(solved.unit - alg.unit) <= 1e-12


@pytest.mark.parametrize("q,p,m", [(4, 1, 1), (3, 1, 2), (4, 1, 2), (3, 1, 3)])
def test_orbifold_center_unit_matches_oracle(q, p, m):
    z = center(build_orbifold_algebra(q, p, m)[0])
    assert op_norm(z.unit - find_unit_oracle(z)) <= 1e-12
    assert op_norm(z.unit - np.eye(z.ambient)) <= 1e-12


@pytest.mark.parametrize("alg", [rotated(diagonal_algebra(3), 3), rotated(diagonal_algebra(4), 4),
                                 rotated(diagonal_algebra(6), 6),
                                 rotated(block_diagonal_algebra([2, 1]), 7)],
                         ids=["C3", "C4", "C6", "M2+C"])
def test_rotated_algebra_unit_matches_oracle(alg):
    assert_unit_matches_oracle(alg)


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3), seed=st.integers(0, 2 ** 16))
def test_rotated_block_diagonal_unit_matches_oracle(sizes, seed):
    assert_unit_matches_oracle(rotated(block_diagonal_algebra(sizes), seed))


def test_solved_unit_of_a_corner_is_its_projection():
    # the span of the upper-left M_2 corner inside M_3 has the corner projection as unit
    assert op_norm(corner_of_m3().unit - np.diag([1.0, 1.0, 0.0])) <= 1e-12


def test_an_algebra_is_a_subspace_without_forwarding_methods():
    assert issubclass(FiniteStarAlgebra, Subspace)
    own = vars(FiniteStarAlgebra)
    assert not {"coordinates", "project", "residual", "contains", "span"} & set(own)
    alg = block_diagonal_algebra([2, 1])
    assert alg.union(Subspace.from_spanning([np.eye(3)])).dim == alg.dim
    rebuilt = subalgebra_from_span(alg.basis)
    assert type(FiniteStarAlgebra.from_spanning(alg.basis)) is Subspace  # a span, unverified
    assert rebuilt.dim == alg.dim and op_norm(rebuilt.unit - np.eye(3)) <= 1e-12
    with pytest.raises(ValueError):
        alg.union(linalg.RealSpan.from_spanning([np.eye(3)]))


def test_center_forms_one_product_table(monkeypatch):
    alg = build_orbifold_algebra(3, 1, 2)[0]
    tables = []

    def spy(a, b):
        tables.append((len(a) * len(b), a.shape[1] * b.shape[2]))
        return linalg.pair_products(a, b)

    monkeypatch.setattr(staralg, "pair_products", spy)
    z = center(alg)
    assert tables == [(z.dim ** 2, alg.ambient ** 2)]


def test_skew_basis_is_one_svd_per_algebra(monkeypatch):
    # random_unitary and minimal_projections share the u(A) basis kept on the algebra
    shapes = []
    real = linalg._orthonormal_rows

    def spy(stack, *args, **kwargs):
        shapes.append(np.shape(stack))
        return real(stack, *args, **kwargs)

    alg = diagonal_algebra(3)
    monkeypatch.setattr(linalg, "_orthonormal_rows", spy)
    for s in range(4):
        u = random_unitary(alg, seed=s)
        assert op_norm(u @ adjoint(u) - np.eye(3)) < 1e-10
    assert len(minimal_projections(alg)) == 3
    # the skew candidates: 2d real rows of length 2 n^2
    assert shapes.count((2 * alg.dim, 2 * alg.ambient ** 2)) == 1
    assert skew_hermitian_basis(alg) is skew_hermitian_basis(alg)


# -- the eigendecomposition exponential against scipy's Pade expm ---------------


def expm_unitary_oracle(alg, seed):
    """Oracle: random_unitary's X from the same seed, exponentiated by scipy's Pade expm."""
    from scipy.linalg import expm

    skew = skew_hermitian_basis(alg)
    coeff = np.random.default_rng(seed).standard_normal(len(skew)) / np.sqrt(len(skew))
    x = sum(c * s for c, s in zip(coeff, skew))
    return expm(x) - np.eye(alg.ambient) + alg.unit


def corner_of_m3():
    """The upper-left M_2 corner of M_3: its unit diag(1, 1, 0) is not the identity."""
    return subalgebra_from_span([full_matrix_algebra(3).basis[i] for i in (0, 1, 3, 4)])


@pytest.mark.parametrize("alg", [full_matrix_algebra(1), full_matrix_algebra(2),
                                 full_matrix_algebra(4), build_finite_ym(3, 2).algebra,
                                 corner_of_m3(), rotated(corner_of_m3(), seed=5)],
                         ids=["M1", "M2", "M4", "ym-3-2", "corner", "rotated-corner"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_unitary_matches_expm_oracle(alg, seed):
    u = random_unitary(alg, seed=seed)
    assert op_norm(u - expm_unitary_oracle(alg, seed)) <= 1e-12
    assert op_norm(u @ adjoint(u) - alg.unit) <= 1e-12
    assert alg.contains(u, 1e-10)
