import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgauge import linalg, staralg
from ncgauge.linalg import (Subspace, adjoint, commutator, max_op_norm, nullspace, op_norm,
                            pair_products)
from ncgauge.models import (build_finite_ym, build_hs_model, build_orbifold_algebra,
                            model_from_string)
from ncgauge.models import triple_from_config
from ncgauge.spectral import c_d_algebra, compute_aj
from ncgauge.staralg import (
    FiniteStarAlgebra,
    NonCommutative,
    NotClosed,
    block_diagonal_algebra,
    center,
    diagonal_algebra,
    full_matrix_algebra,
    generating_set,
    minimal_projections,
    random_unitary,
    skew_hermitian_basis,
)
from test_localize import LOCALIZING_CONFIGS, PRESETS
from test_spectral import CONFIG_FIXTURES


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


def test_non_closed_span_raises_with_its_residual():
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NotClosed) as info:
        FiniteStarAlgebra(Subspace.from_spanning([e12], shape=(2, 2)).basis, np.eye(2))
    # the span misses e12's adjoint; the raise carries the residual it measured
    assert 1e-9 < info.value.residual < 10


def test_empty_span_carries_unit_distance():
    with pytest.raises(NotClosed) as info:
        FiniteStarAlgebra(Subspace.from_spanning([np.zeros((2, 2))]).basis, np.eye(2))
    assert info.value.residual == 1.0


def test_minimal_projections_of_diagonal():
    alg = diagonal_algebra(3)
    fam = minimal_projections(alg)
    labels = list(fam.labels)
    assert len(labels) == 3
    total = sum(p for _, p in fam)
    assert op_norm(total - np.eye(3)) < 1e-10
    for _, p in fam:
        assert op_norm(p @ p - p) < 1e-10
        assert op_norm(p - adjoint(p)) < 1e-10
        assert abs(np.trace(p).real - 1.0) < 1e-10


def test_minimal_projections_depend_on_the_algebra_alone():
    # nothing is drawn: a fresh copy of the algebra gets the same family, bit for bit
    a = minimal_projections(block_diagonal_algebra([1, 1]))
    b = minimal_projections(block_diagonal_algebra([1, 1]))
    assert a.labels == b.labels
    for (_, p), (_, r) in zip(a, b):
        assert np.array_equal(p, r)


def drawn_minimal_projections(algebra):
    """The spectral draw that spectral refinement replaced, kept as its oracle.

    A generic hermitian element sum_x c_x p_x has distinct c_x, so its
    eigenspaces are the p_x; the eigenvalue 0 on the complement of the unit
    gives a candidate outside the span, which is dropped.  Draws whose
    eigenvalue clusters lie closer than 1e-6 are retried, 10 times at most.
    """
    sa = -1j * skew_hermitian_basis(algebra)
    rng = np.random.default_rng(staralg._GENERATOR_SEED)
    for _ in range(10):
        vals, vecs = np.linalg.eigh(np.tensordot(rng.standard_normal(len(sa)), sa, axes=1))
        clusters = [[0]]
        for i in range(1, len(vals)):
            if vals[i] - vals[clusters[-1][-1]] < 1e-8:
                clusters[-1].append(i)
            else:
                clusters.append([i])
        if any(vals[b[0]] - vals[a[-1]] < 1e-6 for a, b in zip(clusters, clusters[1:])):
            continue
        projs = [vecs[:, c] @ adjoint(vecs[:, c]) for c in clusters]
        projs = [p for p in projs if algebra.contains(p, 1e-8)]
        if op_norm(sum(projs) - algebra.unit) <= 1e-9:
            return sorted(projs, key=lambda p: tuple(np.round(-np.real(np.diag(p)), 6)))
    raise AssertionError("no well-separated draw")


def degenerate(ranks, spare, seed):
    """C^k as span{q_i}, of ranks >= 2, in C^(sum ranks + spare) with a random frame and basis.

    Every eigenvalue of every basis element is degenerate, which is
    asserted, so ``spare`` is 0 or at least 2; the unit sum_i q_i is not
    the ambient identity when ``spare`` > 0.
    """
    rng = np.random.default_rng(seed)
    n = sum(ranks) + spare
    v, w = haar_unitary(n, rng), haar_unitary(len(ranks), rng)
    block = np.repeat(np.arange(len(ranks) + 1), list(ranks) + [spare])
    qs = [v @ np.diag((block == i).astype(complex)) @ adjoint(v) for i in range(len(ranks))]
    basis = np.tensordot(w, np.stack([q / np.sqrt(r) for q, r in zip(qs, ranks)]), axes=1)
    for b in basis:  # each eigenvalue at least twice
        vals = np.linalg.eigvals(b)
        assert min(np.sum(abs(vals - v) < 1e-9) for v in vals) >= 2
    return FiniteStarAlgebra(basis, sum(qs), label=f"degenerate{tuple(ranks)}")


def commutative_cases():
    yield from (compute_aj(model_from_string(spec)) for spec in PRESETS)
    yield from (compute_aj(triple_from_config(CONFIG_FIXTURES[name]))
                for name in LOCALIZING_CONFIGS)
    yield from (degenerate(ranks, spare, seed) for seed, (ranks, spare) in enumerate(
        [((2, 2), 0), ((2, 3, 2), 2), ((3, 2, 2, 4), 2), ((2,), 3)]))


def test_minimal_projections_equal_the_drawn_oracle():
    for alg in commutative_cases():
        got, want = minimal_projections(alg), drawn_minimal_projections(alg)
        assert len(got) == len(want) == alg.dim, alg.label
        assert max(op_norm(p - q) for p, q in zip(got.projections, want)) <= 1e-12, alg.label


def test_minimal_projections_draw_nothing(monkeypatch):
    algebras = [diagonal_algebra(3), rotated(diagonal_algebra(4), seed=4), degenerate((2, 3), 2, 0)]

    def no_draws(*args, **kwargs):
        raise AssertionError("minimal_projections drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    assert [len(minimal_projections(alg)) for alg in algebras] == [3, 4, 2]


def test_minimal_projections_certify_the_refinement(monkeypatch):
    # a cut that no gap clears leaves one part for three points: an AlgebraError, not a family
    monkeypatch.setattr(staralg, "_SPLIT_GAP", 10.0)
    with pytest.raises(staralg.AlgebraError, match="1 parts for an algebra of dim 3"):
        minimal_projections(diagonal_algebra(3))


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


def dense_constants(alg):
    """The summands' product tables laid out as one d x d x d array, exactly 0 across summands."""
    c = np.zeros((alg.dim,) * 3, dtype=complex)
    for (e, _), table in zip(alg._summands, alg.structure_constants):
        c[np.ix_(e, e, e)] = table
    return c


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
    rebuilt = dense_constants(alg).reshape(alg.dim ** 2, alg.dim) @ stack
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


def test_minimal_projections_reads_commutativity_from_the_constants(count_calls):
    # no center is built: the commutators are read off the structure constants
    centers = count_calls(staralg, "center")
    with pytest.raises(NonCommutative):
        minimal_projections(full_matrix_algebra(2))
    alg = rotated(diagonal_algebra(3), seed=3)
    assert len(minimal_projections(alg)) == 3
    assert centers == []


def test_rotated_m2_plus_c_has_two_central_scalars():
    assert center(rotated(block_diagonal_algebra([2, 1]), seed=7)).dim == 2


# -- the packed product table against the dense n^2-wide table -----------------


def oracle_block_sizes(*stacks):
    """Oracle: cut between k - 1 and k wherever no matrix has an entry across the cut."""
    n = np.shape(stacks[0])[-1]
    mask = np.zeros((n, n), dtype=bool)
    for m in stacks:
        mask |= (np.reshape(m, (-1, n, n)) != 0).any(axis=0)
    mask |= mask.T
    return np.diff([0] + [k for k in range(1, n) if not mask[:k, k:].any()] + [n]).tolist()


def dense_verdict(basis, unit, generators=None, tol=1e-8):
    """Oracle: the construction checks on dense n^2-wide rows, from ``pair_products``.

    Returns the residual of the first failing check (None when all pass),
    the closure residuals it measured and the product coordinates.
    """
    b = np.asarray(basis, dtype=complex)
    stack = b.reshape(len(b), -1)
    left = b if generators is None else np.asarray(generators, dtype=complex)
    closure, coords = [], []
    for rows in (linalg.pair_products(left, b), adjoint(b).reshape(len(b), -1)):
        coords.append(rows @ stack.conj().T)
        closure.append(np.linalg.norm(rows - coords[-1] @ stack, axis=1).max())
        if closure[-1] > tol:
            return closure[-1], closure, None
    failing = [r for r in (op_norm(stack @ stack.conj().T - np.eye(len(b))),
                           max_op_norm([unit @ b - b, b @ unit - b])[0],
                           Subspace(stack, b.shape[1:]).residual(unit)
                           / max(1.0, np.linalg.norm(unit))) if r > 1e-9]
    return (failing[0] if failing else None), closure, coords[0]


def assert_packed_matches_dense(basis, unit, generators=None):
    """The packed construction raises exactly when the dense checks fail, with the same numbers."""
    want, closure, coords = dense_verdict(basis, unit, generators)
    try:
        alg = FiniteStarAlgebra(basis, unit, generators=generators)
    except NotClosed as err:
        assert want is not None and abs(err.residual - want) <= 1e-12 * max(1.0, want)
        return
    assert want is None
    assert np.abs(np.subtract(alg.closure_residuals, closure)).max() <= 1e-12
    want_coords = coords if generators is None else dense_verdict(basis, unit)[2]
    assert np.abs(dense_constants(alg).reshape(-1, alg.dim) - want_coords).max() <= 1e-12


@pytest.mark.parametrize("make,sizes", [
    (lambda: build_orbifold_algebra(3, 1, 2)[0], [3] * 6),
    (lambda: build_orbifold_algebra(4, 1, 2)[0], [4] * 8),
    (lambda: build_orbifold_algebra(3, 1, 3)[0], [3] * 9),
    (lambda: build_orbifold_algebra(5, 2, 2)[0], [5] * 10),
    (lambda: block_diagonal_algebra([1, 2, 3]), [1, 2, 3]),
    (lambda: rotated(block_diagonal_algebra([2, 1]), seed=7), [3]),
], ids=["orbifold-3-1-2", "orbifold-4-1-2", "orbifold-3-1-3", "orbifold-5-2-2", "M1+M2+M3",
        "rotated-M2+M1"])
def test_packed_table_matches_the_dense_table(make, sizes):
    alg = make()
    assert [s.stop - s.start for s in alg._blocks] == oracle_block_sizes(alg.basis, alg.unit) == sizes
    assert_packed_matches_dense(alg.basis, alg.unit)


@pytest.mark.parametrize("spec,blocks", [("ym:k=3,N=3", 3), ("ym:k=2,N=2,lam=0.1", 1)])
def test_c_d_table_matches_the_dense_table(spec, blocks):
    triple = model_from_string(spec)
    gens = triple.pi(generating_set(triple.algebra))
    letters = np.concatenate([gens, commutator(triple.dirac, gens)])
    # the letters stay in the point blocks unless the hopping joins the points
    assert len(linalg._diagonal_blocks(letters)) == blocks
    cd, _ = c_d_algebra(triple)
    assert len(cd._blocks) == blocks  # the closure leaves exact zeros off the letters' blocks
    eye = np.eye(triple.hilbert_dim, dtype=complex)
    assert_packed_matches_dense(cd.basis, eye, letters)
    assert_packed_matches_dense(cd.basis, eye)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=2, max_size=3),
       where=st.sampled_from(["basis", "letter", "unit"]), scale=st.sampled_from([1e-14, 1e-6, 1.0]),
       data=st.data())
def test_an_off_block_entry_merges_the_blocks(sizes, where, scale, data):
    alg = block_diagonal_algebra(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    i, j = data.draw(st.tuples(*[st.integers(0, alg.ambient - 1)] * 2)
                     .filter(lambda ij: block[ij[0]] != block[ij[1]]))
    basis, unit = np.array(alg.basis), np.array(alg.unit)
    letters = np.array(alg.basis) if where == "letter" else None  # the basis generates A
    target = {"basis": basis, "letter": letters, "unit": unit[None]}[where]
    target[data.draw(st.integers(0, len(target) - 1)), i, j] += scale
    stacks = [m for m in (basis, unit, letters) if m is not None]
    blocks = linalg._diagonal_blocks(*stacks)
    assert [s.stop - s.start for s in blocks] == oracle_block_sizes(*stacks)
    assert any(s.start <= min(i, j) and max(i, j) < s.stop for s in blocks)
    assert_packed_matches_dense(basis, unit, letters)


# -- the center takes the algebra's unit ------------------------------------------


@pytest.mark.parametrize("make", [
    *(lambda q=q, p=p, m=m: build_orbifold_algebra(q, p, m)[0]
      for q, p, m in [(4, 1, 1), (3, 1, 2), (4, 1, 2), (3, 1, 3)]),
    *(lambda k=k: rotated(diagonal_algebra(k), k) for k in (3, 4, 6)),
    lambda: rotated(block_diagonal_algebra([2, 1]), 7),
    lambda: rotated(corner_of_m3(), 5),
], ids=["orbifold-4-1-1", "orbifold-3-1-2", "orbifold-4-1-2", "orbifold-3-1-3",
        "rotated-C3", "rotated-C4", "rotated-C6", "rotated-M2+C", "rotated-corner"])
def test_center_takes_the_algebra_unit(make):
    alg = make()
    z = center(alg)
    assert np.array_equal(z.unit, alg.unit)
    assert z.contains(alg.unit, 1e-12)
    assert max_op_norm([z.unit @ z.basis - z.basis, z.basis @ z.unit - z.basis])[0] <= 1e-12


def test_an_algebra_is_a_subspace_without_forwarding_methods():
    assert issubclass(FiniteStarAlgebra, Subspace)
    own = vars(FiniteStarAlgebra)
    assert not {"coordinates", "project", "residual", "contains", "span"} & set(own)
    alg = block_diagonal_algebra([2, 1])
    assert alg.union(Subspace.from_spanning([np.eye(3)])).dim == alg.dim
    rebuilt = FiniteStarAlgebra(alg.basis, alg.unit)
    assert type(FiniteStarAlgebra.from_spanning(alg.basis)) is Subspace  # a span, unverified
    assert rebuilt.dim == alg.dim and op_norm(rebuilt.unit - np.eye(3)) <= 1e-12
    with pytest.raises(ValueError):
        alg.union(linalg.RealSpan.from_spanning([np.eye(3)]))


def packed_width(alg):
    """Width of the algebra's packed rows: sum_b s_b^2 over its diagonal blocks."""
    return sum((s.stop - s.start) ** 2 for s in alg._blocks)


def table_shapes(calls):
    """The shapes of the ``pair_products`` tables formed by the spied calls."""
    return [(len(a) * len(b), a.shape[1] * b.shape[2]) for a, b in calls]


def test_center_forms_one_product_table(count_calls):
    orbifold = build_orbifold_algebra(3, 1, 2)[0]  # its builder already keeps the center
    alg = FiniteStarAlgebra(orbifold.basis, orbifold.unit)
    tables = count_calls(staralg, "pair_products")
    z = center(alg)
    # one table per (summand, block): d_c^2 rows, s_b^2 wide; one scalar per orbit, on q blocks
    assert table_shapes(tables) == [(len(e) ** 2, (z._blocks[b].stop - z._blocks[b].start) ** 2)
                                    for e, blocks in z._summands for b in blocks] == [(1, 9)] * 6
    # the center lives in the 3 x 3 point blocks, 2 q of them: at most 54 of 324 entries
    assert packed_width(z) <= 2 * 3 * 3 ** 2
    assert center(alg) is z and len(tables) == 6  # kept on the algebra


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
    # the skew candidates: 2d real rows of length 2 sum_b s_b^2, packed over the blocks
    assert shapes.count((2 * alg.dim, 2 * packed_width(alg))) == 1
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
    return FiniteStarAlgebra([full_matrix_algebra(3).basis[i] for i in (0, 1, 3, 4)],
                             np.diag([1.0, 1.0, 0.0]))


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
