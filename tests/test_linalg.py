import numpy as np
import pytest
from conftest import max_op_norm_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from ncgauge.linalg import (
    AntiLinearOp,
    _extend_rows,
    RealSpan,
    Subspace,
    adjoint,
    commutator,
    commutator_map_norm,
    generated_algebra,
    max_op_norm,
    nullspace,
    op_norm,
    pair_products,
)


def rng_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_op_norm_matches_numpy():
    for seed in range(5):
        m = rng_matrix(4, seed)
        assert abs(op_norm(m) - np.linalg.norm(m, ord=2)) < 1e-12


def assert_screened_max_is_exact(stack, cuts):
    """max_op_norm over ``stack`` split at ``cuts`` equals the unscreened max.

    Value and place are also those of the Frobenius screen alone, bit for bit.
    """
    blocks = np.split(stack, cuts)
    value, (b, i) = max_op_norm(iter(blocks))
    assert value == max(op_norm(m) for m in stack)
    assert op_norm(blocks[b][i]) == value
    assert (value, (b, i)) == max_op_norm_oracle(iter(blocks))


@settings(max_examples=200, deadline=None)
@given(count=st.integers(1, 12), rows=st.integers(1, 5), cols=st.integers(1, 5),
       rank=st.integers(0, 5), seed=st.integers(0, 2 ** 16), data=st.data())
def test_max_op_norm_matches_unscreened_max(count, rows, cols, rank, seed, data):
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    stack = (rng.standard_normal((count, rows, rank)) @ rng.standard_normal((count, rank, cols))
             * rng.choice([1e-8, 1.0, 1e8], size=(count, 1, 1)))
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=3)))
    assert_screened_max_is_exact(stack, cuts)


def test_max_op_norm_zero_ties_and_dominant_entries():
    rng = np.random.default_rng(3)
    assert_screened_max_is_exact(np.zeros((5, 3, 3)), [2])
    m = rng_matrix(3, 4)
    # ties: copies, and unitary multiples with the same norms
    unitaries = [np.linalg.qr(rng_matrix(3, s))[0] for s in range(4)]
    assert_screened_max_is_exact(np.stack([m, m] + [u @ m for u in unitaries]), [3])
    # rank one: the Frobenius bound is attained, so screening meets exact ties
    v = rng.standard_normal((6, 4, 1)) @ rng.standard_normal((1, 4))
    assert_screened_max_is_exact(np.concatenate([v, v[::-1]]), [5])
    dominant = 1e-3 * rng.standard_normal((7, 4, 4)).astype(complex)
    dominant[5] = rng_matrix(4, 5)
    assert_screened_max_is_exact(dominant, [2, 4])
    value, where = max_op_norm([])
    assert (value, where) == (0.0, None)
    assert max_op_norm([np.zeros((0, 3, 3))]) == (0.0, None)


def test_extend_rows_stays_orthonormal_on_nearly_dependent_rows():
    # rows 1e-9 away from the span: one projection pass leaves rounding of
    # size 1e-16 against a residual of 1e-9, a 1e-7 loss of orthogonality
    rng = np.random.default_rng(7)
    stack = np.linalg.qr(rng_matrix(40, 1))[0][:6].conj()
    rows = rng.standard_normal((3, 6)) @ stack + 1e-9 * rng_matrix(40, 2)[:3]
    extra = _extend_rows(stack, rows, 0.0, 1e-13)
    both = np.vstack([stack, extra])
    assert len(extra) == 3
    assert op_norm(both @ both.conj().T - np.eye(9)) < 1e-12


def test_pair_products_rows():
    a = np.stack([rng_matrix(3, s) for s in range(2)])
    b = np.stack([rng_matrix(3, s) for s in range(2, 5)])
    rows = pair_products(a, b)
    assert rows.shape == (6, 9)
    assert np.allclose(rows[1 * 3 + 2], (a[1] @ b[2]).ravel())
    assert pair_products(a[:0], b).shape == (0, 9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_commutator_map_norm_is_basis_free(seed):
    rng = np.random.default_rng(seed)
    p = rng_matrix(4, seed)
    span = Subspace.from_spanning([rng_matrix(4, seed + 1 + i) for i in range(5)])
    stack = np.stack(span.basis)
    q, r = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    rotated = np.einsum("ab,bij->aij", q * (np.diag(r) / np.abs(np.diag(r))), stack)
    value = commutator_map_norm(p, stack)
    assert commutator_map_norm(p, rotated) == pytest.approx(value, rel=1e-12)
    # each basis element is a unit vector of the domain: the map norm bounds every [p, s_k]
    assert value >= max(op_norm(commutator(p, s)) for s in stack)
    assert commutator_map_norm(p, stack[:0]) == 0.0


def test_subspace_membership_and_dim():
    vs = [rng_matrix(3, s) for s in range(4)]
    sp = Subspace.from_spanning(vs, shape=(3, 3))
    assert sp.dim == 4
    combo = 0.3 * vs[0] - (1 + 2j) * vs[2]
    assert sp.residual(combo) < 1e-10
    assert sp.contains(combo)
    outside = rng_matrix(3, 99)
    assert sp.residual(outside) > 1e-3


def test_subspace_union_and_intersection():
    e = np.zeros((2, 2), dtype=complex)
    e11 = e.copy(); e11[0, 0] = 1
    e22 = e.copy(); e22[1, 1] = 1
    a = Subspace.from_spanning([e11], shape=(2, 2))
    b = Subspace.from_spanning([e22, e11], shape=(2, 2))
    assert a.union(b).dim == 2
    assert a.intersection_dim(b) == 1


def test_real_span_distinguishes_i():
    eye = np.eye(2, dtype=complex)
    one = RealSpan.from_spanning([eye], shape=(2, 2))
    both = RealSpan.from_spanning([eye, 1j * eye], shape=(2, 2))
    assert one.dim == 1
    assert both.dim == 2
    assert one.residual(1j * eye) > 0.5
    assert both.residual((2 - 3j) * eye) < 1e-10


def test_real_span_of_real_stack_keeps_real_orthonormal_rows():
    rng = np.random.default_rng(3)
    mats = [rng_matrix(3, s) for s in range(3)]
    mats.append(mats[0] - 2.5 * mats[1])  # real-dependent
    mats.append(1j * mats[2])              # complex- but not real-dependent
    span = RealSpan.from_spanning(mats)
    rows = span._stack
    assert rows.dtype == np.float64
    assert span.dim == 4
    assert np.allclose(rows @ rows.T, np.eye(4), atol=1e-12)
    assert np.isrealobj(span.coordinates(mats[0]))
    for m in mats:
        assert span.residual(m) < 1e-10
    assert span.residual(1j * mats[0]) > 1e-3


def test_real_span_inherits_union_and_intersection():
    eye = np.eye(2, dtype=complex)
    real = RealSpan.from_spanning([eye], shape=(2, 2))
    imag = RealSpan.from_spanning([1j * eye], shape=(2, 2))
    both = RealSpan.from_spanning([eye, (1 + 1j) * eye], shape=(2, 2))
    assert real.union(imag).dim == 2
    assert real.intersection_dim(imag) == 0
    assert real.intersection_dim(both) == 1
    assert isinstance(real.union(imag), RealSpan)
    with pytest.raises(ValueError):
        real.union(Subspace.from_spanning([eye]))


def scipy_nullspace(domain, images, rcond=1e-9):
    """Nullspace through scipy's null_space of the transposed image stack (oracle)."""
    a = np.stack([np.ravel(img) for img in images])
    ns = null_space(a.T, rcond=rcond)
    return Subspace(ns.T @ np.stack([m.ravel() for m in domain]), domain[0].shape)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 9), m=st.integers(1, 11), rank=st.integers(0, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_nullspace_matches_scipy_oracle(d, m, rank, seed):
    # domain: d orthonormal 3 x 3 matrices; map: a random d x m stack of rank
    # min(rank, d, m), so d > m and rank-deficient maps are both drawn
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng_matrix(9, seed))
    domain = [row.reshape(3, 3) for row in q.T[:d]]
    r = min(rank, d, m)
    images = ((rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r)))
              @ (rng.standard_normal((r, m)) + 1j * rng.standard_normal((r, m))))
    got = nullspace(domain, list(images))
    want = scipy_nullspace(domain, images)
    assert got.dim == want.dim == d - r
    assert got.intersection_dim(want) == want.dim
    rows = got._stack
    assert np.allclose(rows @ rows.conj().T, np.eye(got.dim), atol=1e-12)
    coeffs = np.stack([v.ravel() for v in domain]).conj() @ rows.T  # d x nullity
    assert np.allclose(images.T @ coeffs, 0, atol=1e-9 * max(1.0, np.linalg.norm(images)))


def brute_force_commutant_dim(mats, n):
    """Rank oracle: solve [x, m] = 0 for all m with one big SVD."""
    rows = []
    eye = np.eye(n)
    for m in mats:
        rows.append(np.kron(m, eye) - np.kron(eye, m.T))
    stack = np.vstack(rows)
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s < 1e-9 * max(1.0, s[0]))) + (n * n - len(s) if len(s) < n * n else 0)


def test_nullspace_matches_commutant_oracle():
    n = 3
    m = rng_matrix(n, 7)
    m = m + adjoint(m)
    basis = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1
            basis.append(e)
    ns = nullspace(basis, [commutator(b, m) for b in basis])
    # m has distinct eigenvalues almost surely, so the commutant is the
    # polynomials in m
    expected = brute_force_commutant_dim([m], n)
    assert ns.dim == expected == n
    for v in ns.basis:
        assert op_norm(commutator(v, m)) < 1e-8


def test_generated_algebra_of_shift_and_clock():
    q = 3
    shift = np.roll(np.eye(q), 1, axis=0).astype(complex)
    clock = np.diag(np.exp(2j * np.pi * np.arange(q) / q))
    alg = generated_algebra([shift, clock])
    assert alg.dim == q * q


def test_generated_algebra_unit_flag():
    p = np.diag([1.0, 0.0]).astype(complex)
    without = generated_algebra([p])
    with_unit = generated_algebra([p, np.eye(2)])
    assert without.dim == 1
    assert with_unit.dim == 2


def test_antilinear_conjugation_action():
    k = np.array([[0, 1], [1, 0]], dtype=complex)
    j = AntiLinearOp(k)
    v = np.array([1 + 2j, -3j])
    assert np.allclose(j.apply(v), k @ np.conj(v))
    assert np.allclose(j.apply(j.apply_inverse(v)), v)
    m = rng_matrix(2, 4)
    conj_m = j.conjugate(m)
    # J m J^-1 acting on a vector, computed step by step
    direct = j.apply(m @ j.apply_inverse(v))
    assert np.allclose(conj_m @ v, direct)


def test_antilinear_rejects_nothing_but_reports_nonunitary():
    k = np.diag([1.0, 2.0]).astype(complex)
    j = AntiLinearOp(k)
    assert j.unitarity_residual() > 0.5
