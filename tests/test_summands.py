"""Direct sums by summand: each summand of an algebra verified, multiplied and centred on its own.

The oracle is the full-table path these replaced: every product of two
basis elements on dense n^2-wide rows, the d x d x d structure constants
with their cross-summand zeros, and the center as the nullspace of the full
d x d^2 commutator coordinates.  Both must agree to 1e-12 in closure
residuals, in every structure constant and in the center's and A_J's
dimensions and spans.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgauge import staralg
from ncgauge.linalg import nullspace
from ncgauge.models import build_orbifold_algebra, model_from_string, triple_from_config
from ncgauge.spectral import compute_aj
from ncgauge.staralg import FiniteStarAlgebra, NotClosed, block_diagonal_algebra, center
from test_packed import assert_same_span, dense_nullspace
from test_spectral import CONFIG_FIXTURES
from test_staralg import dense_constants, dense_verdict, haar_unitary, table_shapes

ORBIFOLDS = [(q, p, m) for q in (2, 3, 4) for p in range(1, q) if np.gcd(p, q) == 1
             for m in (1, 2, 3)]


def full_table(alg):
    """Oracle: the closure residuals and the d x d x d constants of the full product table."""
    failing, closure, coords = dense_verdict(alg.basis, alg.unit)
    assert failing is None
    return closure, coords.reshape((alg.dim,) * 3)


def assert_matches_full_table(alg):
    closure, c = full_table(alg)
    assert np.abs(np.subtract(alg.closure_residuals, closure)).max() <= 1e-12
    assert np.abs(dense_constants(alg) - c).max() <= 1e-12
    assert_same_span(center(alg), dense_nullspace(alg.basis, c - np.swapaxes(c, 0, 1), 1e-9))
    # the summands partition the basis, and no two share a block
    elements = np.concatenate([e for e, _ in alg._summands])
    blocks = np.concatenate([b for _, b in alg._summands])
    assert sorted(elements) == list(range(alg.dim)) and len(set(blocks)) == len(blocks)


@pytest.mark.parametrize("sizes", [[3] * 4, [1, 2, 3], [2], [1] * 5, [2, 1, 2]])
def test_block_diagonal_summands_match_the_full_table(sizes):
    alg = block_diagonal_algebra(sizes)
    assert [len(e) for e, _ in alg._summands] == [s * s for s in sizes]
    assert_matches_full_table(alg)


@pytest.mark.parametrize("q,p,m", ORBIFOLDS)
def test_orbifold_summands_match_the_full_table(q, p, m):
    alg = build_orbifold_algebra(q, p, m)[0]
    # one summand per orbit: q^2 elements over the q point blocks of the orbit
    assert [(len(e), len(b)) for e, b in alg._summands] == [(q * q, q)] * m
    assert_matches_full_table(alg)


@pytest.mark.parametrize("name", sorted(CONFIG_FIXTURES))
def test_config_summands_match_the_full_table(name):
    triple = triple_from_config(CONFIG_FIXTURES[name])
    assert_matches_full_table(triple.algebra)
    k, pis = triple.real_structure.kernel, triple.pi_images
    images = pis @ k - k @ np.swapaxes(pis, 1, 2)
    want = dense_nullspace(triple.algebra.basis, images,
                           1e-9 * np.linalg.norm(pis, axis=(1, 2)).max())
    try:
        aj = compute_aj(triple)
    except NotClosed:  # two fixtures violate the axioms: their A_J is no algebra either way
        with pytest.raises(NotClosed):
            FiniteStarAlgebra(want.reshape(-1, *triple.algebra.shape), triple.algebra.unit)
        return
    assert_same_span(aj, want)
    assert_matches_full_table(aj)


def mixed_basis(sizes, seed, straddle):
    """The matrix units of ⊕M_s in a random orthonormal basis of each summand, conjugated by
    a random block-diagonal unitary; with ``straddle``, two elements of the first two
    summands are replaced by their normalised sum and difference."""
    rng = np.random.default_rng(seed)
    alg = block_diagonal_algebra(sizes)
    v = np.zeros((alg.ambient,) * 2, dtype=complex)
    at = 0
    for s in sizes:
        v[at:at + s, at:at + s] = haar_unitary(s, rng)
        at += s
    basis = v @ np.array(alg.basis) @ v.conj().T
    for e, _ in alg._summands:
        basis[e] = np.tensordot(haar_unitary(len(e), rng), basis[e], axes=1)
    if straddle:
        i, j = alg._summands[0][0][-1], alg._summands[1][0][0]
        basis[[i, j]] = np.stack([basis[i] + basis[j], basis[i] - basis[j]]) / np.sqrt(2)
    return basis, v @ alg.unit @ v.conj().T


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=2, max_size=4), seed=st.integers(0, 2 ** 16),
       straddle=st.booleans())
def test_random_block_diagonal_bases_match_the_full_table(sizes, seed, straddle):
    basis, unit = mixed_basis(sizes, seed, straddle)
    alg = FiniteStarAlgebra(basis, unit)
    # an element rotated across two summands joins them into one
    assert len(alg._summands) == len(sizes) - straddle
    assert_matches_full_table(alg)
    assert center(alg).dim == len(sizes)


# -- count guards ------------------------------------------------------------------


@pytest.mark.parametrize("make,sum_of_squares", [
    (lambda: block_diagonal_algebra([3] * 4), 4 * 3 ** 4),
    (lambda: block_diagonal_algebra([2] * 5), 5 * 2 ** 4),
    (lambda: build_orbifold_algebra(3, 1, 2)[0], 2 * 3 ** 4),
    (lambda: build_orbifold_algebra(4, 1, 3)[0], 3 * 4 ** 4),
], ids=["M3^4", "M2^5", "orbifold-3-1-2", "orbifold-4-1-3"])
def test_verification_forms_each_summands_products_only(count_calls, make, sum_of_squares):
    """sum_c d_c^2 product rows (k N^4, m q^4), never d^2 per block."""
    alg = make()
    tables = count_calls(staralg, "pair_products")
    again = FiniteStarAlgebra(alg.basis, alg.unit)
    widths = [(s.stop - s.start) ** 2 for s in again._blocks]
    assert table_shapes(tables) == [(len(e) ** 2, widths[b])
                                    for e, blocks in again._summands for b in blocks]
    assert sum(len(e) ** 2 for e, _ in again._summands) == sum_of_squares < alg.dim ** 2


@pytest.mark.parametrize("make", [
    lambda: block_diagonal_algebra([3] * 4), lambda: block_diagonal_algebra([2, 3]),
    lambda: build_orbifold_algebra(3, 1, 3)[0], lambda: build_orbifold_algebra(4, 1, 2)[0],
], ids=["M3^4", "M2+M3", "orbifold-3-1-3", "orbifold-4-1-2"])
def test_center_makes_one_svd_per_summand(count_calls, make):
    built = make()
    alg = FiniteStarAlgebra(built.basis, built.unit)  # fresh: the orbifold builder keeps its center
    svds = count_calls(np.linalg, "svd")
    nulls = count_calls(staralg, "nullspace")
    z = center(alg)
    made = len(svds)
    FiniteStarAlgebra(z.basis, alg.unit)  # the wrap of Z again: the rest are the nullspace's
    assert (made - (len(svds) - made), len(nulls)) == (len(alg._summands), 1)
    assert z.dim == len(alg._summands)


@pytest.mark.parametrize("spec,points", [("ym:k=3,N=2", 3), ("ym:k=4,N=3", 4), ("hs:N=3", 1),
                                         ("ym:k=2,N=2,lam=0.1", 2)])
def test_aj_nullspace_splits_by_point(count_calls, spec, points):
    # pi(A) and K keep the point blocks, with or without hopping: one SVD per point
    triple = model_from_string(spec)
    k, pis = triple.real_structure.kernel, triple.pi_images
    svds = count_calls(np.linalg, "svd")
    sub = nullspace(triple.algebra.basis, pis @ k - k @ np.swapaxes(pis, 1, 2), floor=1e-9)
    assert (len(svds), sub.dim) == (points, points)
