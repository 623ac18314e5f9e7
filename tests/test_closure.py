"""Closure kernels against the slow grow-everything closure they replaced.

The oracle re-spans every grade from all pairwise products of the current
bases until no dimension grows, with one SVD of the whole stack per grade
and round.  The kernel multiplies only new basis elements; both must find
the same spans.
"""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgauge.linalg import Subspace, _graded_closure, adjoint, generated_algebra
from ncgauge.models import model_from_string
from ncgauge.spectral import c_d_algebra
from ncgauge.torus import clock_shift


def closure_oracle(seeds, n):
    """Grow every grade by all products of all grades until stable.

    Grade g receives the products of grades x and y with (x + y) mod k == g.
    """
    spans = [Subspace.from_spanning(s, shape=(n, n)) for s in seeds]
    k = len(spans)

    def products(x, y):
        if x.dim == 0 or y.dim == 0:
            return []
        xs, ys = np.stack(x.basis), np.stack(y.basis)
        return list(np.einsum("aij,bjk->abik", xs, ys).reshape(-1, n, n))

    for _ in range(n * n + 2):
        grown = []
        for g in range(k):
            mats = list(spans[g].basis)
            for x in range(k):
                for y in range(k):
                    if (x + y) % k == g:
                        mats += products(spans[x], spans[y])
            grown.append(Subspace.from_spanning(mats, shape=(n, n)))
        if all(a.dim == b.dim for a, b in zip(grown, spans)):
            return grown
        spans = grown
    raise AssertionError("oracle closure did not stabilise")


def assert_same_span(got: Subspace, want: Subspace):
    assert got.dim == want.dim
    assert got.intersection_dim(want) == want.dim


# (even_dim, odd_dim, total_dim, grading_consistent) as the seed's closure reported them
CD_PRESETS = {
    "hs:N=2": (4, 4, 4, False),
    "hs:N=3": (9, 9, 9, False),
    "hs:N=4": (16, 16, 16, False),
    "ym:k=2,N=2": (8, 8, 8, False),
    "ym:k=2,N=3": (18, 18, 18, False),
    "ym:k=2,N=1": (2, 0, 2, True),
    "ym:k=2,N=1,lam=0.1": (2, 2, 4, True),
    "ym:k=2,N=2,lam=0.1": (16, 16, 16, False),
    "ym:k=3,N=2,lam=0.3": (36, 36, 36, False),
}


@pytest.mark.parametrize("spec", sorted(CD_PRESETS))
def test_c_d_algebra_matches_graded_oracle(spec):
    triple = model_from_string(spec)
    n = triple.hilbert_dim
    seeds = [triple.pi_images + [np.eye(n, dtype=complex)],
             [triple.dirac_commutator(b) for b in triple.algebra.basis]]
    even, odd = closure_oracle(seeds, n)
    total = even.union(odd)

    got_even, got_odd = (Subspace(s, (n, n)) for s in _graded_closure(seeds, n))
    assert_same_span(got_even, even)
    assert_same_span(got_odd, odd)

    cd, rep = c_d_algebra(triple)
    assert_same_span(cd.span(), total)
    ctx = rep.context
    assert (ctx["even_dim"], ctx["odd_dim"], ctx["total_dim"], ctx["grading_consistent"]) == (
        even.dim, odd.dim, total.dim, even.dim + odd.dim == total.dim) == CD_PRESETS[spec]
    assert rep.record("generated-closure").passed


def assert_matches_ungraded_oracle(gens, include_unit):
    n = gens[0].shape[0]
    seed = list(gens) + [adjoint(g) for g in gens]
    if include_unit:
        seed.append(np.eye(n, dtype=complex))
    (want,) = closure_oracle([seed], n)
    assert_same_span(generated_algebra(gens, include_unit=include_unit), want)


scales = st.one_of(st.just(0.0), st.floats(0.1, 2.0))


coprime_pairs = st.integers(2, 5).flatmap(
    lambda q: st.tuples(st.just(q), st.sampled_from([p for p in range(1, q) if gcd(p, q) == 1])))


@settings(max_examples=30, deadline=None)
@given(qp=coprime_pairs, r=scales, s=scales, unit=st.booleans())
def test_generated_algebra_on_scaled_clock_shift(qp, r, s, unit):
    r1, r2 = clock_shift(*qp)
    assert_matches_ungraded_oracle([r * r1, s * r2], unit)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 4), rank=st.integers(1, 2), count=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), unit=st.booleans())
def test_generated_algebra_on_low_rank_matrices(n, rank, count, seed, unit):
    rng = np.random.default_rng(seed)

    def draw(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    gens = [draw(n, rank) @ draw(rank, n) for _ in range(count)]
    assert_matches_ungraded_oracle(gens, unit)


@settings(max_examples=5, deadline=None)
@given(n=st.integers(2, 5))
def test_generated_algebra_of_e12_without_unit(n):
    e12 = np.zeros((n, n), dtype=complex)
    e12[0, 1] = 1.0
    assert generated_algebra([e12]).dim == 4
    assert_matches_ungraded_oracle([e12], False)
