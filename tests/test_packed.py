"""Packed spans, closures, nullspaces and map norms against the dense kernels they replaced.

Every span is stored on packed rows, the diagonal blocks it lives in side by
side.  The oracles here are the dense kernels: every SVD on n^2-wide
vectorised matrices (2 n^2 wide real rows for real spans), every closure
product an n x n matrix product, every commutator an n x n one.  On every
preset and config fixture both must give the same dimensions, and the same
spans and norms to 1e-12; random ill-conditioned stacks are held to the
derived bound of ``span_angle_bound`` instead.  A structural guard checks
that no SVD of a block-diagonal triple sees rows wider than its packed
width.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgauge import cli
from ncgauge.gauge import gauge_span
from ncgauge.linalg import (RealSpan, Subspace, _graded_closure, adjoint, commutator,
                            commutator_map_norm, nullspace)
from ncgauge.localize import localize
from ncgauge.models import load_model, triple_from_config
from ncgauge.spectral import c_d_algebra, compute_aj, one_form_space
from ncgauge.staralg import NotClosed, center, generating_set
from test_localize import PRESETS
from test_spectral import CONFIG_FIXTURES
from test_staralg import dense_constants, oracle_block_sizes

FIXTURES = PRESETS + [f"config:{name}" for name in sorted(CONFIG_FIXTURES)]
CUT = 1e-9  # the closure cut


def load(spec):
    if spec.startswith("config:"):
        return triple_from_config(CONFIG_FIXTURES[spec.removeprefix("config:")])
    return load_model(spec)


# -- the dense kernels -----------------------------------------------------------


def dense_rows(vectors, rtol=1e-10, floor=0.0):
    """Oracle: orthonormal rows of the row space, by one SVD of the full-width rows."""
    vectors = np.atleast_2d(vectors)
    if not vectors.size or (floor > 0 and np.linalg.norm(vectors) <= floor):
        return vectors[:0]
    _, s, vh = np.linalg.svd(vectors, full_matrices=False)
    return vh[:int(np.sum(s > max(rtol * s[0], floor)))]


def dense_vec(mats, real=False):
    v = np.reshape(mats, (len(mats), int(np.prod(np.shape(mats)[1:]))))
    return np.concatenate([v.real, v.imag], axis=1) if real else v


def dense_closure(seeds, n, left=None):
    """Oracle: the graded closure on n^2-wide rows, every product an n x n product."""
    full = n * n
    stacks = fresh = [dense_rows(dense_vec(np.reshape(s, (-1, n, n))), CUT) for s in seeds]
    letters = stacks if left is None else [dense_rows(dense_vec(np.reshape(s, (-1, n, n))), CUT)
                                           for s in left]
    letters = [s.reshape(-1, n, n) for s in letters]
    k = len(seeds)
    while min(len(s) for s in stacks) < full and any(len(f) for f in fresh):
        words = [f.reshape(-1, n, n) for f in fresh]
        fresh = [s[:0] for s in stacks]
        for g in range(k):
            for x in range(k):
                for letter in letters[x]:
                    if len(stacks[g]) == full:
                        break
                    prods = dense_vec(letter @ words[(g - x) % k])
                    dual = stacks[g].conj().T
                    resid = prods - (prods @ dual) @ stacks[g]
                    if np.linalg.norm(resid) <= CUT:
                        continue
                    new = dense_rows(resid - (resid @ dual) @ stacks[g], CUT, CUT)
                    stacks[g] = np.vstack([stacks[g], new])
                    fresh[g] = np.vstack([fresh[g], new])
    return stacks


def dense_nullspace(domain, images, floor=0.0):
    """Oracle: the nullspace on the full n^2-wide images and domain rows."""
    domain = np.asarray(domain, dtype=complex)
    a = np.reshape(np.asarray(images, dtype=complex), (len(domain), -1))
    r = dense_rows(a.conj().T, 1e-9, floor)
    coeffs = dense_rows(np.eye(len(domain)) - r.conj().T @ r, 0.5, 0.5)
    return coeffs @ dense_vec(domain)


def dense_map_norm(p, stack):
    """Oracle: the map norm from the dense commutators, one SVD of n^2-wide rows."""
    rows = dense_vec(commutator(p, stack))
    return float(np.linalg.svd(rows, compute_uv=False)[0]) if rows.size else 0.0


# -- comparisons -----------------------------------------------------------------


def assert_same_span(span, rows, tol=1e-12):
    """Equal dimensions, and each orthonormal basis lies in the other's span to ``tol``."""
    real = isinstance(span, RealSpan)
    assert span.dim == len(rows)
    if not len(rows):
        return
    mats = rows[:, :rows.shape[1] // 2] + 1j * rows[:, rows.shape[1] // 2:] if real else rows
    assert span.residual(mats.reshape(-1, *span.shape)).max() <= tol
    basis = dense_vec(span.basis, real)
    assert np.linalg.norm(basis - (basis @ rows.conj().T) @ rows, axis=1).max() <= tol


def assert_close(value, oracle):
    assert abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle))


def aj_or_none(triple):
    try:
        return compute_aj(triple)
    except NotClosed:
        return None


# -- every preset and config fixture ---------------------------------------------


@pytest.mark.parametrize("spec", FIXTURES)
def test_packed_spans_match_the_dense_spans(spec):
    triple = load(spec)
    n = triple.hilbert_dim
    pis, eye = triple.pi_images, np.eye(n, dtype=complex)
    even = np.concatenate([pis, eye[None]])
    assert_same_span(Subspace.from_spanning(even), dense_rows(dense_vec(even)))
    span, _, ts = gauge_span(triple)
    assert_same_span(span, dense_rows(dense_vec(ts, real=True)))
    cands = np.concatenate([pis - adjoint(pis), 1j * (pis + adjoint(pis))]) / 2
    assert_same_span(RealSpan.from_spanning(cands), dense_rows(dense_vec(cands, real=True)))
    d_comms = commutator(triple.dirac, pis)
    both = Subspace.from_spanning(pis).union(Subspace.from_spanning(d_comms))
    assert_same_span(both, dense_rows(dense_vec(np.concatenate([pis, d_comms]))))


@pytest.mark.parametrize("spec", FIXTURES)
def test_packed_closures_match_the_dense_closures(spec):
    triple = load(spec)
    n = triple.hilbert_dim
    pis, eye = triple.pi_images, np.eye(n, dtype=complex)
    d_comms = commutator(triple.dirac, pis)
    gens = triple.pi(generating_set(triple.algebra))
    seed = triple.pi(triple.algebra.unit) @ d_comms
    assert_same_span(one_form_space(triple), dense_closure([seed], n, [gens])[0])
    letters = np.concatenate([gens, commutator(triple.dirac, gens)])
    omega = one_form_space(triple)
    (got,) = _graded_closure([omega.basis], n, [letters])
    assert_same_span(got, dense_closure([omega.basis], n, [letters])[0])
    seeds = [np.concatenate([pis, eye[None]]), d_comms]
    for got, want in zip(_graded_closure(seeds, n, seeds), dense_closure(seeds, n)):
        assert_same_span(got, want)
    cd, _ = c_d_algebra(triple)
    assert_same_span(cd, dense_rows(np.concatenate(dense_closure(seeds, n))))


@pytest.mark.parametrize("spec", FIXTURES)
def test_packed_nullspaces_match_the_dense_nullspaces(spec):
    triple = load(spec)
    alg, k, pis = triple.algebra, triple.real_structure.kernel, triple.pi_images
    images = pis @ k - k @ np.swapaxes(pis, 1, 2)
    floor = 1e-9 * np.linalg.norm(pis, axis=(1, 2)).max()
    assert_same_span(nullspace(alg.basis, images, floor),
                     dense_nullspace(alg.basis, images, floor))
    c = dense_constants(alg)
    assert_same_span(nullspace(alg.basis, c - np.swapaxes(c, 0, 1), floor=1e-9),
                     dense_nullspace(alg.basis, c - np.swapaxes(c, 0, 1), floor=1e-9))
    assert_same_span(center(alg), dense_nullspace(alg.basis, c - np.swapaxes(c, 0, 1), 1e-9))


@pytest.mark.parametrize("spec", FIXTURES)
def test_packed_map_norms_match_the_dense_norms(spec):
    triple = load(spec)
    pis = triple.pi_images
    d_comms = commutator(triple.dirac, pis)
    aj = aj_or_none(triple)
    if aj is None:  # no base: the map norms of the generators stand in
        ps = triple.pi(generating_set(triple.algebra))
    else:
        ps = triple.pi(aj.basis)
    for stack in (pis, d_comms):
        norms = commutator_map_norm(ps, stack)
        assert len(norms) == len(ps)
        for p, norm in zip(ps, norms):
            assert_close(norm, dense_map_norm(p, stack))
            assert_close(commutator_map_norm(p, stack), dense_map_norm(p, stack))
    if aj is None:
        return
    dec = localize(triple)
    cd, _ = c_d_algebra(triple)
    for p, cut in zip(dec.base.projections, dec.cuts):
        assert_close(commutator_map_norm(p, triple.algebra.basis),
                     dense_map_norm(p, triple.algebra.basis))
        assert_close(commutator_map_norm(cut, cd.basis), dense_map_norm(cut, cd.basis))


def test_c_d_of_a_block_diagonal_triple_packs_by_points():
    """C_D of ym:k=3,N=3 is exactly 0 off the three point blocks, so it packs as 3 blocks."""
    triple = load_model("ym:k=3,N=3")
    cd, _ = c_d_algebra(triple)
    assert [s.stop - s.start for s in cd._blocks] == [9, 9, 9]
    assert [s.stop - s.start for s in one_form_space(triple)._blocks] == [9, 9, 9]
    assert cd._stack.shape == (cd.dim, 243)
    basis = cd.basis
    assert oracle_block_sizes(basis) == [9, 9, 9]


# -- random block-diagonal stacks with one entry off the blocks ------------------


def span_angle_bound(vectors):
    """max(1e-12, 2 eps s_max / s_min) over the kept singular values of the dense oracle's rows.

    An SVD computes the row space of a matrix within eps |A|_2 of the input
    (the LAPACK Users' Guide's error bounds for the SVD, which take the
    growth factor p(m, n) as 1), and Wedin's sin-theta theorem turns that
    into an angle of at most eps s_max / s_min to the exact row space: the
    kept values are at least s_min, the dropped ones are 0.  The packed and
    the dense SVD each err by that much, so their spans lie within
    2 eps s_max / s_min of each other, c = 2.  A well-conditioned draw
    (s_max / s_min below about 2e3) keeps the 1e-12 of every other span
    comparison; an off-block entry of 1e-6 can make s_min about 1e-7.
    """
    s = np.linalg.svd(vectors, compute_uv=False)
    kept = s[s > 1e-10 * s[0]]  # the rank rule of dense_rows
    return max(1e-12, 2 * np.finfo(float).eps * kept[0] / kept[-1]) if len(kept) else 1e-12


def assert_off_block_entry_merges(sizes, count, scale, real, seed, i, j, which):
    """Blocks merge over an off-block entry; residuals count mass outside the blocks in full."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    inside = block[:, None] == block
    mats = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))) * inside
    mats[which, i, j] += scale
    field = RealSpan if real else Subspace
    span = field.from_spanning(mats)
    assert [s.stop - s.start for s in span._blocks] == oracle_block_sizes(mats)
    assert span._stack.shape[1] == (2 if real else 1) * sum(
        (s.stop - s.start) ** 2 for s in span._blocks)
    vectors = dense_vec(mats, real)
    rows, bound = dense_rows(vectors), span_angle_bound(vectors)
    assert_same_span(span, rows, bound)
    # a matrix with mass on and off the span's blocks, against the dense projection; two
    # distances from spans at angle theta differ by at most sin(theta) |probe|
    probe = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    v = dense_vec(probe, real)
    want = np.linalg.norm(v - (v @ rows.conj().T) @ rows, axis=1)
    assert np.abs(span.residual(probe) - want).max() <= max(
        1e-12 * max(1.0, want.max()), bound * np.linalg.norm(v, axis=1).max())
    outside = probe * ~inside
    if not scale:  # the blocks did not merge: mass off them is at its full distance
        assert np.allclose(span.residual(outside), np.linalg.norm(outside, axis=(1, 2)),
                           rtol=1e-14, atol=0)
    return bound


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=2, max_size=4),
       count=st.integers(1, 6), scale=st.sampled_from([0.0, 1e-14, 1e-6, 1.0]),
       real=st.booleans(), seed=st.integers(0, 2 ** 16), data=st.data())
def test_an_off_block_entry_merges_the_span_blocks(sizes, count, scale, real, seed, data):
    n = sum(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    i, j = data.draw(st.tuples(*[st.integers(0, n - 1)] * 2)
                     .filter(lambda ij: block[ij[0]] != block[ij[1]]))
    assert_off_block_entry_merges(sizes, count, scale, real, seed, i, j,
                                  data.draw(st.integers(0, count - 1)))


@pytest.mark.parametrize("seed", [0, 16])
def test_an_ill_conditioned_off_block_entry_merges_the_span_blocks(seed):
    """Draws that fail a fixed 1e-12: the spans are 2.2e-10 apart at seed 0, 1.7e-9 at 16.

    Four diagonal 3 x 3 matrices span 3 directions; the 1e-6 entry adds a
    fourth, with s_min 4.9e-7 (2.6e-7 at seed 16), that both SVDs resolve
    only to about eps s_max / s_min.  Seed 0 is hypothesis' falsifying draw.
    """
    assert assert_off_block_entry_merges([1, 1, 1], 4, 1e-6, False, seed, 0, 1, 0) > 1e-9


# -- no SVD of a block-diagonal triple sees dense rows -----------------------------


def svd_shapes(monkeypatch, argv):
    """Shapes and kinds of every array an SVD saw while the command ran."""
    shapes = []
    real_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append((np.shape(a), np.asarray(a).dtype.kind))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(np.linalg._linalg, "svd", spy)  # matrix_rank calls it by this name
    assert cli.main([*argv, "--out", "/dev/null"]) == 0
    return shapes


def widest(shapes, kind):
    return max((max(shape[-2:]) for shape, k in shapes if k == kind), default=0)


def widest_packed(shapes):
    """The widest packed matrix row any SVD saw: a real row holds one complex row twice."""
    return max(widest(shapes, "c"), widest(shapes, "f") // 2)


@pytest.mark.parametrize("command", ["localize", "check"])
def test_no_svd_of_ym_sees_rows_wider_than_the_packed_width(monkeypatch, command):
    """ym:k=3,N=3 lives in 3 blocks of 9: packed rows are 3 * 81 = 243 wide, not 729."""
    shapes = svd_shapes(monkeypatch, [command, "ym:k=3,N=3"])
    assert widest(shapes, "c") <= 243
    assert widest(shapes, "f") <= 2 * 243
    assert widest_packed(shapes) == 243


def test_a_dense_triple_keeps_its_full_width(monkeypatch):
    """hs:N=4 is one block: its rows stay n^2 = 256 wide, the one-block case of the same code."""
    assert widest(svd_shapes(monkeypatch, ["check", "hs:N=4"]), "f") == 2 * 256
    assert widest(svd_shapes(monkeypatch, ["localize", "hs:N=4"]), "c") == 256
