"""Closure kernels against the slow grow-everything closure they replaced.

The oracle re-spans every grade from all pairwise products of the current
bases until no dimension grows, with one SVD of the whole stack per grade
and round.  The kernel multiplies only new basis elements, on the left by
the seed; both must find the same spans.
"""

import dataclasses
import json
import math
import re
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgauge import cli, linalg, spectral, staralg
from ncgauge.linalg import TOL_DERIVED, Subspace, _graded_closure, adjoint, generated_algebra
from ncgauge.staralg import (FiniteStarAlgebra, block_diagonal_algebra, full_matrix_algebra,
                             generating_set)
from ncgauge.models import model_from_string, triple_from_config
from ncgauge.spectral import c_d_algebra, one_form_space
from ncgauge import toric
from ncgauge.toric import BasePoint3, BasePoint4, s3_fiber_dimension, stratum_scan
from ncgauge.torus import clock_shift
from conftest import c_d_certificate
from test_spectral import CONFIG_FIXTURES
from test_staralg import table_shapes


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
    seeds = [[*triple.pi_images, np.eye(n, dtype=complex)],
             [triple.dirac_commutator(b) for b in triple.algebra.basis]]
    even, odd = closure_oracle(seeds, n)
    total = even.union(odd)

    got_even, got_odd = _graded_closure(seeds, n, seeds)
    assert_same_span(got_even, even)
    assert_same_span(got_odd, odd)
    (full_seed,) = _graded_closure([seeds[0] + seeds[1]], n, [seeds[0] + seeds[1]])

    cd, ctx = c_d_algebra(triple)
    assert_same_span(cd, total)
    assert_same_span(cd, full_seed)
    assert (ctx["even_dim"], ctx["odd_dim"], ctx["total_dim"], ctx["grading_consistent"]) == (
        even.dim, odd.dim, total.dim, even.dim + odd.dim == total.dim) == CD_PRESETS[spec]
    assert c_d_certificate(triple) <= TOL_DERIVED


def closure_grades(monkeypatch, triple):
    """c_d_algebra's grading context and the number of grades each closure it ran had.

    Omega^1, itself a closure, is formed (and cached) before the spy goes in,
    so only the closures that build C_D are counted.
    """
    grades = []

    def spy(seeds, n, left):
        grades.append(len(seeds))
        return _graded_closure(seeds, n, left)

    one_form_space(triple)
    monkeypatch.setattr(spectral, "_graded_closure", spy)
    _, ctx = c_d_algebra(triple)
    return ctx, grades


@pytest.mark.parametrize("spec", sorted(CD_PRESETS))
def test_unit_in_one_forms_picks_the_ungraded_closure(monkeypatch, spec):
    """The unit lies in Omega^1 exactly when the oracle finds the grading inconsistent.

    That is when E = O = C_D, and one ungraded closure must be the only one run.
    """
    triple = model_from_string(spec)
    eye = np.eye(triple.hilbert_dim)
    omega = one_form_space(triple)
    unit_in_omega = omega.contains(eye)
    assert unit_in_omega == (not CD_PRESETS[spec][3])
    ctx, grades = closure_grades(monkeypatch, triple)
    assert grades == ([1] if unit_in_omega else [2])
    assert ctx["unit_one_form_distance"] == omega.residual(eye)


@pytest.mark.parametrize("spec", ["ym:k=2,N=1", "ym:k=2,N=1,lam=0.1"])
def test_unit_outside_one_forms_keeps_the_graded_closure(monkeypatch, spec):
    ctx, grades = closure_grades(monkeypatch, model_from_string(spec))
    assert grades == [2]
    assert (ctx["even_dim"], ctx["odd_dim"], ctx["total_dim"], ctx["grading_consistent"]) == (
        CD_PRESETS[spec])
    assert ctx["unit_one_form_distance"] == pytest.approx(np.sqrt(2), rel=1e-12)


# blocks-left closes to M_9: the pairwise oracle would form 81^2 products a round
@pytest.mark.parametrize("name", sorted(set(CONFIG_FIXTURES) - {"blocks-left"}))
def test_c_d_algebra_matches_the_oracles_on_configs(monkeypatch, name):
    """Both branches against the pairwise and the full-seed closures, on custom triples."""
    triple = triple_from_config(CONFIG_FIXTURES[name])
    n = triple.hilbert_dim
    eye = np.eye(n, dtype=complex)
    seeds = [[*triple.pi_images, eye], [triple.dirac_commutator(b) for b in triple.algebra.basis]]
    even, odd = closure_oracle(seeds, n)
    (full_seed,) = _graded_closure([seeds[0] + seeds[1]], n, [seeds[0] + seeds[1]])
    omega = one_form_space(triple)
    _, grades = closure_grades(monkeypatch, triple)
    cd, _ = c_d_algebra(triple)
    assert grades == ([1] if omega.contains(eye) else [2])
    assert_same_span(cd, even.union(odd))
    assert_same_span(cd, full_seed)
    assert c_d_certificate(triple) <= TOL_DERIVED
    if name == "full-left-offdiagonal":  # the [D, pi(g)] letters must grow Omega^1
        assert grades == [1] and omega.dim == 12 < cd.dim == 16
    if grades == [1]:
        assert max(FiniteStarAlgebra(cd.basis, eye).closure_residuals) < 1e-12


def unit_multiple_draws(monkeypatch):
    """Make every random element a multiple of the unit: such a draw generates C 1 only."""
    monkeypatch.setattr(FiniteStarAlgebra, "random_element",
                        lambda self, seed=0: (1 + seed % 5) * self.unit)


@pytest.mark.parametrize("spec", sorted(CD_PRESETS))
def test_basis_fallback_gives_the_same_spans(monkeypatch, spec):
    want = model_from_string(spec)
    basis = np.stack(want.algebra.basis)
    assert not np.array_equal(np.stack(generating_set(want.algebra)), basis)  # a certified draw
    want_omega, (want_cd, _) = one_form_space(want), c_d_algebra(want)
    unit_multiple_draws(monkeypatch)
    got = model_from_string(spec)
    assert np.array_equal(np.stack(generating_set(got.algebra)), basis)
    assert_same_span(one_form_space(got), want_omega)
    cd, _ = c_d_algebra(got)
    assert_same_span(cd, want_cd)
    assert c_d_certificate(got) <= TOL_DERIVED


@pytest.mark.parametrize("n", [2, 3, 5])
def test_commuting_letters_fail_the_certificate(monkeypatch, n):
    """Diagonal draws of M_n generate only the diagonal, so the basis is used."""
    alg = full_matrix_algebra(n)
    rng = np.random.default_rng(n)
    draws = [np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(2)]
    assert generated_algebra(draws + [np.eye(n)]).dim == n < alg.dim
    monkeypatch.setattr(FiniteStarAlgebra, "random_element",
                        lambda self, seed=0: draws[seed % 2])
    assert np.array_equal(np.stack(generating_set(alg)), np.stack(alg.basis))


@pytest.mark.parametrize("sizes", [[5], [1, 2], [2, 2, 3]])
def test_drawn_generators_pass_the_certificate(sizes):
    alg = block_diagonal_algebra(sizes)
    gens = generating_set(alg)
    assert len(gens) == 4
    assert generated_algebra(list(gens) + [np.eye(len(gens[0]))]).dim == alg.dim
    assert generating_set(alg) is gens  # kept on the algebra


def load(spec):
    """A preset, or ``config:<name>`` for a config fixture."""
    if spec.startswith("config:"):
        return triple_from_config(CONFIG_FIXTURES[spec.removeprefix("config:")])
    return model_from_string(spec)


# blocks-left takes the graded branch (the unit is 2.6 from Omega^1) and closes to M_9
@pytest.mark.parametrize("spec", ["hs:N=4", "ym:k=3,N=3", "config:blocks-left"])
def test_c_d_algebra_is_the_closure_alone(count_calls, spec):
    """C_D is the closure kernel's span: no wrap, no product table, |L| dim C_D products.

    No :class:`FiniteStarAlgebra` is built, and ``staralg.pair_products``,
    which forms the tables that verify an algebra, is never called.  The
    closure runs block by
    block, one ``linalg.pair_products`` table per diagonal block, so a
    product is one row in each block's table: the products are counted as
    table entries over sum_b s_b^2, the packed width.  The closure's
    orthonormal rows mix the point blocks of ym, so there C_D is one span
    over three blocks.  On blocks-left that is at most |L| 81 products, not
    81^2.
    """
    triple = load(spec)
    one_form_space(triple)
    built = count_calls(staralg.FiniteStarAlgebra, "__init__")
    tables = count_calls(staralg, "pair_products")  # first: staralg's calls only
    closure = count_calls(linalg, "pair_products")
    cd, ctx = c_d_algebra(triple)
    assert (built, tables) == ([], [])
    assert type(cd) is Subspace
    letters = 2 * len(generating_set(triple.algebra))
    widths = [(s.stop - s.start) ** 2 for s in cd._blocks]
    assert len(widths) == {"hs:N=4": 1, "ym:k=3,N=3": 3, "config:blocks-left": 1}[spec]
    assert (ctx["unit_one_form_distance"] > 1) == spec.startswith("config:")  # branch
    assert sum(widths) <= triple.hilbert_dim ** 2
    products = sum(rows * w for rows, w in table_shapes(closure)) / sum(widths)
    assert products <= letters * cd.dim < cd.dim ** 2
    assert c_d_certificate(triple) <= TOL_DERIVED


@pytest.mark.parametrize("spec", ["hs:N=4", "ym:k=3,N=3", "ym:k=2,N=1,lam=0.1",
                                  "config:blocks-left", "config:diagonal-zero"])
def test_c_d_algebra_commutes_d_with_the_generators_only(count_calls, spec):
    """C_D takes one commutator, [D, pi(g)] on the |g| generators, in either branch."""
    triple = load(spec)
    one_form_space(triple)
    comms = count_calls(linalg, "commutator")
    c_d_algebra(triple)
    gens = triple.pi(generating_set(triple.algebra))
    assert len(comms) == 1
    assert comms[0][0] is triple.dirac and np.array_equal(comms[0][1], gens)


@pytest.mark.parametrize("spec", ["hs:N=4", "ym:k=3,N=3", "ym:k=2,N=1,lam=0.1"])
def test_localize_forms_the_dirac_commutators_of_a_once(monkeypatch, count_calls, spec):
    """The dim A stack [D, pi(A)] is formed for Omega^1 only; C_D reads the generators."""
    triples, real_load = [], cli.load_model

    def loading(*args, **kwargs):
        triples.append(real_load(*args, **kwargs))
        return triples[-1]

    monkeypatch.setattr(cli, "load_model", loading)
    comms = count_calls(linalg, "commutator")
    cli.main(["localize", spec])
    (triple,) = triples
    stacks = [b for a, b in comms if a is triple.dirac and len(b) == triple.algebra.dim]
    assert len(stacks) == 1 and np.array_equal(stacks[0], triple.pi_images)


def readme_config(kind):
    """The README's JSON config block whose algebra has this kind."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in re.findall(r"```json\n(.*?)```", readme, re.S):
        doc = json.loads(block)
        if doc.get("algebra", {}).get("kind") == kind:
            return doc
    raise AssertionError(f"README has no {kind!r} config")


def test_readme_diagonal_config_takes_the_graded_closure(monkeypatch):
    """diag(C^2) with D the flip: Omega^1 is the off-diagonal, orthogonal to the unit."""
    triple = triple_from_config(readme_config("diagonal"))
    ctx, grades = closure_grades(monkeypatch, triple)
    assert grades == [2]
    assert ctx["unit_one_form_distance"] == pytest.approx(np.sqrt(2), rel=1e-12)
    assert (ctx["even_dim"], ctx["odd_dim"], ctx["total_dim"], ctx["grading_consistent"]) == (
        2, 2, 4, True)
    assert c_d_certificate(triple) <= TOL_DERIVED


def assert_matches_ungraded_oracle(gens, with_unit):
    n = gens[0].shape[0]
    seed = list(gens) + [adjoint(g) for g in gens]
    unit = [np.eye(n, dtype=complex)] if with_unit else []
    (want,) = closure_oracle([seed + unit], n)
    assert_same_span(generated_algebra(list(gens) + unit), want)


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


# each stratum's representative angles, as stratum_scan closes them
STRATA = {
    "s3": {"EdgeAlpha": BasePoint3(0.0), "EdgeBeta": BasePoint3(math.pi / 2),
           "Interior": BasePoint3(math.pi / 4)},
    "s4": {"EdgeAlpha": BasePoint4(0.0, math.pi / 4),
           "EdgeBeta": BasePoint4(math.pi / 2, math.pi / 4),
           "Interior": BasePoint4(math.pi / 4, math.pi / 4),
           "Pole": BasePoint4(math.pi / 4, math.pi / 2)},
}


def fiber_letters(pt, p, q):
    """The fiber's evaluated generators r z1 R1, s z2 R2 and x 1 at a base point."""
    r1, r2 = clock_shift(q, p)
    r, s, x = pt.rsx
    return [r * pt.z1 * r1, s * pt.z2 * r2, x * np.eye(q, dtype=complex)]


def closure_dim(pt, p, q):
    """The numeric closure of the fiber's generators and the unit: the word group's oracle."""
    return generated_algebra(fiber_letters(pt, p, q) + [np.eye(q)]).dim


def fiber_seed(pt, p, q):
    """The fiber's generators at z = (1, 1), their adjoints and the unit."""
    gens = fiber_letters(dataclasses.replace(pt, z1=1.0, z2=1.0), p, q)
    return gens + [adjoint(g) for g in gens] + [np.eye(q, dtype=complex)]


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("which", sorted(STRATA))
def test_stratum_scan_dims_match_the_pairwise_oracle(which, q):
    dims = stratum_scan(1, q, which).context["dims"]
    assert dims.keys() == STRATA[which].keys()
    for label, pt in STRATA[which].items():
        (want,) = closure_oracle([fiber_seed(pt, 1, q)], q)
        assert dims[label] == [want.dim], label


@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (2, 3), (2, 5), (3, 7), (5, 13), (3, 31)])
@pytest.mark.parametrize("which", sorted(STRATA))
def test_word_group_dims_match_the_numeric_closure(which, p, q):
    """|H| of every stratum's word group is the closure's dimension at both class points."""
    dims = stratum_scan(p, q, which).context["dims"]
    assert dims.keys() == STRATA[which].keys()
    for label, pt in STRATA[which].items():
        want = {closure_dim(dataclasses.replace(pt, z1=z1, z2=z2), p, q)
                for z1, z2 in toric._CLASS_POINTS}
        assert dims[label] == sorted(want), label


@pytest.mark.parametrize("which", sorted(STRATA))
def test_letters_off_their_words_fail_the_stratum_records(monkeypatch, which):
    """A clock/shift pair conjugated by a non-monomial unitary is no pair of words."""
    q = 5
    r1, r2 = clock_shift(q, 1)
    u = np.linalg.qr(np.arange(1, q * q + 1).reshape(q, q) + 1j * np.eye(q))[0]
    monkeypatch.setattr(toric, "clock_shift", lambda q, p: (u @ r1 @ adjoint(u),
                                                           u @ r2 @ adjoint(u)))
    with pytest.raises(toric.NotAWord, match="scaled word"):
        s3_fiber_dimension(math.pi / 4, 1, q)
    rep = stratum_scan(1, q, which)
    failed = {rec.name for rec in rep.records if not rec.passed}
    assert {"stratum-Interior", "stratum-EdgeAlpha", "stratum-EdgeBeta"} <= failed
    assert "stratum-Pole" not in failed  # x 1 alone is a word whatever the pair
    assert rep.context["dims"]["Interior"] == []


def test_every_closure_product_has_a_seed_row_on_the_left(monkeypatch):
    """|S| products per new row: every left factor is at most the orthonormalised seed."""
    q = 13
    shapes = []
    pair_products = linalg.pair_products

    def spy(a, b):
        shapes.append((len(a), len(b)))
        return pair_products(a, b)

    monkeypatch.setattr(linalg, "pair_products", spy)
    rank = Subspace.from_spanning(fiber_seed(STRATA["s3"]["Interior"], 1, q)).dim
    assert closure_dim(STRATA["s3"]["Interior"], 1, q) == q * q
    assert shapes and max(a for a, _ in shapes) <= rank
    assert sum(a * b for a, b in shapes) <= rank * q * q


def test_interior_fiber_closes_at_q_23_under_a_memory_cap(run_capped):
    """M_23 closes to dimension 529 in a child capped at 4 GiB of address space.

    A table of all 529^2 pair products of 23 x 23 matrices alone would take
    2.4 GB; the word closure forms at most |S| q^2 of them.
    """
    code = ("import math, numpy as np; from ncgauge.linalg import generated_algebra; "
            "from ncgauge.torus import clock_shift; r1, r2 = clock_shift(23, 1); "
            "r, s = math.cos(math.pi / 4), math.sin(math.pi / 4); "
            "gens = [r * r1, s * r2, 0.0 * np.eye(23, dtype=complex)]; "
            "print(generated_algebra(gens + [np.eye(23)]).dim)")
    proc = run_capped("-c", code)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == str(23 * 23)


@pytest.mark.parametrize("q", [41, 144])
def test_toric_scan_runs_under_a_memory_cap(run_capped, q):
    """toric-scan s3 1 q 0.05 reads its strata from the word group and writes words onto cells.

    M_q is never closed, and no q^4 table of every word is built: at q = 144
    that table alone would take 6.9 GB.
    """
    proc = run_capped("-m", "ncgauge.cli", "toric-scan", "s3", "1", str(q), "0.05",
                      "--format", "json", timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    dims = json.loads(proc.stdout)["context"]["strata"]["dims"]
    assert dims == {"EdgeAlpha": [q], "EdgeBeta": [q], "Interior": [q * q]}


def test_toric_scan_at_q_987_runs_under_a_memory_cap(run_capped):
    """toric-scan s3 1 987 0.5 exits 0 under the cap: the word phases are O(q^2).

    A running chain of q - 1 dense clock powers held q^3 x 16 B, 15 GB here.
    """
    proc = run_capped("-m", "ncgauge.cli", "toric-scan", "s3", "1", "987", "0.5",
                      "--format", "json", timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    dims = json.loads(proc.stdout)["context"]["strata"]["dims"]
    assert dims == {"EdgeAlpha": [987], "EdgeBeta": [987], "Interior": [987 * 987]}


def test_orbifold_check_runs_under_a_memory_cap(run_capped):
    """check orbifold:q=6,p=1,m=3 exits 0 in a child capped at 4 GiB of address space.

    Its dense product table alone would hold 108^2 rows of 108^2 entries,
    2.2 GB, and as much again in temporaries; the algebra lives in 18 point
    blocks of 6 x 6, so its packed rows hold 648 entries each.
    """
    proc = run_capped("-m", "ncgauge.cli", "check", "orbifold:q=6,p=1,m=3", "--format", "json")
    assert proc.returncode == 0, proc.stderr[-2000:]
    context = json.loads(proc.stdout)["context"]
    assert (context["dim"], context["center_dim"]) == (108, 3)
