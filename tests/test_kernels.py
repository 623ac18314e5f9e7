"""The four `check` kernels of `linalg` against the kernels they replaced.

The oracles in ``conftest.py`` are the replaced kernels, verbatim.  On the
presets, the config fixtures, a conjugated triple (a kernel K of J that is
not monomial) and triples whose K is a phased monomial (and the orbifold
algebra presets, for the tables their verification forms):

* ``AntiLinearOp.conjugate`` (a gather when K is monomial with unit
  entries) equals the dense product bit for bit;
* ``max_op_norm`` (with its Gram screen) returns the same value and witness
  as the Frobenius-screened loop on every pairwise table ``check`` forms;
* ``commutator_map_norm`` (from the Gram matrix) agrees with the SVD
  within 1e-12 relative;
* ``_orthonormal_rows`` (tall SVDs) keeps the rank and the projector.
"""

import functools
import importlib

import numpy as np
import pytest
from conftest import (commutator_map_norm_oracle, conjugate_oracle, max_op_norm_oracle,
                      orthonormal_rows_oracle)

from ncgauge import gauge, linalg, spectral, staralg
from ncgauge.gauge import gauge_lie_algebra
from ncgauge.linalg import AntiLinearOp, max_op_norm, op_norm
from ncgauge.localize import conjugation_bound, group_bundle_dims, localize, omega_bundle
from ncgauge.models import model_from_string, triple_from_config
from ncgauge.spectral import check_axioms, verify_aj_properties
from test_pairwise import PRESETS
from test_spectral import CONFIG_FIXTURES, conjugate_triple

localize_module = importlib.import_module("ncgauge.localize")


def phased(spec, phases):
    """The preset carried along the diagonal unitary of these phases: K becomes u K u^T."""
    t = model_from_string(spec)
    return conjugate_triple(t, np.diag(phases(t.hilbert_dim)), label=f"{spec}~phased")


def conjugated():
    """hs:N=2 carried along a random unitary: K is no longer monomial."""
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return conjugate_triple(model_from_string("hs:N=2"), u)


TRIPLES = {
    **{spec: functools.partial(model_from_string, spec) for spec in PRESETS},
    **{f"config:{name}": functools.partial(triple_from_config, CONFIG_FIXTURES[name])
       for name in CONFIG_FIXTURES},
    "conjugated": conjugated,
    # phases that are units keep K a gather; any other phase makes it dense
    "unit-phased": lambda: phased("ym:k=2,N=2,lam=0.1", lambda n: 1j ** np.arange(n)),
    "phased": lambda: phased("hs:N=3", lambda n: np.exp(1j * np.arange(n))),
}


# presets whose ``check`` verifies an algebra without a triple, through max_op_norm tables
ALGEBRAS = ["orbifold:q=4,p=1,m=1", "orbifold:q=3,p=1,m=2"]


@functools.cache
def kernel_inputs(name):
    """Run ``check`` and ``localize`` on a model; compare every kernel call with its oracle.

    Returns the model and, per kernel, one comparison per call: for the
    tables the new and the oracle (value, witness); for the map norms both
    norms; for the spans the two ranks and the distance between the two
    projectors.  An algebra preset is only built, which verifies it.
    """
    seen = {"tables": [], "map_norms": [], "spans": [], "aj_closed": False}

    def tables(blocks):
        blocks = [np.asarray(b) for b in blocks]
        seen["tables"].append((max_op_norm(blocks), max_op_norm_oracle(blocks)))
        return seen["tables"][-1][0]

    def map_norm(p, stack):
        value, oracle = linalg.commutator_map_norm(p, stack), commutator_map_norm_oracle(p, stack)
        seen["map_norms"].append((np.atleast_1d(value), np.atleast_1d(oracle)))
        return value

    real_rows = linalg._orthonormal_rows

    def spans(stack, *args):
        rows, oracle = real_rows(stack, *args), orthonormal_rows_oracle(stack, *args)
        both = len(rows) and len(oracle)
        gap = op_norm(oracle - (oracle @ rows.conj().T) @ rows) if both else 0.0
        seen["spans"].append((len(rows), len(oracle), gap))
        return rows

    with pytest.MonkeyPatch.context() as mp:
        for module in (spectral, gauge, staralg):
            mp.setattr(module, "max_op_norm", tables)
        for module in (spectral, localize_module):
            mp.setattr(module, "commutator_map_norm", map_norm)
        mp.setattr(linalg, "_orthonormal_rows", spans)
        if name in ALGEBRAS:
            return model_from_string(name), seen
        triple = TRIPLES[name]()
        check_axioms(triple)
        seen["aj_closed"] = "closure_error" not in verify_aj_properties(triple).context
        if seen["aj_closed"]:
            gauge_lie_algebra(triple)
            dec = localize(triple)
            conjugation_bound(dec)
            omega_bundle(dec)
            group_bundle_dims(dec)
    return triple, seen


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_j_conjugation_is_the_dense_product_bit_for_bit(name):
    triple = TRIPLES[name]()
    j, rng = triple.real_structure, np.random.default_rng(0)
    n = triple.hilbert_dim
    stack = np.concatenate([triple.pi_images, triple.dirac[None],
                            rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))])
    assert np.array_equal(j.conjugate(stack), conjugate_oracle(j, stack))
    assert np.array_equal(j.conjugate(stack[-1]), conjugate_oracle(j, stack[-1]))
    if name in PRESETS or name == "unit-phased":  # every preset's K is a permutation
        assert j._gather is not None
    if name in ("conjugated", "phased"):
        assert j._gather is None


@pytest.mark.parametrize("kernel,gather", [
    (np.diag([1.0, 2.0]), False),                       # monomial, not unitary
    (np.array([[0, 1j], [-1, 0]]), True),               # a permutation with unit phases
    (np.array([[0, np.exp(0.3j)], [1, 0]]), False),     # a permutation with another phase
    (np.array([[1, 1], [1, -1]]) / np.sqrt(2), False),  # not monomial
    (np.zeros((2, 2)), False),                          # a row without a nonzero
], ids=["diag-1-2", "unit-phased", "phased", "hadamard", "zero"])
def test_j_conjugation_on_kernels(kernel, gather):
    j, rng = AntiLinearOp(kernel), np.random.default_rng(1)
    m = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    assert np.array_equal(j.conjugate(m), conjugate_oracle(j, m))
    assert (j._gather is not None) == gather


@pytest.mark.parametrize("name", sorted(TRIPLES) + ALGEBRAS)
def test_check_tables_keep_the_value_and_witness_of_the_frobenius_screen(name):
    _, seen = kernel_inputs(name)
    assert seen["tables"]
    for new, oracle in seen["tables"]:
        assert new == oracle


def test_the_failing_hopping_tables_keep_their_witnesses():
    """ym:k=2,N=2,lam=0.1 fails order one: its failing table has the same witness."""
    triple, seen = kernel_inputs("ym:k=2,N=2,lam=0.1")
    failing = [(new, oracle) for new, oracle in seen["tables"] if new[0] > 1e-8]
    assert failing and all(new == oracle for new, oracle in failing)
    assert not check_axioms(triple).record("order-one-condition").passed


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_map_norms_match_the_svd(name):
    _, seen = kernel_inputs(name)
    assert bool(seen["map_norms"]) == seen["aj_closed"]  # a non-closed A_J has no map norms
    for new, oracle in seen["map_norms"]:
        np.testing.assert_allclose(new, oracle, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_tall_span_svds_keep_the_rank_and_the_projector(name):
    _, seen = kernel_inputs(name)
    assert seen["spans"]
    for rank, oracle_rank, gap in seen["spans"]:
        assert rank == oracle_rank
        assert gap <= 1e-12


def test_a_span_svd_that_fails_tall_falls_back_to_the_wide_one(monkeypatch):
    """LAPACK may not converge in one orientation: the span is then read from the other."""
    real_svd = np.linalg.svd

    def wide_only(a, *args, **kwargs):
        if a.shape[0] > a.shape[1]:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    rng = np.random.default_rng(2)
    stack = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    monkeypatch.setattr(np.linalg, "svd", wide_only)
    assert np.array_equal(linalg._orthonormal_rows(stack), orthonormal_rows_oracle(stack))


def test_bracket_form_takes_at_most_30_svds_at_hs6(monkeypatch, count_calls):
    """The Gram screen leaves few SVDs where the Frobenius screen took one per matrix (76)."""
    svds, real_max, per_table = count_calls(linalg, "op_norm"), gauge.max_op_norm, []

    def counted(blocks):
        start = len(svds)
        result = real_max(blocks)
        per_table.append(len(svds) - start)
        return result

    monkeypatch.setattr(gauge, "max_op_norm", counted)
    gauge_lie_algebra(model_from_string("hs:N=6"))
    skew_images, bracket_form = per_table
    assert 1 <= bracket_form <= 30
