"""The pairwise axiom records on a certified generating set, against the
basis-pair tables they replaced.

``check_axioms`` runs representation-multiplicative on basis x g and the
commutant and order-one conditions on g x g, for the certified generating
set g of A; ``gauge_lie_algebra`` runs its bracket records on the basis of
u(A) x a set certified to Lie-generate u(A).  The oracles below are the
full basis-pair loops, one pair at a time: every verdict must agree.
"""

import numpy as np
import pytest

from ncgauge import gauge, spectral, staralg
from ncgauge.gauge import gauge_lie_algebra
from ncgauge.linalg import AntiLinearOp, RealSpan, commutator, op_norm
from ncgauge.models import build_finite_ym, build_hs_model, model_from_string, triple_from_config
from ncgauge.spectral import RealSpectralTriple, check_axioms
from ncgauge.staralg import (block_diagonal_algebra, full_matrix_algebra, generating_set,
                             lie_generating_set, skew_hermitian_basis)
from test_closure import unit_multiple_draws
from test_gauge import two_pass_brackets
from test_spectral import CONFIG_FIXTURES

PAIRWISE = ("representation-multiplicative", "commutant-property", "order-one-condition")
BRACKETS = ("bracket-form", "bracket-closure")


def basis_pair_tables(t):
    """Oracle: the three pairwise maxima over every basis pair of A."""
    basis, pis = t.algebra.basis, t.pi_images
    opp = [t.b_opposite(b) for b in basis]
    return (max(op_norm(t.pi(a @ b) - pa @ pb)
                for a, pa in zip(basis, pis) for b, pb in zip(basis, pis)),
            max(op_norm(commutator(pa, ob)) for pa in pis for ob in opp),
            max(op_norm(commutator(commutator(t.dirac, pa), ob)) for pa in pis for ob in opp))


def assert_verdicts_agree(t):
    rep = check_axioms(t)
    for name, worst in zip(PAIRWISE, basis_pair_tables(t)):
        record = rep.record(name)
        assert record.passed == (worst <= record.tolerance), name
    try:
        g = gauge_lie_algebra(t)
    except staralg.NotClosed:  # A_J is not a *-algebra: no gauge Lie algebra to check
        return rep, None
    for name, (worst, _) in zip(BRACKETS, two_pass_brackets(t, g)):
        record = g.report.record(name)
        assert record.passed == (worst <= record.tolerance), name
    return rep, g.report


PRESETS = ["hs:N=4", "hs:N=5", "hs:N=6", "ym:k=3,N=3", "ym:k=2,N=2,lam=0.1",  # benchmark jobs
           "ym:k=5,N=2", "ym:k=3,N=2,lam=0.3", "hs:N=1", "ym:k=2,N=1"]


@pytest.mark.parametrize("spec", PRESETS)
def test_verdicts_agree_with_the_basis_pair_tables(spec):
    assert_verdicts_agree(model_from_string(spec))


def test_complex_hopping_fails_order_one_on_generators_too():
    rep, _ = assert_verdicts_agree(build_finite_ym(2, 2, hopping=np.array([[0, 1j], [-1j, 0]])))
    assert not rep.record("order-one-condition").passed


@pytest.mark.parametrize("name", sorted(CONFIG_FIXTURES))
def test_verdicts_agree_on_configs(name):
    assert_verdicts_agree(triple_from_config(CONFIG_FIXTURES[name]))


def test_basis_fallback_builds_the_basis_pair_tables(monkeypatch):
    """When the draw is not certified, g is the basis and the records are the full tables."""
    unit_multiple_draws(monkeypatch)
    t = build_hs_model(3)
    assert np.array_equal(generating_set(t.algebra), t.algebra.basis)
    rep, _ = assert_verdicts_agree(t)
    # the matrix units have unit norm, so scaling the generators changes nothing
    for name, worst in zip(PAIRWISE, basis_pair_tables(t)):
        assert rep.record(name).residual == pytest.approx(worst, rel=1e-9, abs=1e-13)


def mutants():
    """Triples that each break one axiom: (label, triple, the record it targets)."""
    t = build_finite_ym(2, 2)
    k, d = t.real_structure.kernel, t.dirac
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x += x.conj().T
    block = d.copy()
    # a hermitian term on the second point that keeps JD = DJ but is no L_M + R_M'
    block[4:, 4:] += x + k[4:, 4:] @ x.conj() @ k[4:, 4:]
    hs = build_hs_model(3)
    transposed = [3 * (i % 3) + i // 3 for i in range(9)]  # pi(a) = a^T (x) 1: anti-multiplicative

    def triple(base, pis=None, dirac=None, kernel=None, eps=None):
        return RealSpectralTriple(base.algebra, base.pi_images if pis is None else pis,
                                  base.dirac if dirac is None else dirac,
                                  AntiLinearOp(base.real_structure.kernel if kernel is None else kernel),
                                  base.eps if eps is None else eps, base.eps_prime)

    return [("j-sign", triple(t, eps=-t.eps), "real-structure-square"),
            ("j-mixed", triple(t, kernel=u @ k), "commutant-property"),
            ("pi-transposed", triple(hs, pis=hs.pi_images[transposed]), "representation-multiplicative"),
            ("d-block", triple(t, dirac=block), "order-one-condition")]


@pytest.mark.parametrize("label,triple,target", mutants(), ids=[m[0] for m in mutants()])
def test_mutants_fail_their_record_on_generators(label, triple, target):
    rep, _ = assert_verdicts_agree(triple)
    assert not rep.record(target).passed
    if target in PAIRWISE:
        assert rep.record(target).residual > 0.1
    failing = {r.name for r in rep.records if not r.passed}
    assert set(rep.witnesses) == failing & set(PAIRWISE)
    if label == "d-block":  # only order one breaks
        assert failing == {"order-one-condition"}


def test_pairwise_witnesses_index_the_generating_set():
    """A failing record names the generator pair that attains its residual."""
    t = mutants()[2][1]
    rep = check_axioms(t)
    i, j = rep.witnesses["representation-multiplicative"]
    b, g = t.algebra.basis[i], generating_set(t.algebra)[j]
    g = g / np.linalg.norm(g)  # the records scale each generator to unit norm
    residual = op_norm(t.pi(b @ g) - t.pi(b) @ t.pi(g))
    assert residual == pytest.approx(rep.record("representation-multiplicative").residual, rel=1e-12)


def test_pairwise_records_form_generator_tables(monkeypatch):
    """hs:N=6: d |g| and |g|^2 matrices per pairwise record, and d |S| brackets, never d^2."""
    t = model_from_string("hs:N=6")
    d, n_g = t.algebra.dim, len(generating_set(t.algebra))
    n_s = len(lie_generating_set(t.algebra))
    sizes = {}

    def spy(module):
        real = module.max_op_norm

        def counted(blocks):
            blocks = list(blocks)
            sizes.setdefault(module.__name__, []).append(sum(len(b) for b in blocks))
            return real(blocks)
        monkeypatch.setattr(module, "max_op_norm", counted)

    spy(spectral)
    spy(gauge)
    check_axioms(t)
    gauge_lie_algebra(t)
    # multiplicative, star (one stack of d), commutant, order one
    assert sizes["ncgauge.spectral"] == [d * n_g, d, n_g ** 2, n_g ** 2]
    # skew images (one stack of d), bracket-form
    assert sizes["ncgauge.gauge"] == [d, d * n_s]
    assert (n_g, n_s) == (4, 3) and d * n_s < d * (d - 1) // 2


def lie_closure_dim(stack, shape):
    """Oracle: the real dimension of the Lie algebra a stack generates, brackets of everything."""
    span = RealSpan.from_spanning(stack, shape)
    while True:
        b = span.basis
        grown = RealSpan.from_spanning(
            np.concatenate([b, commutator(b[:, None], b[None]).reshape(-1, *shape)]), shape)
        if grown.dim == span.dim:
            return span.dim
        span = grown


@pytest.mark.parametrize("sizes", [[2], [4], [1, 2], [2, 2, 2, 2, 2], [1, 1, 3]])
def test_lie_generating_set_generates_u_a(sizes):
    alg = block_diagonal_algebra(sizes)
    s = lie_generating_set(alg)
    assert len(s) <= 2 + staralg.center(alg).dim
    assert lie_closure_dim(s, alg.shape) == alg.dim
    assert np.abs(s + np.conj(np.swapaxes(s, 1, 2))).max() < 1e-12  # skew-hermitian


def test_skew_parts_of_g_miss_the_fifth_central_direction():
    """ym:k=5: brackets have no central part, so four skew parts reach at most four of five."""
    alg = model_from_string("ym:k=5,N=2").algebra
    x = generating_set(alg)
    skew = np.concatenate([(x - np.conj(np.swapaxes(x, 1, 2))) / 2,
                           1j * (x + np.conj(np.swapaxes(x, 1, 2))) / 2])
    assert staralg.center(alg).dim == 5
    assert lie_closure_dim(skew, alg.shape) < alg.dim == lie_closure_dim(lie_generating_set(alg), alg.shape)


def test_lie_generating_set_falls_back_to_u_a(monkeypatch):
    """Commuting draws Lie-generate an abelian algebra, so the basis of u(A) is used."""
    alg = full_matrix_algebra(3)
    rng = np.random.default_rng(1)
    draws = np.stack([np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(2)])
    monkeypatch.setattr(staralg, "generating_set", lambda algebra: draws)
    assert np.array_equal(lie_generating_set(alg), skew_hermitian_basis(alg))
