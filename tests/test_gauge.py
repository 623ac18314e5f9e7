"""Gauge group, perturbation semigroup, and inner fluctuations."""

import numpy as np
import pytest

from ncgauge import (
    AlgebraError,
    GaugeElement,
    MembershipViolated,
    NotUnitary,
    OneForm,
    Perturbation,
    adjoint,
    build_finite_ym,
    build_hs_model,
    covariance_residual,
    doubled_fluctuation,
    fluctuate,
    from_unitary,
    gauge_field,
    gauge_lie_algebra,
    gauge_matrix,
    gauge_transform_field,
    one_form_space,
    op_norm,
    pert_product,
    random_perturbation,
    random_unitary,
)
from ncgauge.linalg import TOL_DERIVED, max_op_norm
from ncgauge.staralg import lie_generating_set
from ncgauge.models import load_model, triple_from_config
from test_closure import readme_config


def commutator(x, y):
    return x @ y - y @ x


def test_gauge_matrix_is_unitary_and_multiplicative():
    t = build_hs_model(2)
    u = random_unitary(t.algebra, seed=1)
    v = random_unitary(t.algebra, seed=2)
    big_u = gauge_matrix(t, u)
    big_v = gauge_matrix(t, v)
    n = t.hilbert_dim
    assert op_norm(big_u @ adjoint(big_u) - np.eye(n)) < 1e-10
    # Ad is a homomorphism: the two J-twisted legs commute
    assert op_norm(gauge_matrix(t, u @ v) - big_u @ big_v) < 1e-10


def test_gauge_element_fixes_real_structure():
    for t in (build_hs_model(2), build_finite_ym(2, 2)):
        g = GaugeElement(t, random_unitary(t.algebra, seed=3))
        assert g.unitarity_residual() < 1e-10
        assert g.fixes_real_structure_residual() < 1e-10


def test_gauge_element_rejects_non_unitary():
    t = build_hs_model(2)
    with pytest.raises(NotUnitary):
        GaugeElement(t, 2.0 * np.eye(2))


def test_unitary_outside_algebra_rejected():
    t = build_finite_ym(2, 1)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotUnitary):
        from_unitary(t, swap)


@pytest.mark.parametrize("n,expect", [(2, 3), (3, 8)])
def test_gauge_dimension_hs(n, expect):
    g = gauge_lie_algebra(build_hs_model(n))
    assert g.dim == expect
    assert g.report.passed
    ctx = g.report.context
    assert ctx["dim"] == ctx["u_A_dim"] - ctx["u_AJ_dim"]


@pytest.mark.parametrize("k,n", [(2, 2), (3, 2)])
def test_gauge_dimension_ym(k, n):
    g = gauge_lie_algebra(build_finite_ym(k, n))
    assert g.dim == k * (n * n - 1)
    assert g.report.passed


def test_gauge_generators_span_brackets():
    g = gauge_lie_algebra(build_hs_model(2))
    mats = [m for _, m in g.generators]
    for x in mats:
        for y in mats:
            assert g.span.residual(commutator(x, y)) < 1e-8


def two_pass_brackets(triple, g):
    """Oracle: the bracket-form and bracket-closure maxima over every pair of
    basis elements of u(A), as two separate passes."""
    xs = np.stack([x for x, _ in g.generators])
    ts = np.stack([t for _, t in g.generators])
    n = triple.hilbert_dim

    def image(x):
        return triple.pi(x) + triple.j_conjugate(triple.pi(x))

    rows = range(len(ts) - 1)
    form = max_op_norm(commutator(ts[i], ts[i + 1:]) - image(commutator(xs[i], xs[i + 1:]))
                       for i in rows)
    closure = max_op_norm((commutator(ts[i], ts[i + 1:])
                           - g.span.project(commutator(ts[i], ts[i + 1:]))).reshape(-1, 1, n * n)
                          for i in rows)
    return form, closure


def generator_brackets(triple, g):
    """Oracle: the two bracket maxima over X in the basis of u(A) and Y in the
    certified Lie generating set, one pair at a time."""
    def image(x):
        return triple.pi(x) + triple.j_conjugate(triple.pi(x))

    form = closure = 0.0
    for y in lie_generating_set(triple.algebra):
        for x, t in g.generators:
            br = commutator(t, image(y))
            form = max(form, op_norm(br - image(commutator(x, y))))
            closure = max(closure, float(g.span.residual(br)))
    return form, closure


@pytest.mark.parametrize("spec", ["hs:N=3", "ym:k=2,N=2", "ym:k=2,N=2,lam=0.1", "ym:k=5,N=2"])
def test_bracket_records_match_two_pass_oracle(spec):
    """The records are the maxima over basis x certified Lie generators, and
    their verdicts are those of the basis-pair tables they replaced."""
    triple = load_model(spec)
    g = gauge_lie_algebra(triple)
    full = two_pass_brackets(triple, g)
    for name, want, (worst, _) in zip(("bracket-form", "bracket-closure"),
                                      generator_brackets(triple, g), full):
        record = g.report.record(name)
        assert record.residual == pytest.approx(want, rel=1e-9, abs=1e-13)
        assert record.passed and worst <= record.tolerance
        assert name not in g.report.witnesses  # a passing record keeps no witness


# -- perturbations ------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_perturbation_certificates(seed):
    t = build_hs_model(2)
    p = random_perturbation(t, n_terms=3, seed=seed)
    assert len(p) == 3
    assert p.normalization_residual() < 1e-10
    assert p.flip_residual() < 1e-10


def test_identity_perturbation_acts_trivially():
    t = build_finite_ym(2, 2)
    e = t.algebra.unit
    p = Perturbation(t, [(e, e)])
    assert op_norm(p.act_on(t.dirac) - t.dirac) < 1e-12


def test_from_unitary_is_a_homomorphism():
    t = build_hs_model(2)
    u = random_unitary(t.algebra, seed=7)
    v = random_unitary(t.algebra, seed=8)
    lhs = pert_product(from_unitary(t, u), from_unitary(t, v))
    rhs = from_unitary(t, u @ v)
    assert op_norm(lhs.act_on(t.dirac) - rhs.act_on(t.dirac)) < 1e-10
    a, b = lhs.terms[0]
    assert np.allclose(a, u @ v)
    assert np.allclose(b, adjoint(v) @ adjoint(u))


@pytest.mark.parametrize("seed", [0, 4])
def test_product_keeps_certificates_and_composes(seed):
    t = build_hs_model(2)
    p = random_perturbation(t, n_terms=2, seed=seed)
    r = random_perturbation(t, n_terms=3, seed=seed + 100)
    prod = pert_product(p, r)
    assert prod.normalization_residual() < 1e-8
    assert prod.flip_residual() < 1e-8
    # the action composes: (pr)(D) = p(r(D))
    assert op_norm(prod.act_on(t.dirac) - p.act_on(r.act_on(t.dirac))) < 1e-10


def kron_flip_residual(p):
    """The flip residual straight from its definition, never cached."""
    pi = p.triple.pi
    lhs = sum(np.kron(pi(a), pi(b).T) for a, b in p.terms)
    rhs = sum(np.kron(adjoint(pi(b)), np.conj(pi(a))) for a, b in p.terms)
    return op_norm(lhs - rhs)


def test_flip_residual_is_computed_once(monkeypatch):
    t = build_hs_model(3)
    p = random_perturbation(t, n_terms=3, seed=5)
    r = random_perturbation(t, n_terms=2, seed=6)
    # a one-term pair of generic elements breaks the flip, so the value is not 0
    broken = Perturbation(t, [(t.algebra.random_element(seed=1),
                               t.algebra.random_element(seed=2))], validate=False)
    perts = [p, pert_product(p, r), broken]
    want = [kron_flip_residual(q) for q in perts]
    assert want[2] > 0.1
    assert [q.flip_residual() for q in perts] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def no_svd(*_):
        raise AssertionError("flip residual recomputed")

    monkeypatch.setattr("ncgauge.gauge.op_norm", no_svd)
    assert [q.flip_residual() for q in perts] == pytest.approx(want, rel=1e-12, abs=1e-15)


def broken_pair(t):
    """A one-term pair of generic elements: it breaks the flip, so the residual is not 0."""
    return Perturbation(t, [(t.algebra.random_element(seed=1),
                             t.algebra.random_element(seed=2))], validate=False)


FLIP_TRIPLES = {
    "hs:N=2": lambda: build_hs_model(2),
    "hs:N=3": lambda: build_hs_model(3),
    "ym:k=2,N=2": lambda: build_finite_ym(2, 2),
    "ym:k=3,N=2": lambda: build_finite_ym(3, 2),
    "ym:k=2,N=2,lam=0.1": lambda: load_model("ym:k=2,N=2,lam=0.1"),
    "readme-diagonal": lambda: triple_from_config(readme_config("diagonal")),
}


def flip_cases(t):
    p = random_perturbation(t, n_terms=3, seed=3)
    r = from_unitary(t, random_unitary(t.algebra, seed=4))
    return [p, r, pert_product(p, r), broken_pair(t)]


@pytest.mark.parametrize("name", FLIP_TRIPLES)
def test_flip_residual_matches_the_kronecker_oracle(name):
    """The norm in A tensor A-op equals the left-right operator norm on H."""
    perts = flip_cases(FLIP_TRIPLES[name]())
    want = [kron_flip_residual(q) for q in perts]
    assert want[-1] > 0.1
    got = [Perturbation(q.triple, q.terms, validate=False).flip_residual() for q in perts]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name", ["hs:N=3", "ym:k=3,N=2"])
def test_flip_residual_stays_in_the_algebra(monkeypatch, name):
    """No norm larger than d^2 x d^2 is taken, d the algebra's own matrix size."""
    t = FLIP_TRIPLES[name]()
    d = t.algebra.ambient
    assert d * d < t.hilbert_dim ** 2
    shapes = []

    def spy(m):
        shapes.append(np.shape(m))
        return op_norm(m)

    monkeypatch.setattr("ncgauge.gauge.op_norm", spy)
    for q in flip_cases(t):
        q.flip_residual()
    assert shapes
    assert max(max(s) for s in shapes) <= d * d


@pytest.mark.parametrize("validate", [True, False])
def test_term_outside_the_algebra_rejected(validate):
    t = build_finite_ym(2, 1)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(AlgebraError):
        Perturbation(t, [(swap, swap)], validate=validate)


def test_bad_normalization_rejected():
    t = build_hs_model(2)
    e = t.algebra.unit
    with pytest.raises(MembershipViolated):
        Perturbation(t, [(0.5 * e, e)])


def test_bad_flip_rejected():
    t = build_finite_ym(2, 1)
    a = np.diag([2.0, 0.5]).astype(complex)
    b = np.diag([0.5, 2.0]).astype(complex)
    # a b = 1 holds but the flip certificate fails
    with pytest.raises(MembershipViolated):
        Perturbation(t, [(a, b)])


# -- fluctuations -------------------------------------------------------------


def test_pure_gauge_fluctuation_is_conjugation():
    for t in (build_hs_model(2), build_finite_ym(2, 2)):
        u = random_unitary(t.algebra, seed=11)
        omega = gauge_field(from_unitary(t, u))
        assert omega.self_adjoint_residual() < 1e-10
        assert one_form_space(t).residual(omega.matrix) < 1e-8
        big_u = gauge_matrix(t, u)
        lhs = fluctuate(t, omega)
        rhs = big_u @ t.dirac @ adjoint(big_u)
        assert op_norm(lhs - rhs) < 1e-8


def test_doubled_action_matches_fluctuation():
    t = build_hs_model(2)
    for seed in (0, 1):
        p = random_perturbation(t, n_terms=2, seed=seed)
        lhs = doubled_fluctuation(t, p)
        rhs = fluctuate(t, gauge_field(p))
        assert op_norm(lhs - rhs) < 1e-8


def test_gauge_field_rejects_skew_result():
    t = build_hs_model(2)
    h = t.algebra.basis[1] + t.algebra.basis[2]
    p = Perturbation(t, [(t.algebra.unit, h)], validate=False)
    with pytest.raises(MembershipViolated):
        gauge_field(p)


def test_fluctuate_rejects_non_self_adjoint():
    t = build_hs_model(2)
    with pytest.raises(ValueError):
        fluctuate(t, 1j * np.eye(t.hilbert_dim))


def test_gauge_transform_field_matches_direct_conjugation():
    t = build_hs_model(2)
    omega0 = gauge_field(random_perturbation(t, n_terms=2, seed=21))
    omega = gauge_field(from_unitary(t, random_unitary(t.algebra, seed=22)))
    u = random_unitary(t.algebra, seed=23)
    new_bg, new_rel = gauge_transform_field(t, omega0, omega, u)
    pu = t.pi(u)
    pus = adjoint(pu)
    d = t.dirac
    want_bg = pu @ omega0.matrix @ pus + pu @ (d @ pus - pus @ d)
    want_rel = pu @ omega.matrix @ pus
    assert op_norm(new_bg.matrix - want_bg) < 1e-8
    assert op_norm(new_rel.matrix - want_rel) < 1e-8
    assert covariance_residual(t, u, omega0 + omega, new_bg + new_rel) <= TOL_DERIVED


def test_gauge_transform_with_zero_relative_field():
    t = build_finite_ym(2, 2)
    u = random_unitary(t.algebra, seed=31)
    new_bg, new_rel = gauge_transform_field(
        t, OneForm.zero(t), OneForm.zero(t), u)
    pu = t.pi(u)
    pus = adjoint(pu)
    want = pu @ (t.dirac @ pus - pus @ t.dirac)
    assert op_norm(new_bg.matrix - want) < 1e-8
    assert op_norm(new_rel.matrix) < 1e-12
