"""Localization over the spectrum of A_J and the bundle bookkeeping."""

import importlib
import json

import numpy as np
import pytest

from ncgauge import (
    FiberDecomposition,
    FiniteStarAlgebra,
    ProjectionFamily,
    RealSpectralTriple,
    Subspace,
    adjoint,
    build_finite_ym,
    build_hs_model,
    c_d_algebra,
    check_axioms,
    conjugation_bound,
    fiber_gauge_action,
    frobenius,
    group_bundle_dims,
    localize,
    norm_is_sup,
    omega_bundle,
    one_form_space,
    op_norm,
    random_unitary,
    skew_hermitian_basis,
)
from ncgauge import cli, linalg, spectral, staralg
from ncgauge.linalg import TOL_DERIVED, commutator, commutator_map_norm
from ncgauge.models import load_model, triple_from_config
from test_spectral import CONFIG_FIXTURES, conjugate_triple

localize_module = importlib.import_module("ncgauge.localize")


def test_hs_gives_a_single_fiber():
    t = build_hs_model(2)
    dec = localize(t)
    assert dec.report.passed
    assert len(dec) == 1
    assert dec.fiber_dims == dec.report.context["fiber_dims"] == [4]
    assert dec.report.context["omega_fiber_dims"] == [4]
    assert dec.report.context["aj_dim"] == 1


@pytest.mark.parametrize("k,n", [(2, 2), (3, 2)])
def test_ym_fiber_dims(k, n):
    t = build_finite_ym(k, n)
    dec = localize(t)
    assert dec.report.passed
    assert len(dec) == k
    assert dec.fiber_dims == [n * n] * k
    assert sum(dec.fiber_dims) == t.algebra.dim


@pytest.mark.parametrize("k,n", [(2, 2), (3, 2), (2, 1), (3, 1)])
def test_conjugated_triple_keeps_its_fibers(k, n):
    # conjugation rotates the frame: the maps that cut out A_J (all of A when n = 1)
    # and its center are then zero only up to rounding, which must not count as rank
    t = build_finite_ym(k, n)
    rng = np.random.default_rng(k)
    u = np.linalg.qr(rng.standard_normal((t.hilbert_dim,) * 2)
                     + 1j * rng.standard_normal((t.hilbert_dim,) * 2))[0]
    moved = localize(conjugate_triple(t, u))
    assert moved.report.context["fiber_dims"] == localize(t).report.context["fiber_dims"]
    assert moved.report.context["fiber_dims"] == [n * n] * k


def test_commutative_algebra_has_scalar_fibers():
    t = build_finite_ym(3, 1)
    dec = localize(t)
    assert dec.report.passed
    assert dec.fiber_dims == [1, 1, 1]
    assert dec.report.context["aj_dim"] == 3


def test_localize_is_deterministic():
    # the base is a fixed draw: two localizations of fresh copies give the same projections
    d1 = localize(build_finite_ym(2, 2))
    d2 = localize(build_finite_ym(2, 2))
    assert d1.points == d2.points
    for (_, p), (_, q) in zip(d1.base, d2.base):
        assert np.array_equal(p, q)


@pytest.mark.parametrize("spec", ["hs:N=3,seed=1", "config:full-left-right"])
def test_localize_output_does_not_depend_on_the_seed(capsys, tmp_path, spec):
    # the model fixes its own Dirac draw, so --seed reaches nothing but context.seed
    if spec.startswith("config:"):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(CONFIG_FIXTURES[spec.removeprefix("config:")]))
        spec = str(path)
    docs = []
    for seed in (0, 7):
        assert cli.main(["localize", spec, "--seed", str(seed)]) == 0
        docs.append(json.loads(capsys.readouterr().out))
        assert docs[-1]["context"].pop("seed") == seed
    assert docs[0] == docs[1]


def non_faithful():
    """A = C^2 on H = C, with pi killing the second summand: a *-representation, not injective."""
    alg = staralg.diagonal_algebra(2)
    return RealSpectralTriple(alg, [[[1.0]], [[0.0]]], np.zeros((1, 1)), np.eye(1),
                              eps=1, eps_prime=1, label="non-faithful")


def test_a_non_injective_pi_fails_cross_representation_norm():
    t = non_faithful()
    assert check_axioms(t).record("representation-multiplicative").passed
    assert not check_axioms(t).record("representation-injective").passed
    dec = localize(t)
    record = dec.report.record("cross-representation-norm")
    assert (record.residual, record.passed) == (1.0, False)
    # the sampled oracle sees it too: e_22 has norm 1 in A and 0 on H
    sampled = norm_is_sup(dec, np.diag([0.0, 1.0]))
    assert not sampled.record("cross-representation-norm").passed
    assert sampled.record("norm-sup-identity").passed


def test_norm_is_sup_against_block_oracle():
    k, n = 2, 2
    t = build_finite_ym(k, n)
    dec = localize(t)
    for seed in range(5):
        a = t.algebra.random_element(seed=seed)
        rep = norm_is_sup(dec, a)
        assert rep.passed
        block_norms = [op_norm(a[x * n:(x + 1) * n, x * n:(x + 1) * n])
                       for x in range(k)]
        assert abs(rep.context["norm"] - max(block_norms)) < 1e-10
        assert np.allclose(sorted(rep.context["fiber_norms"]),
                           sorted(block_norms), atol=1e-10)


def test_fiber_gauge_action():
    for t in (build_hs_model(2), build_finite_ym(2, 2)):
        dec = localize(t)
        for seed in range(3):
            u = random_unitary(t.algebra, seed=seed)
            a = t.algebra.random_element(seed=seed + 50)
            assert fiber_gauge_action(dec, u, a).passed


@pytest.mark.parametrize("k,n,cd", [(2, 2, 8), (3, 2, 12)])
def test_omega_bundle_sums(k, n, cd):
    t = build_finite_ym(k, n)
    dec = localize(t)
    rep = omega_bundle(dec)
    assert rep.passed
    assert rep.context["cd_dim"] == cd
    assert rep.context["omega_fiber_dims"] == [cd // k] * k
    assert sum(rep.context["omega_fiber_dims"]) == cd


@pytest.mark.parametrize("spec", ["hs:N=2", "hs:N=4", "ym:k=2,N=2", "ym:k=3,N=3"])
def test_omega_bundle_forms_each_point_image_once(monkeypatch, spec):
    # one stacked pi for the base points in localize, kept for omega_bundle, and no gauge samples
    t = load_model(spec)
    pi, calls = t.pi, []

    def spy(a):
        calls.append(np.shape(a))
        return pi(a)

    monkeypatch.setattr(t, "pi", spy)
    dec = localize(t)
    stacked = (len(dec.base),) + dec.base.projections[0].shape
    assert calls.count(stacked) == 1
    assert np.array_equal(dec.cuts, pi(np.stack(dec.base.projections)))
    calls.clear()
    assert omega_bundle(dec).passed
    assert calls == []


def loop_omega_residuals(dec, n_gauge_samples=3, seed=0, cd=None):
    """The per-matrix loops behind one-forms-localize and gauge-action-localizes (the oracle).

    The cut loop is the per-point record one-forms-localize replaced: the
    distance of pi(p_x) w from the span of pi(p_x) C_D, one span per point.
    ``cd`` stands in for C_D when given.
    """
    t = dec.triple
    cuts = [t.pi(p) for p in dec.base.projections]
    omega = one_form_space(t).basis
    cd = c_d_algebra(t)[0] if cd is None else cd
    fibers = [Subspace.from_spanning(pp @ cd.basis) for pp in cuts]
    cut_worst = max((fib.residual(pp @ w) for pp, fib in zip(cuts, fibers) for w in omega),
                    default=0.0)
    gauge_worst = 0.0
    for i in range(n_gauge_samples):
        pu = t.pi(random_unitary(t.algebra, seed=seed + i))
        for w in omega:
            moved = pu @ w @ adjoint(pu)
            for pp in cuts:
                gauge_worst = max(gauge_worst, op_norm(pp @ moved - pu @ (pp @ w) @ adjoint(pu)))
    return cut_worst, gauge_worst


def non_central(spec):
    """A base of non-central projections, with its fiber dimensions read as traces."""
    t = load_model(spec)
    a = t.algebra
    corner = a.basis[0]  # a rank-one matrix unit: a projection, central in no block M_N, N > 1
    base = ProjectionFamily([corner, a.unit - corner], unit=a.unit)
    kappa = max(commutator_map_norm(p, a.basis) for p in base.projections)
    cuts = t.pi(np.stack(base.projections))
    return FiberDecomposition(t, base, a.cut_dims(np.stack(base.projections)),
                              c_d_algebra(t)[0].cut_dims(cuts), localize(t).report, kappa, cuts)


@pytest.mark.parametrize("spec", ["hs:N=2", "hs:N=3", "ym:k=2,N=2"])
def test_omega_bundle_residuals_bound_the_per_matrix_loops(spec):
    """On a base of non-central projections the gauge residual is O(1).

    Both records are derived bounds: gauge-action-localizes is at least the
    sampled loop (each one-form has |w|_F = 1), and one-forms-localize at
    least the per-point loop, up to the rounding of the loop's own products.
    """
    dec = non_central(spec)
    rep = omega_bundle(dec)
    cut_worst, gauge_worst = loop_omega_residuals(dec)
    assert gauge_worst > 0.1
    assert rep.record("gauge-action-localizes").residual >= gauge_worst
    eps = dec.triple.hilbert_dim * np.finfo(float).eps
    assert cut_worst <= rep.record("one-forms-localize").residual + eps


def sampled_records(dec, seed=0, draws=100):
    """The sampling loops the derived records replaced, with the seeds ``localize`` gave them.

    Returns, per record, the worst sampled value (what the record used to
    read) and the worst value divided by the norms its derived bound names.
    The three norm records, which ``localize`` sampled 5 times, take
    ``draws`` elements each.
    """
    t = dec.triple
    alg = t.algebra
    sup, cross, rebuilt = [], [], []
    for i in range(draws):
        a = alg.random_element(seed=seed + 101 + i)
        rep = norm_is_sup(dec, a)
        gap = abs(rep.context["norm"] - max(rep.context["fiber_norms"]))
        sup.append((rep.record("norm-sup-identity").residual, gap / frobenius(a)))
        value = rep.record("cross-representation-norm").residual
        cross.append((value, value * max(1.0, rep.context["norm"]) / frobenius(a)))
        b = a / frobenius(a)
        value = op_norm(sum(p @ b for p in dec.base.projections) - b)
        rebuilt.append((value, value))
    rng = np.random.default_rng(seed)
    mult = []
    for _ in range(10):
        a = alg.random_element(seed=int(rng.integers(2 ** 31)))
        b = alg.random_element(seed=int(rng.integers(2 ** 31)))
        for _, p in dec.base:
            value = op_norm(p @ (a @ b) - (p @ a) @ (p @ b))
            mult.append((value, value / (frobenius(a) * frobenius(b))))
    conj = []
    for i in range(5):
        a = alg.random_element(seed=seed + 307 + i)
        u = random_unitary(alg, seed=seed + 211 + i)
        value = fiber_gauge_action(dec, u, a).record("fiberwise-conjugation").residual
        conj.append((value, value / frobenius(a)))
    cut, gauge = loop_omega_residuals(dec, seed=seed)
    central = max(op_norm(commutator(p, b)) for _, p in dec.base for b in alg.basis)
    return {"base-central-in-A": (central, central),
            "section-multiplicative": tuple(map(max, zip(*mult))),
            "fiberwise-conjugation": tuple(map(max, zip(*conj))),
            "gauge-action-localizes": (gauge, gauge),
            "one-forms-localize": (cut, cut),
            "norm-sup-identity": tuple(map(max, zip(*sup))),
            "cross-representation-norm": tuple(map(max, zip(*cross))),
            "section-reconstruction": tuple(map(max, zip(*rebuilt)))}


DERIVED_RECORDS = ("base-central-in-A", "section-multiplicative", "fiberwise-conjugation",
                   "gauge-action-localizes", "norm-sup-identity", "cross-representation-norm",
                   "section-reconstruction", "one-forms-localize")
DERIVED_PRESETS = ["hs:N=3", "ym:k=2,N=2", "ym:k=3,N=3", "ym:k=2,N=2,lam=0.3", "hs:N=7",
                   "ym:k=2,N=2,lam=0.1", "hs:N=4", "ym:k=2,N=3", "ym:k=3,N=2,lam=0.3"]


# the records each fixture fails: hopping breaks centrality in C_D, and two configs have
# no A_J to localize over
FAILING = {"ym:k=2,N=2,lam=0.1": {"base-central-in-CD"},
           "ym:k=2,N=2,lam=0.3": {"base-central-in-CD"},
           "ym:k=3,N=2,lam=0.3": {"base-central-in-CD"},
           "config:diagonal-complex": {"base-central-in-CD"},
           "config:diagonal-flip": {"base-central-in-CD"},
           "config:blocks-symmetric": {"subalgebra-closure"},
           "config:full-random": {"subalgebra-closure"}}


LOCALIZING_CONFIGS = [name for name in sorted(CONFIG_FIXTURES)
                      if "subalgebra-closure" not in FAILING.get(f"config:{name}", ())]


def decomposition(spec):
    """A preset's or a config fixture's localization, or a ``corner:`` preset's non-central base."""
    if spec.startswith("corner:"):
        return non_central(spec.removeprefix("corner:"))
    if spec.startswith("config:"):
        return localize(triple_from_config(CONFIG_FIXTURES[spec.removeprefix("config:")]))
    return localize(load_model(spec))


CORNERS = ["corner:hs:N=3", "corner:ym:k=2,N=2"]
PRESETS = DERIVED_PRESETS + ["hs:N=2", "hs:N=3,seed=1", "ym:k=2,N=1", "ym:k=3,N=1"]


@pytest.mark.parametrize("spec", DERIVED_PRESETS + CORNERS
                         + [f"config:{name}" for name in LOCALIZING_CONFIGS])
def test_derived_bounds_hold_the_sampled_values(spec):
    """Each sample, divided by the norms its bound names, is at most the derived residual.

    The identities are exact, but a computed sample also carries the
    rounding of its own matrix products, up to about n eps for n x n
    matrices of unit norm; that much is allowed on top of each bound.  The
    per-point loop of ``one-forms-localize`` measures distances from spans
    that each come from an SVD of up to n^2 rows, so it is allowed n^2 eps.
    """
    corner = spec.startswith("corner:")
    dec = decomposition(spec)
    t = dec.triple
    eps = np.finfo(float).eps
    partition = op_norm(sum(dec.base.projections) - t.algebra.unit)
    derived = {"section-multiplicative": (dec.kappa_a, t.algebra.ambient),
               "fiberwise-conjugation": (conjugation_bound(dec).residual, t.algebra.ambient),
               "gauge-action-localizes": (omega_bundle(dec).record("gauge-action-localizes")
                                          .residual, t.hilbert_dim),
               "one-forms-localize": (omega_bundle(dec).record("one-forms-localize").residual,
                                      t.hilbert_dim ** 2),
               "norm-sup-identity": (np.sqrt(len(dec)) * dec.kappa_a + partition, t.algebra.ambient),
               "section-reconstruction": (partition, t.algebra.ambient),
               "cross-representation-norm": (float(t.algebra.dim - t.pi_rank()), t.hilbert_dim)}
    sampled = sampled_records(dec)
    for name, (bound, n) in derived.items():
        assert sampled[name][1] <= bound + n * eps, name
    if corner:  # the base is not central: each bound that kappa_A carries is met by a real gap
        for name in ("section-multiplicative", "fiberwise-conjugation", "gauge-action-localizes",
                     "norm-sup-identity"):
            assert sampled[name][1] > 0.1, name
    else:
        rep = dec.report
        assert rep.record("base-central-in-A").residual == dec.kappa_a
        assert rep.record("section-multiplicative").residual == dec.kappa_a
        assert dec.kappa_a >= sampled["base-central-in-A"][0]
        for name in ("norm-sup-identity", "section-reconstruction", "cross-representation-norm"):
            assert rep.record(name).residual == derived[name][0], name


@pytest.mark.parametrize("spec", DERIVED_PRESETS
                         + [f"config:{name}" for name in sorted(CONFIG_FIXTURES)])
@pytest.mark.parametrize("seed", [0, 3])
def test_derived_verdicts_equal_the_sampled_ones(capsys, tmp_path, spec, seed):
    """``localize`` gives each derived record the verdict its sampling loop gave."""
    failing = FAILING.get(spec, set())
    if spec.startswith("config:"):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(CONFIG_FIXTURES[spec.removeprefix("config:")]))
        spec = str(path)
    code = cli.main(["localize", spec, "--seed", str(seed)])
    doc = json.loads(capsys.readouterr().out)
    verdicts = {c["name"]: c["passed"] for c in doc["checks"]}
    assert {name for name, ok in verdicts.items() if not ok} == failing
    assert code == (1 if failing else 0)
    if "closure_error" in doc["context"]:  # no base: none of the records is made
        assert not set(verdicts) & set(DERIVED_RECORDS)
        return
    t = load_model(spec, default_seed=seed)
    sampled = sampled_records(localize(t), seed=seed)
    for name, (value, _) in sampled.items():
        assert verdicts[name] == (value <= TOL_DERIVED), name


def test_group_bundle_rows():
    t = build_finite_ym(3, 2)
    dec = localize(t)
    rows, rep = group_bundle_dims(dec)
    assert rep.passed
    assert len(rows) == 3
    for row in rows:
        assert row["fiber_dim"] == 4
        assert row["unitary_dim"] == 4
        assert row["gauge_fiber_dim"] == 3
    assert rep.context["u_A_dim"] == 12
    assert rep.context["gauge_dim"] == 9


def test_group_bundle_hs():
    dec = localize(build_hs_model(2))
    rows, rep = group_bundle_dims(dec)
    assert rep.passed
    assert rows == [{"point": rows[0]["point"], "fiber_dim": 4,
                     "unitary_dim": 4, "gauge_fiber_dim": 3}]


def wrapped_fibers(dec):
    """Each fiber p_x A, as one span per point, verified as a *-algebra with unit p_x."""
    basis = dec.triple.algebra.basis
    return [FiniteStarAlgebra(Subspace.from_spanning(p @ basis).basis, p) for _, p in dec.base]


@pytest.mark.parametrize("spec", ["hs:N=3", "ym:k=2,N=2", "ym:k=3,N=2"])
def test_group_bundle_rows_equal_skew_basis_counts(spec):
    # the rows read dim_C of each fiber; dim_R of its skew-hermitian part must agree
    t = load_model(spec)
    dec = localize(t)
    rows, rep = group_bundle_dims(dec)
    assert [r["unitary_dim"] for r in rows] == [len(skew_hermitian_basis(f))
                                                 for f in wrapped_fibers(dec)]
    assert rep.context["u_A_dim"] == len(skew_hermitian_basis(t.algebra))


@pytest.mark.parametrize("spec", ["hs:N=3", "hs:N=4", "ym:k=2,N=1", "ym:k=2,N=3", "ym:k=3,N=3",
                                  "ym:k=2,N=2,lam=0.1", "ym:k=3,N=2,lam=0.3"])
def test_fiber_spans_are_the_algebras_base_centrality_promises(spec):
    # oracle: the fiber algebras localize used to wrap, with the closure they verified
    dec = localize(load_model(spec))
    assert dec.report.record("base-central-in-A").passed
    fibers = wrapped_fibers(dec)
    assert [f.dim for f in fibers] == dec.fiber_dims == dec.report.context["fiber_dims"]
    assert max(max(f.closure_residuals) for f in fibers) <= 1e-12


def test_hopping_breaks_cd_centrality_but_localizes():
    lam = 0.3 * (np.ones((2, 2)) - np.eye(2))
    t = build_finite_ym(2, 2, hopping=lam)
    dec = localize(t)
    # the algebra side still cuts cleanly
    assert dec.report.record("partition-of-unity").passed
    assert dec.report.record("base-central-in-A").passed
    assert dec.report.record("fiber-dimension-sum").passed
    assert dec.report.record("section-multiplicative").passed
    # but the transporters stop the base from being central on the D side
    assert not dec.report.record("base-central-in-CD").passed
    assert not dec.report.passed
    # the dimension bookkeeping stays exact regardless
    rep = omega_bundle(dec)
    assert rep.passed
    assert rep.context["cd_dim"] == 16
    assert rep.context["omega_fiber_dims"] == [8, 8]


def serve_rotated_cd(monkeypatch, seed):
    """Make localize see C_D through its orthonormal basis mixed by a random unitary."""
    real = localize_module.c_d_algebra

    def rotated(triple):
        cd, grading = real(triple)
        m = len(cd.basis)
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        mixed = np.einsum("ij,jkl->ikl", u, np.stack(cd.basis))
        return FiniteStarAlgebra(list(mixed), np.eye(triple.hilbert_dim)), grading

    monkeypatch.setattr(localize_module, "c_d_algebra", rotated)


@pytest.mark.parametrize("spec", ["ym:k=2,N=2,lam=0.1", "ym:k=3,N=2,lam=0.05"])
def test_base_central_in_cd_does_not_depend_on_the_cd_basis(monkeypatch, spec):
    want = localize(load_model(spec)).report.record("base-central-in-CD")
    assert not want.passed
    for seed in range(3):
        with monkeypatch.context() as m:
            serve_rotated_cd(m, seed)
            got = localize(load_model(spec)).report.record("base-central-in-CD")
        assert not got.passed
        assert abs(got.residual - want.residual) <= 1e-12 * want.residual


@pytest.mark.parametrize("spec", ["hs:N=3", "hs:N=4", "ym:k=2,N=1", "ym:k=2,N=3"])
def test_base_central_in_cd_passes_on_presets(monkeypatch, spec):
    assert localize(load_model(spec)).report.record("base-central-in-CD").passed
    serve_rotated_cd(monkeypatch, 0)
    assert localize(load_model(spec)).report.record("base-central-in-CD").passed


@pytest.mark.parametrize("command,spec,algebras,nullspaces", [
    ("localize", "hs:N=4", 3, 1), ("localize", "ym:k=2,N=3", 3, 1),
    ("localize", "ym:k=3,N=3", 3, 1), ("check", "hs:N=4", 3, 2), ("check", "ym:k=3,N=3", 3, 2),
    ("check", "orbifold:q=3,p=1,m=2", 2, 1)])
def test_each_algebra_is_verified_once(count_calls, capsys, command, spec, algebras, nullspaces):
    # localize forms A, A_J and C_D but wraps only A and A_J: C_D is a span, closed once
    # (it is kept on its triple), and the fibers stay spans and Z(A_J) is never built.
    # check wraps A, A_J and Z(A), whose unit is A's: no least-squares unit solve.
    built = count_calls(staralg.FiniteStarAlgebra, "__init__")
    closed = count_calls(spectral, "c_d_algebra")
    nulls = count_calls(linalg, "nullspace")
    solves = count_calls(np.linalg, "lstsq")
    tables = count_calls(staralg, "pair_products")
    assert cli.main([command, spec]) == 0
    capsys.readouterr()
    c_d_spans = len({id(args[0]) for args in closed})
    assert c_d_spans == (command == "localize")
    assert (len(built) + c_d_spans, len(nulls), len(solves)) == (algebras, nullspaces, 0)
    # one product table per (summand, block) of each algebra, none across two summands
    assert len(tables) == sum(len(blocks) for args in built for _, blocks in args[0]._summands)


def span_dims(dec):
    """The fiber, one-form and even dimensions as one span per point: the oracle of the traces."""
    t = dec.triple
    even = Subspace.from_spanning(np.concatenate([t.pi_images, np.eye(t.hilbert_dim)[None]]))
    stacks = {"fiber_dims": t.algebra.basis, "omega_fiber_dims": c_d_algebra(t)[0].basis,
              "fiber_even_dims": even.basis}
    return {name: [Subspace.from_spanning(p @ basis).dim
                   for p in (dec.base.projections if name == "fiber_dims" else dec.cuts)]
            for name, basis in stacks.items()}


@pytest.mark.parametrize("spec", PRESETS + CORNERS
                         + [f"config:{name}" for name in LOCALIZING_CONFIGS])
def test_trace_dimensions_equal_the_per_point_spans(spec):
    dec = decomposition(spec)
    want = span_dims(dec)
    assert dec.fiber_dims == want["fiber_dims"]
    assert dec.omega_fiber_dims == want["omega_fiber_dims"]
    assert omega_bundle(dec).context["fiber_even_dims"] == want["fiber_even_dims"]
    if not spec.startswith("corner:"):
        assert dec.report.context["fiber_dims"] == want["fiber_dims"]


def serve_pi_a_as_cd(monkeypatch):
    """Make localize take pi(A), which holds no one-form, for C_D: a mutant of c_d_algebra."""
    real = localize_module.c_d_algebra

    def pi_a(triple):
        span = Subspace.from_spanning(triple.pi_images)
        return FiniteStarAlgebra(span.basis, triple.pi(triple.algebra.unit)), real(triple)[1]

    monkeypatch.setattr(localize_module, "c_d_algebra", pi_a)
    return pi_a


@pytest.mark.parametrize("spec", ["ym:k=2,N=2,lam=0.1", "ym:k=3,N=2,lam=0.3", "config:blocks-left",
                                  "config:diagonal-flip", "config:full-left-offdiagonal"])
def test_one_forms_localize_fails_when_cd_misses_the_one_forms(monkeypatch, spec):
    # on these triples some one-form lies at distance about 1 from pi(A): the derived
    # record is O(1) on the mutant, and still bounds the per-point loop
    pi_a = serve_pi_a_as_cd(monkeypatch)
    dec = decomposition(spec)
    t = dec.triple
    record = omega_bundle(dec).record("one-forms-localize")
    assert not record.passed and record.residual > 0.1
    cut_worst = loop_omega_residuals(dec, n_gauge_samples=0, cd=pi_a(t)[0])[0]
    assert cut_worst <= record.residual + t.hilbert_dim ** 2 * np.finfo(float).eps


@pytest.mark.parametrize("spec,points", [("hs:N=3", 1), ("ym:k=2,N=2", 2), ("ym:k=3,N=3", 3)])
def test_localize_spans_nothing_per_point(count_calls, spec, points):
    # with A_J, C_D, the one-forms and u(A) kept on the triple, a second pass spans two
    # things, whatever the number of points: pi(A) + C1, and the gauge generators
    t = load_model(spec)

    def bundles():
        dec = localize(t)
        omega_bundle(dec)
        group_bundle_dims(dec)
        return len(dec)

    assert bundles() == points
    complex_calls = count_calls(linalg.Subspace, "from_spanning")
    real_calls = count_calls(linalg.RealSpan, "from_spanning")
    bundles()
    assert (len(complex_calls), len(real_calls)) == (1, 1)


@pytest.mark.parametrize("spec", PRESETS + CORNERS
                         + [f"config:{name}" for name in LOCALIZING_CONFIGS])
def test_centrality_records_read_zero_or_one(spec):
    """x -> [p, x] on a *-algebra holding p has spectrum in {-1, 0, 1}: its norm is 0 or 1.

    The corner bases read 1 for both records, the hopping presets and two
    fixtures read 1 for ``base-central-in-CD``, and every other value is 0
    up to rounding.
    """
    dec = decomposition(spec)
    t = dec.triple
    cd = c_d_algebra(t)[0]
    values = {"base-central-in-A": dec.kappa_a,
              "base-central-in-CD": max(commutator_map_norm(pp, cd.basis) for pp in dec.cuts)}
    if not spec.startswith("corner:"):
        for name, value in values.items():
            assert dec.report.record(name).residual == value, name
    for name, value in values.items():
        failing = spec.startswith("corner:") or name in FAILING.get(spec, ())
        assert (abs(value - 1.0) if failing else value) < 1e-12, name
