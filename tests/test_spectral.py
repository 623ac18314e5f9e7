import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgauge.linalg import (TOL_DERIVED, AntiLinearOp, Subspace, adjoint, as_cmatrix,
                            commutator, commutator_map_norm, op_norm)
from ncgauge.models import build_finite_ym, build_hs_model, model_from_string, triple_from_config
from ncgauge.spectral import (
    OneForm,
    RealSpectralTriple,
    SpectralInputError,
    c_d_algebra,
    check_axioms,
    compute_aj,
    one_form_space,
    real_structure_residuals,
    transpose_permutation,
    verify_aj_properties,
)
from ncgauge.staralg import (AlgebraError, NotClosed, diagonal_algebra, full_matrix_algebra,
                             random_unitary)
from conftest import c_d_certificate


def test_transpose_permutation_acts_on_vec():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        p = transpose_permutation(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.allclose(p @ m.reshape(-1), m.T.reshape(-1))
        assert np.allclose(p @ p, np.eye(n * n))


def functional_opposite(triple, b):
    """Oracle: J pi(b)* J^-1 evaluated column by column through the
    anti-linear action, never through the kernel identity being tested."""
    j = triple.real_structure
    pb_star = adjoint(triple.pi(b))
    n = triple.hilbert_dim
    cols = []
    for i in range(n):
        v = np.zeros(n, dtype=complex)
        v[i] = 1.0
        cols.append(j.apply(pb_star @ j.apply_inverse(v)))
    return np.stack(cols, axis=1)


def test_opposite_action_matches_functional_oracle():
    t = build_hs_model(2, seed=3)
    rng = np.random.default_rng(5)
    for _ in range(4):
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert op_norm(t.b_opposite(b) - functional_opposite(t, b)) < 1e-12


def test_j_conjugate_matches_functional_oracle():
    t = build_hs_model(2, seed=3)
    rng = np.random.default_rng(6)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    j = t.real_structure
    cols = []
    for i in range(4):
        v = np.zeros(4, dtype=complex)
        v[i] = 1.0
        cols.append(j.apply(m @ j.apply_inverse(v)))
    assert op_norm(t.j_conjugate(m) - np.stack(cols, axis=1)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hs_axioms(n):
    rep = check_axioms(build_hs_model(n, seed=n))
    assert rep.passed
    assert rep.max_residual() < 1e-9


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (3, 2)])
def test_ym_axioms(k, n):
    rep = check_axioms(build_finite_ym(k, n, seed=k + n))
    assert rep.passed
    assert rep.max_residual() < 1e-9


def brute_force_one_form_span(triple):
    """Oracle: one full SVD of all d^2 products pi(a)[D, pi(b)], cut at 1e-10 s_max.

    Returns the span and the list of products it was built from.
    """
    n = triple.hilbert_dim
    prods = [triple.pi(a) @ triple.dirac_commutator(b)
             for a in triple.algebra.basis for b in triple.algebra.basis]
    _, s, vh = np.linalg.svd(np.stack([p.reshape(-1) for p in prods]), full_matrices=False)
    return Subspace(vh[:int(np.sum(s > 1e-10 * s[0]))], (n, n)), prods


def assert_one_form_span_matches_oracle(triple):
    omega = one_form_space(triple)
    oracle, prods = brute_force_one_form_span(triple)
    assert omega.dim == oracle.dim
    assert omega.intersection_dim(oracle) == oracle.dim
    rows = np.reshape(omega.basis, (omega.dim, triple.hilbert_dim ** 2))
    assert op_norm(rows @ rows.conj().T - np.eye(omega.dim)) < 1e-12
    prods = np.stack(prods)
    gaps = np.linalg.norm(prods - omega.project(prods), axis=(1, 2))
    assert np.all(gaps <= 1e-10 * np.linalg.norm(prods, axis=(1, 2)))


def test_hs_one_form_dimension():
    # N = 2: the commutator image of a generic M is not closed under left
    # multiplication, products a[M,b] fill all of M_2
    t = build_hs_model(2, seed=0)
    assert brute_force_one_form_span(t)[0].dim == 4
    assert one_form_space(t).dim == 4
    t1 = build_hs_model(1, seed=0)
    assert one_form_space(t1).dim == 0
    t3 = build_hs_model(3, seed=1)
    assert one_form_space(t3).dim == brute_force_one_form_span(t3)[0].dim == 9


def orbifold_triple(spec):
    """The orbifold algebra in its defining representation, with a random real D."""
    alg, _ = model_from_string(spec)
    rng = np.random.default_rng(alg.dim)
    s = rng.standard_normal((alg.ambient, alg.ambient))
    return RealSpectralTriple(alg, alg.basis, (s + s.T) / 2, AntiLinearOp(np.eye(alg.ambient)))


@pytest.mark.parametrize("spec", [f"hs:N={n}" for n in range(1, 6)] + [
    "ym:k=2,N=1", "ym:k=2,N=2", "ym:k=2,N=3", "ym:k=3,N=2", "ym:k=3,N=3",
    "ym:k=2,N=1,lam=0.1", "ym:k=2,N=2,lam=0.1", "ym:k=3,N=2,lam=0.3",
    "orbifold:q=2,m=1", "orbifold:q=4,p=1,m=1", "orbifold:q=3,p=1,m=2",
    "orbifold:q=4,p=1,m=2", "orbifold:q=3,p=1,m=3",
])
def test_one_form_space_matches_full_svd_oracle(spec):
    t = orbifold_triple(spec) if spec.startswith("orbifold") else model_from_string(spec)
    assert_one_form_span_matches_oracle(t)


def custom_config(kind, size, representation, dirac, real_structure):
    return {"algebra": {"kind": kind, "sizes" if kind == "blocks" else "n": size},
            "representation": representation, "dirac": dirac, "real_structure": real_structure}


CONJUGATION, ADJOINT_FLIP = {"preset": "conjugation"}, {"preset": "adjoint-flip"}
# custom config documents, one per algebra kind, representation and kind of D
CONFIG_FIXTURES = {
    "diagonal-flip": custom_config("diagonal", 2, "defining",
                                   {"re": [[0.0, 1.0], [1.0, 0.0]]}, CONJUGATION),
    "diagonal-complex": custom_config(
        "diagonal", 3, "defining", {"re": [[0.3, 0.1, 0.0], [0.1, -0.7, 0.2], [0.0, 0.2, 0.1]],
                                    "im": [[0.0, 0.4, 0.1], [-0.4, 0.0, 0.0], [-0.1, 0.0, 0.0]]},
        CONJUGATION),
    "diagonal-zero": custom_config("diagonal", 2, "defining", {"preset": "zero"}, CONJUGATION),
    "full-random": custom_config("full", 3, "defining",
                                 {"preset": "random-selfadjoint", "seed": 1}, CONJUGATION),
    "full-left-right": custom_config("full", 3, "left-multiplication",
                                     {"preset": "left-right-random", "seed": 2}, ADJOINT_FLIP),
    "blocks-symmetric": custom_config("blocks", [2, 1], "defining",
                                      {"preset": "real-symmetric-random", "seed": 3}, CONJUGATION),
    "blocks-left": custom_config("blocks", [1, 2], "left-multiplication",
                                 {"preset": "random-selfadjoint", "seed": 4}, ADJOINT_FLIP),
    # D = [[1, X], [X*, 0]] in 2 x 2 blocks: Omega^1 = M_2 (x) span{X, X*, 1} holds the
    # unit but is not closed under products; C_D = M_2 (x) M_2
    "full-left-offdiagonal": custom_config(
        "full", 2, "left-multiplication",
        {"re": [[1.0, 0.0, 0.3, 1.0], [0.0, 1.0, 0.0, 0.2], [0.3, 0.0, 0.0, 0.0],
                [1.0, 0.2, 0.0, 0.0]],
         "im": [[0.0, 0.0, 0.0, 0.5], [0.0, 0.0, -0.7, 0.0], [0.0, 0.7, 0.0, 0.0],
                [-0.5, 0.0, 0.0, 0.0]]},
        ADJOINT_FLIP),
}


@pytest.mark.parametrize("name", sorted(CONFIG_FIXTURES))
def test_one_form_space_matches_full_svd_oracle_on_configs(name):
    assert_one_form_span_matches_oracle(triple_from_config(CONFIG_FIXTURES[name]))


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(["hs:N=2", "hs:N=3", "ym:k=2,N=2", "ym:k=2,N=2,lam=0.1",
                             "ym:k=3,N=1", "ym:k=2,N=3"]),
       scale=st.sampled_from([1e-6, 1.0, 1e6]), rank=st.none() | st.integers(0, 5),
       seed=st.integers(0, 2 ** 16))
def test_one_form_space_matches_oracle_on_drawn_triples(spec, scale, rank, seed):
    # D scaled far from 1, or replaced by a low-rank hermitian matrix
    t = model_from_string(spec)
    d = t.dirac
    if rank is not None:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((t.hilbert_dim, rank)) + 1j * rng.standard_normal((t.hilbert_dim, rank))
        d = v @ np.diag(rng.standard_normal(rank)) @ v.conj().T
    t = RealSpectralTriple(t.algebra, t.pi_images, scale * d, t.real_structure,
                           eps=t.eps, eps_prime=t.eps_prime)
    assert_one_form_span_matches_oracle(t)


def brute_force_aj_dim(triple):
    k = triple.real_structure.kernel
    rows = []
    for b in triple.algebra.basis:
        pb = triple.pi(b)
        rows.append((pb @ k - k @ pb.T).reshape(-1))
    stack = np.stack(rows)
    s = np.linalg.svd(stack, compute_uv=False)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0])))
    return len(triple.algebra.basis) - rank


@pytest.mark.parametrize("make,expect", [
    (lambda: build_hs_model(2, seed=0), 1),
    (lambda: build_hs_model(3, seed=0), 1),
    (lambda: build_finite_ym(2, 2, seed=0), 2),
    (lambda: build_finite_ym(3, 2, seed=0), 3),
    (lambda: build_finite_ym(3, 1, seed=0), 3),
])
def test_aj_dimension_matches_nullspace_oracle(make, expect):
    t = make()
    assert brute_force_aj_dim(t) == expect
    assert compute_aj(t).dim == expect


def test_aj_properties_reports_pass():
    for t in (build_hs_model(2, seed=1), build_finite_ym(2, 2, seed=1)):
        rep = verify_aj_properties(t)
        assert rep.passed
        for name in ("real-structure-premise", "defining-condition",
                     "inside-center", "star-closed", "commutes-with-one-forms"):
            assert rep.record(name).passed


@pytest.mark.parametrize("spec", ["hs:N=2", "ym:k=2,N=2,lam=0.1"])
def test_real_structure_residuals_feed_both_reports(spec):
    t = model_from_string(spec)
    isometry, square, dirac_sign = real_structure_residuals(t)
    ax = check_axioms(t)
    assert ax.record("real-structure-isometry").residual == isometry
    assert ax.record("real-structure-square").residual == square
    assert ax.record("real-structure-dirac-sign").residual == dirac_sign
    premise = verify_aj_properties(t).record("real-structure-premise").residual
    assert premise == max(isometry, square, dirac_sign)


def omega_commutation_oracle(triple):
    """The Omega^1 measure the derived record replaced: max over p of |x -> [pi(p), x]| on Omega^1."""
    omega = one_form_space(triple).basis
    return max(commutator_map_norm(p, omega) for p in triple.pi(compute_aj(triple).basis))


def one_form_kappas(triple):
    """Per basis element p of A_J, (kappa_pi, kappa_D), one matrix row per basis element of A."""
    d_comms = [triple.dirac_commutator(b) for b in triple.algebra.basis]
    out = []
    for p in triple.pi(compute_aj(triple).basis):
        rows = [[commutator(p, m).ravel() for m in ms] for ms in (triple.pi_images, d_comms)]
        out.append(tuple(np.linalg.norm(np.stack(r), 2) for r in rows))
    return out


def non_multiplicative_triple(dirac_scale):
    """pi(e1), pi(e2) real symmetric and non-commuting: A_J = A = C^2, and kappa_pi > 0."""
    r = np.diag([1.0, 1.0, 0.0])
    s = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    d = dirac_scale * np.array([[0.5, 0.2, 0.0], [0.2, -1.0, 0.3], [0.0, 0.3, 0.1]])
    return RealSpectralTriple(diagonal_algebra(2), np.stack([r, s]), d,
                              AntiLinearOp(np.eye(3)), label="non-multiplicative")


HOPPING = [f"ym:k=2,N={n},lam={lam}" for n in (1, 2) for lam in (0.05, 0.1, 0.3)]
ONE_FORM_PRESETS = ["hs:N=1", "hs:N=2", "hs:N=3", "hs:N=4", "hs:N=6", "ym:k=2,N=1",
                    "ym:k=2,N=2", "ym:k=3,N=3", "ym:k=2,N=3", "ym:k=3,N=2,lam=0.3"] + HOPPING


def one_form_fixtures():
    for spec in ONE_FORM_PRESETS:
        for seed in (0, 3):
            yield pytest.param(lambda s=spec, k=seed: model_from_string(s, default_seed=k),
                               id=f"{spec}-seed{seed}")
    for name in sorted(CONFIG_FIXTURES):  # a config fixes its own seeds
        yield pytest.param(lambda n=name: triple_from_config(CONFIG_FIXTURES[n]), id=name)


@pytest.mark.parametrize("make", list(one_form_fixtures()))
def test_commutes_with_one_forms_verdict_equals_the_omega_measure(make):
    t = make()
    try:
        compute_aj(t)
    except NotClosed:  # no A_J: the record is not made
        assert "commutes-with-one-forms" not in {r.name for r in verify_aj_properties(t).records}
        return
    oracle = omega_commutation_oracle(t)
    rep = verify_aj_properties(t)
    for tol in (TOL_DERIVED, 0.0):
        rep.override_tolerance(tol)
        assert rep.record("commutes-with-one-forms").passed == (oracle <= tol)


# failing fixtures: kappa_pi dominates (small D), kappa_D dominates, or only kappa_D is non-zero
BOUND_FIXTURES = ([pytest.param(lambda k=k: non_multiplicative_triple(k), id=f"non-multiplicative-{k}")
                   for k in (0.01, 1.0)]
                  + [pytest.param(lambda s=s: model_from_string(s), id=s)
                     for s in HOPPING + ["ym:k=3,N=2,lam=0.3"]]
                  + [pytest.param(lambda n=n: triple_from_config(CONFIG_FIXTURES[n]), id=n)
                     for n in ("diagonal-flip", "diagonal-complex")])


@pytest.mark.parametrize("make", BOUND_FIXTURES)
def test_commutes_with_one_forms_is_the_larger_map_norm(make):
    """The residual is max over p of max(kappa_pi, kappa_D), and its witness is the worst p."""
    t = make()
    rep = verify_aj_properties(t)
    kappas = one_form_kappas(t)
    worst = [max(pair) for pair in kappas]
    assert rep.record("commutes-with-one-forms").residual == pytest.approx(max(worst), rel=1e-12)
    if not rep.record("commutes-with-one-forms").passed:
        assert worst[rep.witnesses["commutes-with-one-forms"][0]] == pytest.approx(max(worst))


def test_commutes_with_one_forms_witness_ignores_ulp_ties():
    """The two base points of ym:k=2,N=2 give kappa_D = 2 lam up to an ulp: the lower one is reported."""
    witnesses = set()
    for seed in (0, 3):
        for lam in (0.05, 0.1, 0.3):
            rep = verify_aj_properties(model_from_string(f"ym:k=2,N=2,lam={lam}", default_seed=seed))
            assert rep.record("commutes-with-one-forms").residual == pytest.approx(2 * lam)
            witnesses.add(tuple(rep.witnesses["commutes-with-one-forms"]))
    assert witnesses == {(0,)}


def test_non_multiplicative_fixture_separates_the_two_norms():
    # kappa_pi dominates with a small D and kappa_D with a large one, so each term is needed
    [small_pi, small_d] = zip(*one_form_kappas(non_multiplicative_triple(0.01)))
    assert max(small_pi) > 10 * max(small_d)
    big_pi, big_d = zip(*one_form_kappas(non_multiplicative_triple(100.0)))
    assert max(big_d) > 10 * max(big_pi)
    assert not check_axioms(non_multiplicative_triple(1.0)).record(
        "representation-multiplicative").passed


def extremal_pair(triple, p):
    """(unit, c), with c the unit vector of A on which c -> [p, [D, pi(c)]] attains kappa_D."""
    d_comms = np.stack([triple.dirac_commutator(b) for b in triple.algebra.basis])
    u, _, _ = np.linalg.svd(commutator(p, d_comms).reshape(len(d_comms), -1), full_matrices=False)
    return triple.algebra.unit, triple.algebra.combine(u[:, 0].conj())


@pytest.mark.parametrize("make", BOUND_FIXTURES)
def test_sampled_one_forms_stay_within_the_derived_bound(make):
    """|[pi(p), pi(b)[D, pi(c)]]|_F <= kappa_pi |b|_F |[D, pi(c)]| + kappa_D |pi(b)| |c|_F.

    Up to n eps of rounding.  Where every pi(p) commutes with pi(A)
    (kappa_pi = 0), the pair (unit, top singular direction of the kappa_D
    map) at the worst p attains the bound, so it is not loose.
    """
    t = make()
    pas, kappas = t.pi(compute_aj(t).basis), one_form_kappas(t)
    rng = np.random.default_rng(0)
    pairs = [(t.algebra.random_element(seed=int(rng.integers(2 ** 31))),
              t.algebra.random_element(seed=int(rng.integers(2 ** 31)))) for _ in range(20)]
    samples = [(i, b, c) for i in range(len(pas)) for b, c in pairs]
    central = max(kappa_pi for kappa_pi, _ in kappas) < 1e-12
    if central:
        worst = int(np.argmax([kappa_d for _, kappa_d in kappas]))
        samples.append((worst, *extremal_pair(t, pas[worst])))
    for i, b, c in samples:
        pb, dc = t.pi(b), t.dirac_commutator(c)
        value = np.linalg.norm(commutator(pas[i], pb @ dc))
        terms = (np.linalg.norm(b) * op_norm(dc), op_norm(pb) * np.linalg.norm(c))
        bound = kappas[i][0] * terms[0] + kappas[i][1] * terms[1]
        assert value <= bound + t.hilbert_dim * np.finfo(float).eps * sum(terms)
    if central:  # the last sample is the extremal pair
        assert value == pytest.approx(bound, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("lam", [0.05, 0.1, 0.3])
def test_commutes_with_one_forms_reads_twice_the_hopping(n, lam):
    t = model_from_string(f"ym:k=2,N={n},lam={lam}")
    rec = verify_aj_properties(t).record("commutes-with-one-forms")
    assert not rec.passed
    assert rec.residual == pytest.approx(2 * lam, rel=1e-12)


def test_corrupted_real_structure_is_flagged():
    t = build_hs_model(2, seed=0)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(x)
    bad = RealSpectralTriple(t.algebra, t.pi_images, t.dirac, AntiLinearOp(q),
                             eps=1, eps_prime=1, label="bad-J")
    ax = check_axioms(bad)
    assert not ax.passed
    rep = verify_aj_properties(bad)
    assert not rep.record("real-structure-premise").passed


def test_axioms_fail_for_complex_dirac_with_conjugation_j():
    cfg = {
        "schema": "ncgauge.triple/1",
        "algebra": {"kind": "diagonal", "n": 2},
        "representation": "defining",
        "dirac": {"re": [[0.3, 0.1], [0.1, -0.7]], "im": [[0.0, 0.4], [-0.4, 0.0]]},
        "real_structure": {"preset": "conjugation"},
    }
    rep = check_axioms(triple_from_config(cfg))
    assert not rep.record("real-structure-dirac-sign").passed


def test_real_diagonal_dirac_with_conjugation_j_passes():
    cfg = {
        "schema": "ncgauge.triple/1",
        "algebra": {"kind": "diagonal", "n": 2},
        "representation": "defining",
        "dirac": {"re": [[0.3, 0.0], [0.0, -0.7]]},
        "real_structure": {"preset": "conjugation"},
    }
    t = triple_from_config(cfg)
    rep = check_axioms(t)
    assert rep.passed
    # the whole commutative algebra satisfies the defining condition here
    assert compute_aj(t).dim == 2


def test_order_one_fails_for_offdiagonal_real_dirac_with_conjugation_j():
    # [D, a] is off-diagonal for diagonal a, and off-diagonal matrices do
    # not commute with the conjugated algebra
    cfg = {
        "schema": "ncgauge.triple/1",
        "algebra": {"kind": "diagonal", "n": 2},
        "representation": "defining",
        "dirac": {"re": [[0.0, 1.0], [1.0, 0.0]]},
        "real_structure": {"preset": "conjugation"},
    }
    rep = check_axioms(triple_from_config(cfg))
    assert not rep.record("order-one-condition").passed
    assert rep.record("real-structure-dirac-sign").passed


def conjugate_triple(triple, u, label=""):
    """The triple carried along a unitary of H: same A, conjugated pi, D, J."""
    u = as_cmatrix(u)
    n = triple.hilbert_dim
    if op_norm(u @ adjoint(u) - np.eye(n)) > 1e-9:
        raise SpectralInputError("conjugator is not unitary")
    return RealSpectralTriple(
        triple.algebra,
        u @ triple.pi_images @ adjoint(u),
        u @ triple.dirac @ adjoint(u),
        AntiLinearOp(u @ triple.real_structure.kernel @ u.T),
        eps=triple.eps, eps_prime=triple.eps_prime,
        label=label or (triple.label + "~conj" if triple.label else "conjugated"),
    )


def test_unitary_equivalence_of_conjugated_triple():
    # U carries pi, D and J over: J' v = U J U* v through the anti-linear action
    t = build_hs_model(2, seed=4)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _ = np.linalg.qr(x)
    t2 = conjugate_triple(t, u, label="moved")
    assert check_axioms(t2).passed
    assert verify_aj_properties(t2).passed
    assert op_norm(u @ t.dirac @ adjoint(u) - t2.dirac) < 1e-12
    assert max(op_norm(u @ t.pi(b) @ adjoint(u) - t2.pi(b)) for b in t.algebra.basis) < 1e-12
    for _ in range(3):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(t2.real_structure.apply(v), u @ t.real_structure.apply(adjoint(u) @ v),
                           rtol=0, atol=1e-12)


def test_cd_algebra_dims_and_closure_record():
    t = build_hs_model(2, seed=0)
    cd, grading = c_d_algebra(t)
    assert cd.dim == 4
    assert c_d_certificate(t) <= TOL_DERIVED
    assert "even_dim" in grading and "odd_dim" in grading
    t2 = build_finite_ym(2, 2, seed=1)
    cd2, _ = c_d_algebra(t2)
    assert cd2.dim == 8
    assert c_d_certificate(t2) <= TOL_DERIVED


def test_one_form_self_adjointness_of_pure_gauge():
    t = build_hs_model(2, seed=2)
    u = random_unitary(t.algebra, seed=3)
    w = OneForm(t, [(u, adjoint(u))])
    assert w.self_adjoint_residual() < 1e-12
    assert one_form_space(t).residual(w.matrix) < 1e-10
    assert op_norm(OneForm.zero(t).matrix) == 0.0


def test_pi_rejects_elements_outside_algebra():
    cfg = {
        "schema": "ncgauge.triple/1",
        "algebra": {"kind": "diagonal", "n": 2},
        "representation": "defining",
        "dirac": {"preset": "zero"},
        "real_structure": {"preset": "conjugation"},
    }
    t = triple_from_config(cfg)
    off = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(AlgebraError):
        t.pi(off)


def test_constructor_shape_guards():
    alg = full_matrix_algebra(2)
    with pytest.raises(SpectralInputError):
        RealSpectralTriple(alg, [np.eye(4)] * 3, np.eye(4, dtype=complex),
                           AntiLinearOp(np.eye(4)), eps=1, eps_prime=1)
    with pytest.raises(SpectralInputError):
        RealSpectralTriple(alg, [np.eye(4, dtype=complex)] * 4,
                           np.eye(4, dtype=complex), AntiLinearOp(np.eye(4)),
                           eps=2, eps_prime=1)
