import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgauge.linalg import AntiLinearOp, Subspace, adjoint, commutator, op_norm
from ncgauge.models import build_finite_ym, build_hs_model, model_from_string, triple_from_config
from ncgauge.spectral import (
    DimensionMismatch,
    OneForm,
    RealSpectralTriple,
    SpectralInputError,
    c_d_algebra,
    check_axioms,
    compute_aj,
    conjugate_triple,
    one_form_space,
    real_structure_residuals,
    transpose_permutation,
    unitary_equivalent,
    verify_aj_properties,
)
from ncgauge.staralg import AlgebraError, full_matrix_algebra, random_unitary


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


def test_commutes_with_one_forms_ignores_the_omega_basis():
    # Omega^1's singular values repeat here, so a per-basis max moved with the basis
    t = model_from_string("ym:k=2,N=2,lam=0.1")
    before = verify_aj_properties(t).record("commutes-with-one-forms").residual
    omega = one_form_space(t)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((omega.dim,) * 2)
                        + 1j * rng.standard_normal((omega.dim,) * 2))
    t._omega1 = Subspace(q @ omega._stack, omega.shape)
    after = verify_aj_properties(t).record("commutes-with-one-forms").residual
    assert after == pytest.approx(before, rel=1e-12)
    assert before == pytest.approx(np.sqrt(0.5), rel=1e-9)
    per_basis = max(op_norm(commutator(t.pi(a), w))
                    for a in compute_aj(t).basis for w in omega.basis)
    assert before >= per_basis


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


def test_unitary_equivalence_of_conjugated_triple():
    t = build_hs_model(2, seed=4)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _ = np.linalg.qr(x)
    t2 = conjugate_triple(t, u, label="moved")
    rep = unitary_equivalent(t, t2, u)
    assert rep.passed
    assert check_axioms(t2).passed
    other = build_hs_model(2, seed=5)
    rep_bad = unitary_equivalent(t, other, np.eye(4, dtype=complex))
    assert not rep_bad.record("intertwines-dirac").passed


def test_unitary_equivalence_dimension_guard():
    with pytest.raises(DimensionMismatch):
        unitary_equivalent(build_hs_model(2), build_hs_model(3), np.eye(4))


def test_cd_algebra_dims_and_closure_record():
    t = build_hs_model(2, seed=0)
    cd, rep = c_d_algebra(t)
    assert cd.dim == 4
    assert rep.record("generated-closure").passed
    assert "even_dim" in rep.context and "odd_dim" in rep.context
    t2 = build_finite_ym(2, 2, seed=1)
    cd2, rep2 = c_d_algebra(t2)
    assert cd2.dim == 8
    assert rep2.record("generated-closure").passed


def test_one_form_self_adjointness_of_pure_gauge():
    t = build_hs_model(2, seed=2)
    u = random_unitary(t.algebra, seed=3)
    w = OneForm(t, [(u, adjoint(u))])
    assert w.self_adjoint_residual() < 1e-12
    assert w.span_residual() < 1e-10
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
