"""Acceptance gate: the twelve headline guarantees, one printed line each."""

import math
import time

import numpy as np

from ncgauge import (
    SYMBOLIC,
    TorusElement,
    adjoint,
    build_finite_ym,
    build_hs_model,
    build_orbifold_algebra,
    central_monomials,
    check_axioms,
    compute_aj,
    doubled_fluctuation,
    fiber_gauge_action,
    fluctuate,
    from_unitary,
    gauge_field,
    gauge_lie_algebra,
    gauge_matrix,
    group_bundle_dims,
    localize,
    norm_is_sup,
    omega_bundle,
    op_norm,
    parse_sphere,
    pert_product,
    random_perturbation,
    random_unitary,
    rational_mode,
    skew_hermitian_basis,
    stratum_scan,
    torus_generator,
)
from test_toric import continuity_report

TOL = 1e-8


def announce(num: int, passed: bool, text: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num:02d}: {text}")
    assert passed, f"criterion {num:02d} failed: {text}"


def test_criterion_01_axiom_suite_on_all_presets():
    start = time.perf_counter()
    presets = ([build_hs_model(n) for n in (1, 2, 3, 4)]
               + [build_finite_ym(2, 1), build_finite_ym(2, 2), build_finite_ym(3, 2)])
    worst = 0.0
    for t in presets:
        rep = check_axioms(t)
        assert rep.passed, f"{t.label}: {rep}"
        worst = max(worst, rep.max_residual())
    elapsed = time.perf_counter() - start
    announce(1, worst < 1e-9 and elapsed < 5.0,
             f"all axiom residuals {worst:.1e} < 1e-9 on 7 presets in {elapsed:.2f}s")


def test_criterion_02_aj_dimensions_and_centrality():
    cases = [(build_hs_model(2), 1), (build_hs_model(3), 1),
             (build_finite_ym(2, 2), 2), (build_finite_ym(3, 2), 3),
             (build_finite_ym(3, 1), 3)]
    dims_ok = True
    worst = 0.0
    for t, want in cases:
        aj = compute_aj(t)
        dims_ok = dims_ok and aj.dim == want
        worst = max(worst, max(op_norm(a @ b - b @ a)
                               for a in aj.basis for b in t.algebra.basis))
    commutative = build_finite_ym(3, 1)
    dims_ok = dims_ok and compute_aj(commutative).dim == commutative.algebra.dim
    announce(2, dims_ok and worst < TOL,
             f"A_J dims 1/1/2/3/3 (full algebra when commutative), "
             f"centrality residual {worst:.1e}")


def test_criterion_03_gauge_dimension_identity():
    ok = True
    for t, want in [(build_hs_model(2), 3), (build_hs_model(3), 8),
                    (build_finite_ym(2, 2), 6), (build_finite_ym(3, 2), 9)]:
        g = gauge_lie_algebra(t)
        u_a = len(skew_hermitian_basis(t.algebra))
        u_aj = len(skew_hermitian_basis(compute_aj(t)))
        ok = ok and g.dim == want == u_a - u_aj and g.report.passed
    announce(3, ok, "dim g = dim u(A) - dim u(A_J) exactly, hs giving N^2 - 1")


def test_criterion_04_pure_gauge_fluctuations():
    worst_pure = 0.0
    worst_doubled = 0.0
    for t in (build_hs_model(2), build_finite_ym(2, 2)):
        for i in range(20):
            u = random_unitary(t.algebra, seed=i)
            pert = from_unitary(t, u)
            omega = gauge_field(pert)
            big_u = gauge_matrix(t, u)
            d_omega = fluctuate(t, omega)
            worst_pure = max(worst_pure, op_norm(
                d_omega - big_u @ t.dirac @ adjoint(big_u)))
            worst_doubled = max(worst_doubled, op_norm(
                doubled_fluctuation(t, pert) - d_omega))
    announce(4, worst_pure < TOL and worst_doubled < TOL,
             f"20 unitaries per preset: conjugation residual {worst_pure:.1e}, "
             f"doubled form {worst_doubled:.1e}")


def test_criterion_05_perturbation_semigroup():
    t = build_hs_model(2)
    worst_cert = 0.0
    for i in range(50):
        p = random_perturbation(t, n_terms=2, seed=2 * i)
        r = random_perturbation(t, n_terms=3, seed=2 * i + 1)
        prod = pert_product(p, r)
        worst_cert = max(worst_cert, prod.normalization_residual(),
                         prod.flip_residual())
    worst_hom = 0.0
    for i in range(50):
        u = random_unitary(t.algebra, seed=1000 + i)
        v = random_unitary(t.algebra, seed=2000 + i)
        lhs = pert_product(from_unitary(t, u), from_unitary(t, v))
        rhs = from_unitary(t, u @ v)
        worst_hom = max(worst_hom, op_norm(lhs.act_on(t.dirac) - rhs.act_on(t.dirac)))
    announce(5, worst_cert < TOL and worst_hom < TOL,
             f"50 products keep both certificates ({worst_cert:.1e}); "
             f"unitary embedding is a homomorphism ({worst_hom:.1e})")


def test_criterion_06_localization_is_a_bundle_of_sections():
    ok = True
    worst_norm = 0.0
    for t in (build_hs_model(2), build_finite_ym(2, 2), build_finite_ym(3, 1)):
        dec = localize(t)
        for name in ("partition-of-unity", "section-reconstruction",
                     "section-multiplicative", "base-central-in-A"):
            ok = ok and dec.report.record(name).passed
        ok = ok and sum(dec.fiber_dims) == t.algebra.dim
        for i in range(100):
            rep = norm_is_sup(dec, t.algebra.random_element(seed=i))
            ok = ok and rep.passed
            worst_norm = max(worst_norm, rep.max_residual())
    announce(6, ok and worst_norm < TOL,
             f"sections reconstruct and multiply pointwise; 100 norm-sup "
             f"samples per preset, worst residual {worst_norm:.1e}")


def test_criterion_07_fiberwise_gauge_action():
    t = build_finite_ym(2, 2)
    dec = localize(t)
    worst = 0.0
    for i in range(50):
        u = random_unitary(t.algebra, seed=3000 + i)
        a = t.algebra.random_element(seed=4000 + i)
        rep = fiber_gauge_action(dec, u, a)
        worst = max(worst, rep.max_residual())
    exact = True
    for tt, n in [(t, 2), (build_finite_ym(3, 2), 2)]:
        rows, rep = group_bundle_dims(localize(tt))
        exact = exact and rep.passed and all(
            r["unitary_dim"] == n * n and r["gauge_fiber_dim"] == n * n - 1
            for r in rows)
    announce(7, worst < TOL and exact,
             f"50 (u, a) pairs conjugate fiberwise ({worst:.1e}); unitary and "
             f"gauge fiber dimensions sum exactly")


def test_criterion_08_one_form_bundle():
    ok = True
    worst = 0.0
    for t in (build_hs_model(2), build_finite_ym(2, 2), build_finite_ym(3, 2)):
        rep = omega_bundle(localize(t))
        ok = ok and rep.passed
        ok = ok and rep.record("omega-dimension-sum").residual == 0.0
        worst = max(worst, rep.record("one-forms-localize").residual,
                    rep.record("gauge-action-localizes").residual)
    announce(8, ok and worst < TOL,
             f"one-form fibers sum to dim C_D(A) exactly and the gauge action "
             f"localizes ({worst:.1e})")


def test_criterion_09_torus_phase_arithmetic():
    start = time.perf_counter()
    rng = np.random.default_rng(5)

    def rand_el(mode):
        terms = {}
        for _ in range(3):
            n1, n2 = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            c = complex(rng.standard_normal(), rng.standard_normal())
            terms[(n1, n2)] = c
        out = TorusElement(mode)
        for (n1, n2), c in terms.items():
            out = out + TorusElement.monomial(mode, n1, n2, coeff=c)
        return out

    assoc_ok = True
    for mode in (SYMBOLIC, rational_mode(1, 3)):
        for _ in range(10):
            a, b, c = rand_el(mode), rand_el(mode), rand_el(mode)
            assoc_ok = assoc_ok and ((a * b) * c - a * (b * c)).is_zero()
        u1, u2 = torus_generator(mode, 1), torus_generator(mode, 2)
        rel = (u2 * u1).coefficient(1, 1) - (u1 * u2).coefficient(1, 1) * \
            type((u2 * u1).coefficient(1, 1)).t_power(mode, 1)
        assoc_ok = assoc_ok and rel.is_zero()

    sym_center = central_monomials(SYMBOLIC, 4)
    grid = {(m, n) for m in range(-4, 5) for n in range(-4, 5)}
    q2_center = central_monomials(rational_mode(1, 2), 4)
    q2_want = sorted((m, n) for m, n in grid if m % 2 == 0 and n % 2 == 0)
    elapsed = time.perf_counter() - start
    announce(9, assoc_ok and sym_center == [(0, 0)] and q2_center == q2_want
             and elapsed < 10.0,
             f"exact products associate, U2 U1 = t U1 U2, symbolic degree-4 "
             f"center is trivial, q=2 center gains the even lattice "
             f"({elapsed:.2f}s)")


def test_criterion_10_stratified_fiber_dimensions():
    start = time.perf_counter()
    ok = True
    for p, q in ((1, 2), (1, 3), (2, 5)):
        s3 = stratum_scan(p, q, which="s3")
        s4 = stratum_scan(p, q, which="s4")
        ok = ok and s3.passed and s4.passed
        ok = ok and s3.context["dims"]["Interior"] == [q * q]
        ok = ok and s3.context["dims"]["EdgeAlpha"] == [q]
        ok = ok and s3.context["dims"]["EdgeBeta"] == [q]
        ok = ok and s4.context["dims"]["Pole"] == [1]
    elapsed = time.perf_counter() - start
    announce(10, ok and elapsed < 30.0,
             f"strata dims q^2 / q / 1 at every torus coordinate for "
             f"(p,q) in (1,2),(1,3),(2,5) ({elapsed:.2f}s)")


def test_criterion_11_norm_continuity_evidence():
    start = time.perf_counter()
    p, q = 1, 3
    mode = rational_mode(p, q)
    polys = [parse_sphere(text, mode) for text in
             ("a", "b", "a + b", "a*b + bd*ad", "a*ad - b*bd")]
    rep = continuity_report(polys, 1e-2, p, q)
    ratios = [s["jump_ratio"] for s in rep.context["ratios"]]
    elapsed = time.perf_counter() - start
    announce(11, rep.passed and all(0.3 <= r <= 0.7 for r in ratios)
             and elapsed < 60.0,
             f"jump ratios {', '.join(f'{r:.3f}' for r in ratios)} all in "
             f"[0.3, 0.7] at h = 1e-2 ({elapsed:.2f}s)")


def test_criterion_12_orbifold_algebra_dimensions():
    ok = True
    for q, p, m in ((2, 1, 1), (3, 2, 2)):
        alg, rep = build_orbifold_algebra(q, p, m)
        ok = ok and rep.passed
        ok = ok and alg.dim == m * q * q
        ok = ok and rep.context["center_dim"] == m
    announce(12, ok, "equivariant algebras have dim m q^2 with an "
             "m-dimensional center")
