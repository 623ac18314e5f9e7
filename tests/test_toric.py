"""Toric sphere fibers: evaluation maps, strata, norms, continuity evidence."""

import math

import numpy as np
import pytest

from ncgauge import (
    BasePoint3,
    BasePoint4,
    ModeMismatch,
    NotOnTorus,
    PhaseScalar,
    SphereElement,
    clock_shift,
    continuity_report,
    covering_slice_check,
    fiber_norm3,
    fiber_norm4,
    invariant_subalgebra,
    jump_ratio,
    norm_profile,
    op_norm,
    parse_sphere,
    rational_mode,
    s3_eval,
    s3_fiber_dimension,
    s4_eval,
    s4_fiber_dimension,
    sphere_alpha,
    sphere_beta,
    sphere_one,
    sphere_x,
    stratum_scan,
    torus_exp,
    torus_generator,
    torus_one,
)


def random_element(mode, rng, with_x=False, nterms=3, maxexp=2):
    terms = {}
    for _ in range(nterms):
        key = tuple(int(rng.integers(0, maxexp + 1)) for _ in range(5))
        if not with_x:
            key = key[:4] + (0,)
        c = complex(rng.standard_normal(), rng.standard_normal())
        terms[key] = PhaseScalar.t_power(mode, int(rng.integers(-2, 3)), c)
    return SphereElement(mode, terms)


def random_point3(rng):
    return BasePoint3(float(rng.uniform(0, math.pi / 2)),
                      z1=np.exp(1j * rng.uniform(0, 2 * math.pi)),
                      z2=np.exp(1j * rng.uniform(0, 2 * math.pi)))


def random_point4(rng):
    return BasePoint4(float(rng.uniform(0, math.pi / 2)),
                      float(rng.uniform(0, math.pi / 2)),
                      z1=np.exp(1j * rng.uniform(0, 2 * math.pi)),
                      z2=np.exp(1j * rng.uniform(0, 2 * math.pi)))


@pytest.mark.parametrize("p,q", [(1, 3), (2, 5)])
def test_s3_eval_is_a_star_homomorphism(p, q):
    mode = rational_mode(p, q)
    rng = np.random.default_rng(12)
    for _ in range(5):
        e1 = random_element(mode, rng)
        e2 = random_element(mode, rng)
        pt = random_point3(rng)
        m1 = s3_eval(e1, pt, p, q)
        m2 = s3_eval(e2, pt, p, q)
        scale = max(1.0, op_norm(m1) * op_norm(m2))
        assert op_norm(s3_eval(e1 * e2, pt, p, q) - m1 @ m2) < 1e-9 * scale
        assert op_norm(s3_eval(e1.adjoint(), pt, p, q) - m1.conj().T) < 1e-9 * scale


def test_s4_eval_is_a_star_homomorphism():
    p, q = 1, 3
    mode = rational_mode(p, q)
    rng = np.random.default_rng(34)
    for _ in range(5):
        e1 = random_element(mode, rng, with_x=True)
        e2 = random_element(mode, rng, with_x=True)
        pt = random_point4(rng)
        m1 = s4_eval(e1, pt, p, q)
        m2 = s4_eval(e2, pt, p, q)
        scale = max(1.0, op_norm(m1) * op_norm(m2))
        assert op_norm(s4_eval(e1 * e2, pt, p, q) - m1 @ m2) < 1e-9 * scale
        assert op_norm(s4_eval(e1.adjoint(), pt, p, q) - m1.conj().T) < 1e-9 * scale


def rebuilt_powers_eval(e, ra, rb, rx, z1, z2, q, p):
    """Evaluator that rebuilds the clock/shift powers on every call (oracle)."""
    r1, r2 = clock_shift(q, p)
    pow1 = [np.eye(q, dtype=complex)]
    pow2 = [np.eye(q, dtype=complex)]
    for _ in range(q - 1):
        pow1.append(pow1[-1] @ r1)
        pow2.append(pow2[-1] @ r2)
    out = np.zeros((q, q), dtype=complex)
    for (a, ap, b, bp, c), coeff in e.terms.items():
        scalar = (coeff.value() * ra ** (a + ap) * rb ** (b + bp) * rx ** c
                  * z1 ** (a - ap) * z2 ** (b - bp))
        out += scalar * (pow1[(a - ap) % q] @ pow2[(b - bp) % q])
    return out


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 5), (3, 7)])
def test_eval_matches_rebuilt_powers(p, q):
    # same arithmetic in the same order, so the results agree exactly
    mode = rational_mode(p, q)
    rng = np.random.default_rng(q)
    for _ in range(5):
        e3 = random_element(mode, rng, nterms=6, maxexp=3)
        pt3 = random_point3(rng)
        r, s = pt3.radii
        want = rebuilt_powers_eval(e3, r, s, 1.0, pt3.z1, pt3.z2, q, p)
        assert np.array_equal(s3_eval(e3, pt3, p, q), want)
        e4 = random_element(mode, rng, with_x=True, nterms=6, maxexp=3)
        pt4 = random_point4(rng)
        r, s, x = pt4.rsx
        want = rebuilt_powers_eval(e4, r, s, x, pt4.z1, pt4.z2, q, p)
        assert np.array_equal(s4_eval(e4, pt4, p, q), want)


def test_sphere_relations_vanish_at_points():
    p, q = 1, 3
    mode = rational_mode(p, q)
    al, be, one = sphere_alpha(mode), sphere_beta(mode), sphere_one(mode)
    xx = sphere_x(mode)
    rel3 = al * al.adjoint() + be * be.adjoint() - one
    rel4 = rel3 + xx * xx
    rng = np.random.default_rng(7)
    for _ in range(5):
        assert op_norm(s3_eval(rel3, random_point3(rng), p, q)) < 1e-10
        assert op_norm(s4_eval(rel4, random_point4(rng), p, q)) < 1e-10


def test_equator_of_s4_reduces_to_s3():
    p, q = 2, 5
    mode = rational_mode(p, q)
    rng = np.random.default_rng(9)
    for _ in range(4):
        e = random_element(mode, rng)
        chi = float(rng.uniform(0, math.pi / 2))
        z1 = np.exp(1j * rng.uniform(0, 2 * math.pi))
        z2 = np.exp(1j * rng.uniform(0, 2 * math.pi))
        m4 = s4_eval(e, BasePoint4(chi, 0.0, z1=z1, z2=z2), p, q)
        m3 = s3_eval(e, BasePoint3(chi, z1=z1, z2=z2), p, q)
        assert op_norm(m4 - m3) < 1e-10


def test_fiber_dimensions_q3():
    p, q = 1, 3
    assert s3_fiber_dimension(math.pi / 4, p, q) == 9
    assert s3_fiber_dimension(0.0, p, q) == 3
    assert s3_fiber_dimension(math.pi / 2, p, q) == 3
    assert s4_fiber_dimension(math.pi / 4, 0.0, p, q) == 9
    assert s4_fiber_dimension(math.pi / 4, math.pi / 2, p, q) == 1


def test_fiber_dimensions_small_q():
    assert s3_fiber_dimension(math.pi / 4, 1, 2) == 4
    for chi in (0.0, math.pi / 4, math.pi / 2):
        assert s3_fiber_dimension(chi, 1, 1) == 1


def test_fiber_dimension_independent_of_coordinates():
    p, q = 1, 3
    base = s3_fiber_dimension(0.7, p, q)
    for k in range(q):
        z = np.exp(2j * np.pi * k / q)
        assert s3_fiber_dimension(0.7, p, q, z1=z, z2=np.conj(z)) == base


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3)])
def test_stratum_scan_s3(p, q):
    rep = stratum_scan(p, q, which="s3")
    assert rep.passed
    assert rep.context["dims"]["Interior"] == [q * q]
    assert rep.context["dims"]["EdgeAlpha"] == [q]
    assert rep.context["dims"]["EdgeBeta"] == [q]


def test_stratum_scan_s4():
    rep = stratum_scan(1, 3, which="s4")
    assert rep.passed
    assert rep.context["dims"]["Pole"] == [1]
    assert rep.context["dims"]["Interior"] == [9]


def root_point_norm(e, angles, p, q):
    """Max evaluation norm over the q^2 root-of-unity torus points (oracle)."""
    roots = [np.exp(2j * np.pi * k / q) for k in range(q)]
    if len(angles) == 1:
        return max(op_norm(s3_eval(e, BasePoint3(*angles, z1, z2), p, q))
                   for z1 in roots for z2 in roots)
    return max(op_norm(s4_eval(e, BasePoint4(*angles, z1, z2), p, q))
               for z1 in roots for z2 in roots)


@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (1, 3), (2, 5), (3, 7)])
def test_fiber_norm_is_the_root_point_max(p, q):
    mode = rational_mode(p, q)
    rng = np.random.default_rng(40 + q)
    for _ in range(6):
        chi, psi = (float(a) for a in rng.uniform(0, math.pi / 2, size=2))
        e3 = random_element(mode, rng, nterms=4, maxexp=3)
        want = root_point_norm(e3, (chi,), p, q)
        assert abs(fiber_norm3(e3, chi, p, q) - want) <= 1e-12 * want
        e4 = random_element(mode, rng, with_x=True, nterms=4, maxexp=3)
        want = root_point_norm(e4, (chi, psi), p, q)
        assert abs(fiber_norm4(e4, chi, psi, p, q) - want) <= 1e-12 * want


def dense_torus_sup(e, chi, p, q, points=16):
    """Sup of the 3-sphere evaluation norm over a dense grid of one torus cell."""
    angles = 2 * np.pi * np.arange(points) / (points * q)
    return max(op_norm(s3_eval(e, BasePoint3(chi, np.exp(1j * t1), np.exp(1j * t2)), p, q))
               for t1 in angles for t2 in angles)


@pytest.mark.xfail(raises=AssertionError,
                   reason="the root-point norm samples one representation class; "
                           "net degrees that collide mod q hide the fiber norm")
@pytest.mark.parametrize("poly,q,chi,sup", [("a^2 - 1", 2, 0.0, 2.0),
                                            ("a^3 - b^3", 3, math.pi / 4, 0.5 ** 0.5)])
def test_fiber_norm3_reaches_the_dense_torus_sup(poly, q, chi, sup):
    e = parse_sphere(poly, rational_mode(1, q))
    assert dense_torus_sup(e, chi, 1, q) == pytest.approx(sup, rel=1e-12)
    assert fiber_norm3(e, chi, 1, q) == pytest.approx(sup, rel=1e-9)


def test_edge_norms_specialize():
    p, q = 1, 3
    mode = rational_mode(p, q)
    al, be = sphere_alpha(mode), sphere_beta(mode)
    assert abs(fiber_norm3(al, 0.0, p, q) - 1.0) < 1e-10
    assert fiber_norm3(be, 0.0, p, q) < 1e-12
    assert abs(fiber_norm3(be, math.pi / 2, p, q) - 1.0) < 1e-10
    assert abs(fiber_norm3(al, math.pi / 3, p, q) - math.cos(math.pi / 3)) < 1e-10


def test_invariant_subalgebra_is_balanced():
    mode = rational_mode(1, 3)
    els = invariant_subalgebra(mode, 2, which="s3")
    assert len(els) == 6
    for e in els:
        for (a, ap, b, bp, c) in e.support:
            assert a == ap and b == bp and c == 0
    els4 = invariant_subalgebra(mode, 2, which="s4")
    assert any(key[4] > 0 for e in els4 for key in e.support)
    with pytest.raises(ValueError):
        invariant_subalgebra(mode, -1)


def test_norm_profile_of_the_unit_is_flat():
    p, q = 1, 2
    rows, stats = norm_profile(sphere_one(rational_mode(p, q)), 0.1, p, q)
    assert all(abs(r["norm"] - 1.0) < 1e-12 for r in rows)
    assert stats["max_jump"] == 0.0
    assert stats["points"] == len(rows)


def test_norm_profile_alpha_matches_cosine_and_halves():
    p, q = 1, 2
    rows, stats = norm_profile(sphere_alpha(rational_mode(p, q)), 0.01, p, q)
    for row in rows:
        assert abs(row["norm"] - math.cos(row["chi"])) < 1e-10
    assert abs(stats["max_jump"] - 0.01) < 0.002
    assert 0.45 < stats["jump_ratio"] < 0.55
    # the edge rows carry their stratum and honest fiber dimension
    assert rows[0]["stratum"] == "EdgeAlpha"
    assert rows[0]["fiber_dim"] == q
    mid = rows[len(rows) // 2]
    assert mid["stratum"] == "Interior"
    assert mid["fiber_dim"] == q * q


@pytest.mark.parametrize("which,p,q,h", [("s3", 1, 2, 0.1), ("s3", 2, 5, 0.2), ("s3", 1, 1, 0.3),
                                         ("s4", 1, 3, 0.3), ("s4", 2, 5, 0.4), ("s4", 1, 1, 0.5)])
def test_profile_fiber_dim_matches_every_row(which, p, q, h):
    rows, _ = norm_profile(sphere_alpha(rational_mode(p, q)), h, p, q, which=which)
    for row in rows:
        if which == "s3":
            assert s3_fiber_dimension(row["chi"], p, q) == row["fiber_dim"]
        else:
            assert s4_fiber_dimension(row["chi"], row["psi"], p, q) == row["fiber_dim"]


@pytest.mark.parametrize("p,q,h", [(1, 2, 0.1), (2, 5, 0.3), (1, 1, 0.2)])
def test_s3_profile_is_the_psi_zero_column_of_s4(p, q, h):
    e = random_element(rational_mode(p, q), np.random.default_rng(q), nterms=5)
    rows3, _ = norm_profile(e, h, p, q, which="s3")
    rows4, _ = norm_profile(e, h, p, q, which="s4")
    equator = [{k: v for k, v in row.items() if k != "psi"}
               for row in rows4 if row["psi"] == 0.0]
    assert rows3 == equator


def test_base_point3_is_the_psi_zero_slice():
    for chi in (0.0, 0.3, math.pi / 4, math.pi / 2):
        assert BasePoint3(chi).rsx == BasePoint4(chi, 0.0).rsx == BasePoint3(chi).radii + (0.0,)


def test_jump_ratio_matches_profile_stats():
    p, q = 1, 2
    e = sphere_alpha(rational_mode(p, q))
    _, stats = norm_profile(e, 0.05, p, q)
    assert jump_ratio(e, 0.05, p, q) == stats


def test_s4_profile_rows_cover_the_pole():
    p, q = 1, 2
    mode = rational_mode(p, q)
    e = sphere_alpha(mode) + sphere_x(mode)
    rows, stats = norm_profile(e, 0.4, p, q, which="s4")
    assert {"chi", "psi", "r", "s", "x", "norm", "stratum", "fiber_dim"} <= set(rows[0])
    poles = [r for r in rows if r["stratum"] == "Pole"]
    assert poles
    for row in poles:
        assert row["fiber_dim"] == 1
        assert abs(row["x"] - 1.0) < 1e-12
    assert stats["points"] == len(rows)


def test_covering_slice_exponential_has_unit_phase():
    p, q = 1, 3
    mode = rational_mode(p, q)
    u1 = torus_generator(mode, 1)
    u = torus_exp((u1 + u1.adjoint()).scale(0.3j))
    rep = covering_slice_check(u, p, q)
    assert rep.passed
    assert rep.context["applicable"] is True
    assert abs(abs(rep.context["phase"]) - 1.0) < 1e-9


def test_covering_slice_unit_element():
    rep = covering_slice_check(torus_one(rational_mode(1, 3)), 1, 3)
    assert rep.passed
    assert abs(rep.context["phase"] - 1.0) < 1e-12


def test_covering_slice_vanishing_trace_is_flagged():
    mode = rational_mode(1, 3)
    rep = covering_slice_check(torus_generator(mode, 1), 1, 3)
    assert rep.passed
    assert rep.context["applicable"] is False
    assert "note" in rep.context


def test_covering_slice_mode_mismatch():
    with pytest.raises(ModeMismatch):
        covering_slice_check(torus_one(rational_mode(1, 2)), 1, 3)


def test_continuity_report_on_smooth_polynomials():
    p, q = 1, 2
    mode = rational_mode(p, q)
    al, be = sphere_alpha(mode), sphere_beta(mode)
    rep = continuity_report([al, al * be.adjoint() + be * al.adjoint()],
                            0.02, p, q)
    assert rep.passed
    assert len(rep.context["ratios"]) == 2
    assert "scope_note" in rep.context


def test_base_point_validation():
    with pytest.raises(ValueError):
        BasePoint3(-0.1)
    with pytest.raises(ValueError):
        BasePoint3(math.pi)
    with pytest.raises(NotOnTorus):
        BasePoint3(0.3, z1=2.0)
    with pytest.raises(ValueError):
        BasePoint4(0.3, 2.0)
    with pytest.raises(NotOnTorus):
        BasePoint4(0.3, 0.4, z2=0.0)


def test_s3_eval_guards():
    mode = rational_mode(1, 2)
    with pytest.raises(ValueError):
        s3_eval(sphere_x(mode), BasePoint3(0.3), 1, 2)
    with pytest.raises(ModeMismatch):
        s3_eval(sphere_alpha(rational_mode(1, 3)), BasePoint3(0.3), 1, 2)
