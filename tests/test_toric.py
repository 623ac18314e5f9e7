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
    Report,
    fiber_norm3,
    fiber_norm4,
    jump_record,
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
)
from ncgauge import linalg, toric
from test_torus import chain_bound, chain_table, monomial_table
from ncgauge.cli import main


def continuity_report(polynomials, h, p, q, which="s3"):
    """Jump-halving evidence for a family of polynomials.

    Each record passes when the fine/coarse jump ratio falls inside
    [0.3, 0.7]; a constant profile (zero jumps) counts as continuous.
    """
    rep = Report(f"continuity[{which},p={p},q={q},h={h}]", context={
        "h": h, "p": p, "q": q,
        "scope_note": "grid statistics are evidence for norm continuity over the "
                      "base, not a proof",
    })
    ratios = []
    for i, e in enumerate(polynomials):
        stats = norm_profile(e, h, p, q, which)[1]
        ratios.append(stats)
        rep.add(jump_record(f"jump-halving-{i}", stats))
    rep.context["ratios"] = ratios
    return rep


def invariant_subalgebra(mode, degree, which="s3"):
    """Monomials fixed by the torus action, up to the degree bound.

    The rotation (alpha, beta) -> (e^{it1} alpha, e^{it2} beta) scales a
    monomial by e^{i(t1(a - a') + t2(b - b'))}, so the fixed monomials
    are the balanced ones (alpha alpha*)^a (beta beta*)^b x^c with
    a + b + c <= degree (x only on the 4-sphere).  The returned family
    commutes: balanced monomials carry zero net degree, so every
    reordering phase exponent vanishes.
    """
    if which not in ("s3", "s4"):
        raise ValueError("which must be 's3' or 's4'")
    if degree < 0:
        raise ValueError("degree bound must be >= 0")
    out = []
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            c_range = range(degree + 1 - a - b) if which == "s4" else (0,)
            for c in c_range:
                out.append(SphereElement.monomial(mode, (a, a, b, b, c)))
    for i, e in enumerate(out):
        for f in out[i + 1:]:
            if not (e * f - f * e).is_zero():
                raise ArithmeticError("invariant monomials failed to commute")
    return out


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


def table_eval(e, ra, rb, rx, z1, z2, table):
    """One scalar times a table matrix per term, summed in place, at one point (oracle)."""
    q = len(table)
    out = np.zeros((q, q), dtype=complex)
    for (a, ap, b, bp, c), coeff in e.terms.items():
        scalar = (coeff.value() * ra ** (a + ap) * rb ** (b + bp) * rx ** c
                  * z1 ** (a - ap) * z2 ** (b - bp))
        out += scalar * table[(a - ap) % q, (b - bp) % q]
    return out


def term_weight(e, ra, rb, rx):
    """The sum of the term scalars' moduli at a point on the unit torus."""
    return sum(abs(coeff.value() * ra ** (a + ap) * rb ** (b + bp) * rx ** c)
               for (a, ap, b, bp, c), coeff in e.terms.items())


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 5), (3, 7)])
def test_eval_matches_rebuilt_powers(p, q):
    # the same arithmetic in the same order on the exact-residue words, so the results agree
    # exactly; the running products of the pair agree up to their drift
    mode = rational_mode(p, q)
    rng = np.random.default_rng(q)
    exact, chain = monomial_table(q, p), chain_table(q, p)
    bound = chain_bound(q) + 8 * np.finfo(float).eps
    for _ in range(5):
        e3 = random_element(mode, rng, nterms=6, maxexp=3)
        pt3 = random_point3(rng)
        r, s = pt3.radii
        got = s3_eval(e3, pt3, p, q)
        assert np.array_equal(got, table_eval(e3, r, s, 1.0, pt3.z1, pt3.z2, exact))
        drift = np.abs(got - table_eval(e3, r, s, 1.0, pt3.z1, pt3.z2, chain)).max()
        assert drift <= term_weight(e3, r, s, 1.0) * bound
        e4 = random_element(mode, rng, with_x=True, nterms=6, maxexp=3)
        pt4 = random_point4(rng)
        r, s, x = pt4.rsx
        got = s4_eval(e4, pt4, p, q)
        assert np.array_equal(got, table_eval(e4, r, s, x, pt4.z1, pt4.z2, exact))
        drift = np.abs(got - table_eval(e4, r, s, x, pt4.z1, pt4.z2, chain)).max()
        assert drift <= term_weight(e4, r, s, x) * bound


def term_loop_stack(e, rsx, z1, z2, table):
    """One vector of per-point scalars times a table matrix per term (oracle)."""
    q = len(table)
    out = np.zeros((len(rsx), q, q), dtype=complex)
    for (a, ap, b, bp, c), coeff in e.terms.items():
        w, w1, w2 = coeff.value(), z1 ** (a - ap), z2 ** (b - bp)
        scalars = np.array([w * r ** (a + ap) * s ** (b + bp) * x ** c * w1 * w2
                            for r, s, x in rsx])
        out += scalars[:, None, None] * table[(a - ap) % q, (b - bp) % q]
    return out


@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (2, 5), (3, 7)])
def test_stack_evaluation_matches_the_term_loop_and_single_points(p, q):
    mode = rational_mode(p, q)
    rng = np.random.default_rng(7 * q + p)
    pts = [random_point4(rng) for _ in range(6)] + [BasePoint4(0.0, 0.0), BasePoint4(1.0, 1.5)]
    rsx = [pt.rsx for pt in pts]
    exact, chain = monomial_table(q, p), chain_table(q, p)
    for _ in range(3):
        e = random_element(mode, rng, with_x=True, nterms=6, maxexp=3)
        weight = max(term_weight(e, *point) for point in rsx)
        for z1, z2 in ((1 + 0j, 1 + 0j), (pts[0].z1, pts[0].z2)):
            stack = toric._evaluate(e, rsx, z1, z2, p, q)
            assert np.array_equal(stack, term_loop_stack(e, rsx, z1, z2, exact))
            drift = np.abs(stack - term_loop_stack(e, rsx, z1, z2, chain)).max()
            assert drift <= weight * (chain_bound(q) + 8 * np.finfo(float).eps)
            for pt, got in zip(pts, stack):
                assert np.array_equal(got, s4_eval(e, BasePoint4(pt.chi, pt.psi, z1, z2), p, q))


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


def root_points(q):
    roots = [np.exp(2j * np.pi * k / q) for k in range(q)]
    return [(z1, z2) for z1 in roots for z2 in roots]


def root_point_scan(p, q, which):
    """Per-stratum dimensions and verdicts over all q^2 root-of-unity points (oracle)."""
    interior = math.pi / 4
    if which == "s3":
        cases = [("EdgeAlpha", (0.0,)), ("EdgeBeta", (math.pi / 2,)), ("Interior", (interior,))]
        point, fiber_dimension = BasePoint3, s3_fiber_dimension
    else:
        cases = [("EdgeAlpha", (0.0, interior)), ("EdgeBeta", (math.pi / 2, interior)),
                 ("Interior", (interior, interior)), ("Pole", (interior, math.pi / 2))]
        point, fiber_dimension = BasePoint4, s4_fiber_dimension
    dims, verdicts = {}, []
    for label, angles in cases:
        got_label, want = toric._stratum(point(*angles), q)
        seen = {fiber_dimension(*angles, p, q, z1=z1, z2=z2) for z1, z2 in root_points(q)}
        dims[label] = sorted(seen)
        verdicts.append((f"stratum-{label}", seen == {want} and got_label == label))
    return dims, verdicts


@pytest.mark.parametrize("which", ["s3", "s4"])
@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (1, 3), (2, 5), (3, 7)])
def test_stratum_scan_matches_the_root_point_scan(which, p, q):
    rep = stratum_scan(p, q, which=which)
    dims, verdicts = root_point_scan(p, q, which)
    assert rep.context["dims"] == dims
    assert [(c.name, c.passed) for c in rep.records] == verdicts


def spy_fiber_dims(monkeypatch) -> list:
    """Record the (p, q) of every fiber dimension read from here on."""
    fiber_dim, calls = toric._fiber_dim, []

    def spy(pt, p, q):
        calls.append((p, q))
        return fiber_dim(pt, p, q)

    monkeypatch.setattr(toric, "_fiber_dim", spy)
    return calls


def test_toric_scan_reads_two_points_per_stratum_and_closes_nothing(monkeypatch, capsys,
                                                                     count_calls):
    """Two class representatives per stratum in the scan, and no numeric closure in toric-scan."""
    calls = spy_fiber_dims(monkeypatch)
    closures = count_calls(linalg, "generated_algebra")
    for which, q, strata in (("s3", 2, 3), ("s3", 7, 3), ("s4", 5, 4)):
        calls.clear()
        assert main(["toric-scan", which, "1", str(q), "0.1"]) == 0
        assert calls == [(1, q)] * 2 * strata
    assert closures == []
    capsys.readouterr()


@pytest.mark.parametrize("which", ["s3", "s4"])
def test_profile_and_continuity_report_close_nothing(monkeypatch, which):
    calls = spy_fiber_dims(monkeypatch)
    mode = rational_mode(2, 5)
    polys = [sphere_alpha(mode), sphere_alpha(mode) * sphere_beta(mode)]
    rows, _ = norm_profile(polys[0], 0.1, 2, 5, which=which)
    continuity_report(polys, 0.2, 2, 5, which=which)  # one norm_profile per polynomial
    assert calls == []
    assert {row["stratum"] for row in rows} >= {"EdgeAlpha", "EdgeBeta", "Interior"}


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


def per_point_fine_norms(e, h, p, q, which):
    """Fine-grid norms from one ``op_norm(s*_eval(...))`` per point (oracle)."""
    n = max(1, round((math.pi / 2) / h))
    angles = np.linspace(0.0, math.pi / 2, 2 * n + 1)
    if which == "s3":
        return np.array([[op_norm(s3_eval(e, BasePoint3(chi), p, q))] for chi in angles])
    return np.array([[op_norm(s4_eval(e, BasePoint4(chi, psi), p, q)) for psi in angles]
                     for chi in angles])


def assert_norms_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = np.where(np.abs(want) > 1e-9, 1e-12 * np.abs(want), 0.0)
    assert np.all(np.abs(got - want) <= np.maximum(scale, 1e-15))


@pytest.mark.parametrize("which,with_x", [("s3", False), ("s4", False), ("s4", True)])
@pytest.mark.parametrize("p,q,h", [(1, 2, 0.3), (1, 3, 0.2), (2, 5, 0.4), (3, 7, 0.5)])
def test_norm_profile_matches_the_per_point_loop(which, with_x, p, q, h):
    mode = rational_mode(p, q)
    rng = np.random.default_rng(100 * q + 2 * p + with_x)
    for _ in range(2):
        e = random_element(mode, rng, with_x=with_x, nterms=4, maxexp=3)
        rows, stats = norm_profile(e, h, p, q, which=which)
        fine = per_point_fine_norms(e, h, p, q, which)
        # every grid has rows on both edges, the interior and (s4) the pole
        labels = {"EdgeAlpha", "EdgeBeta", "Interior"} | ({"Pole"} if which == "s4" else set())
        assert {row["stratum"] for row in rows} == labels
        assert_norms_close([row["norm"] for row in rows], fine[::2, ::2].ravel())
        for key, grid in (("max_jump", fine[::2, ::2]), ("max_jump_half_step", fine)):
            jump = max(np.abs(np.diff(grid, axis=0)).max(initial=0.0),
                       np.abs(np.diff(grid, axis=1)).max(initial=0.0))
            assert abs(stats[key] - jump) <= 1e-12 * max(1.0, jump)


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
    assert continuity_report([e], 0.05, p, q).context["ratios"] == [stats]


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
