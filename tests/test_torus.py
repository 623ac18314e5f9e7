import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgauge.torus import (
    SYMBOLIC,
    BadParameters,
    ModeMismatch,
    NotOnTorus,
    PhaseScalar,
    TorusElement,
    central_monomials,
    clock_shift,
    monomial_sum,
    rational_mode,
    torus_generator,
    torus_one,
    torus_rep,
    trace_state,
    word_layout,
)

# ---------------------------------------------------------------------------
# oracle: normal ordering by explicit adjacent transpositions
# ---------------------------------------------------------------------------


def word_of(n1, n2):
    w = [("1", 1 if n1 > 0 else -1)] * abs(n1)
    w += [("2", 1 if n2 > 0 else -1)] * abs(n2)
    return w


def normal_order(word):
    """Bubble every generator-1 letter to the left, counting swap phases.

    Swapping an adjacent pair (U2^s, U1^r) into (U1^r, U2^s) multiplies
    by t^(s*r); this is the whole commutation content of the algebra.
    """
    letters = list(word)
    power = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            (g, s), (h, r) = letters[i], letters[i + 1]
            if g == "2" and h == "1":
                power += s * r
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                changed = True
    n1 = sum(s for g, s in letters if g == "1")
    n2 = sum(s for g, s in letters if g == "2")
    return n1, n2, power


exps = st.integers(min_value=-3, max_value=3)


@given(exps, exps, exps, exps)
def test_monomial_product_phase_matches_swap_oracle(n1, n2, m1, m2):
    a = TorusElement.monomial(SYMBOLIC, n1, n2)
    b = TorusElement.monomial(SYMBOLIC, m1, m2)
    k1, k2, power = normal_order(word_of(n1, n2) + word_of(m1, m2))
    prod = a * b
    assert prod.support == {(k1, k2)}
    assert prod.coefficient(k1, k2).allclose(PhaseScalar.t_power(SYMBOLIC, power))


@given(exps, exps)
def test_monomial_adjoint_matches_swap_oracle(n1, n2):
    a = TorusElement.monomial(SYMBOLIC, n1, n2)
    # star reverses the word and flips signs: (U1^n1 U2^n2)* = U2^-n2 U1^-n1
    reversed_word = [("2", -1 if n2 > 0 else 1)] * abs(n2)
    reversed_word += [("1", -1 if n1 > 0 else 1)] * abs(n1)
    k1, k2, power = normal_order(reversed_word)
    st_a = a.adjoint()
    assert st_a.support == {(k1, k2)}
    assert st_a.coefficient(k1, k2).allclose(PhaseScalar.t_power(SYMBOLIC, power))


def small_elements(mode):
    coeff = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)

    def build(pairs):
        out = TorusElement(mode)
        for (n1, n2), c in pairs:
            out = out + TorusElement.monomial(mode, n1, n2).scale(c)
        return out

    return st.lists(st.tuples(st.tuples(exps, exps), coeff), min_size=1, max_size=3).map(build)


@settings(max_examples=60)
@given(small_elements(SYMBOLIC), small_elements(SYMBOLIC), small_elements(SYMBOLIC))
def test_product_associative_and_distributive(a, b, c):
    assert ((a * b) * c).allclose(a * (b * c), tol=1e-9)
    assert (a * (b + c)).allclose(a * b + a * c, tol=1e-9)


@settings(max_examples=60)
@given(small_elements(SYMBOLIC), small_elements(SYMBOLIC))
def test_star_antimultiplicative(a, b):
    assert (a * b).adjoint().allclose(b.adjoint() * a.adjoint(), tol=1e-9)
    assert a.adjoint().adjoint().allclose(a, tol=1e-12)


def test_defining_relation():
    u1 = torus_generator(SYMBOLIC, 1)
    u2 = torus_generator(SYMBOLIC, 2)
    lhs = u2 * u1
    rhs = (u1 * u2)
    t = PhaseScalar.t_power(SYMBOLIC, 1)
    assert lhs.coefficient(1, 1).allclose(rhs.coefficient(1, 1) * t)


def test_unitary_generators():
    for which in (1, 2):
        u = torus_generator(SYMBOLIC, which)
        assert (u * u.adjoint()).allclose(torus_one(SYMBOLIC))
        assert (u.adjoint() * u).allclose(torus_one(SYMBOLIC))


# ---------------------------------------------------------------------------
# rational mode
# ---------------------------------------------------------------------------


def test_rational_mode_reduces_phase():
    mode = rational_mode(1, 3)
    assert PhaseScalar.t_power(mode, 3).allclose(PhaseScalar.const(mode, 1.0))
    assert abs(PhaseScalar.t_power(mode, 1).value() - np.exp(2j * np.pi / 3)) < 1e-14
    with pytest.raises(BadParameters):
        rational_mode(2, 4)
    with pytest.raises(BadParameters):
        rational_mode(1, 0)


def test_mode_mixing_rejected():
    a = torus_generator(SYMBOLIC, 1)
    b = torus_generator(rational_mode(1, 2), 1)
    with pytest.raises(ModeMismatch):
        a * b


def test_clock_shift_relation():
    for q, p in [(2, 1), (3, 1), (3, 2), (5, 2)]:
        r1, r2 = clock_shift(q, p)
        zeta = np.exp(2j * np.pi * p / q)
        assert np.allclose(r2 @ r1, zeta * r1 @ r2)
        assert np.allclose(np.linalg.matrix_power(r1, q), np.eye(q))
        assert np.allclose(np.linalg.matrix_power(r2, q), np.eye(q))
        for r in (r1, r2):
            assert np.allclose(r @ r.conj().T, np.eye(q))


def test_torus_rep_is_homomorphism():
    mode = rational_mode(2, 5)
    rng = np.random.default_rng(0)
    for seed in range(4):
        rng2 = np.random.default_rng(seed)
        a = TorusElement(mode)
        b = TorusElement(mode)
        for _ in range(3):
            a = a + TorusElement.monomial(mode, int(rng2.integers(-4, 5)),
                                          int(rng2.integers(-4, 5))).scale(complex(rng2.standard_normal(), rng2.standard_normal()))
            b = b + TorusElement.monomial(mode, int(rng2.integers(-4, 5)),
                                          int(rng2.integers(-4, 5))).scale(complex(rng2.standard_normal(), rng2.standard_normal()))
        z1 = np.exp(2j * np.pi * rng.random())
        z2 = np.exp(2j * np.pi * rng.random())
        left = torus_rep(a * b, z1, z2)
        right = torus_rep(a, z1, z2) @ torus_rep(b, z1, z2)
        assert np.max(np.abs(left - right)) < 1e-10
        star = torus_rep(a.adjoint(), z1, z2)
        assert np.max(np.abs(star - torus_rep(a, z1, z2).conj().T)) < 1e-10


def residue_word(q, p, i, j):
    """R1^i R2^j placed entry by entry (oracle).

    S^i C^j maps e_k to zeta^(j k) e_(k+i), so the word is zeta^(p j k mod q),
    taken from its exact integer residue, at [(k + i) mod q, k] on the i-th
    cyclic off-diagonal, and 0 elsewhere.
    """
    out = np.zeros((q, q), dtype=complex)
    for k in range(q):
        out[(k + i) % q, k] = cmath.exp(2j * math.pi * (p * j * k % q) / q)
    return out


def monomial_table(q, p):
    """The q x q x q x q table whose [i, j] entry is R1^i R2^j, by exact residues (oracle)."""
    return np.array([[residue_word(q, p, i, j) for j in range(q)] for i in range(q)])


def rebuilt_powers(q, p):
    """R1^i and R2^j for i, j < q, by the running matrix products of the clock/shift pair."""
    r1, r2 = clock_shift(q, p)
    pow1 = [np.eye(q, dtype=complex)]
    pow2 = [np.eye(q, dtype=complex)]
    for _ in range(q - 1):
        pow1.append(pow1[-1] @ r1)
        pow2.append(pow2[-1] @ r2)
    return pow1, pow2


def chain_table(q, p):
    """The q x q x q x q table whose [i, j] entry is R1^i R2^j, by running products."""
    pow1, pow2 = rebuilt_powers(q, p)
    return np.array([[a @ b for b in pow2] for a in pow1])


def chain_bound(q):
    """How far running products of the pair may drift from the residue words, per unit scalar.

    The shift powers are exact permutations.  R2^j, j < q, multiplies j clock
    entries.  Each entry's angle 2 pi r/q carries up to 1.5 eps of relative
    rounding, at most 9.5 eps absolute, and its exponential adds about one
    more; each product adds a complex rounding (1.2 eps).  So 12 q eps holds.
    Measured: at most 5.8 q eps over every coprime (p, q) with q < 60 and at
    q = 89, 144 and 233 (1.1e-13 at q = 89).
    """
    return 12 * q * np.finfo(float).eps


def term_loop_rep(a, z1, z2, table):
    """One scalar times a table matrix per term, summed in place (oracle)."""
    q = a.mode.q
    out = np.zeros((q, q), dtype=complex)
    for (n1, n2), c in a.terms.items():
        scalar = c.value() * z1 ** n1 * z2 ** n2
        out += scalar * table[n1 % q, n2 % q]
    return out


@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (2, 5), (3, 7), (5, 11)])
def test_torus_rep_matches_the_term_loop(p, q):
    mode = rational_mode(p, q)
    rng = np.random.default_rng(10 * q + p)
    exact, chain = monomial_table(q, p), chain_table(q, p)
    for _ in range(4):
        a = TorusElement(mode, {
            (int(rng.integers(-2 * q, 2 * q + 1)), int(rng.integers(-2 * q, 2 * q + 1))):
            PhaseScalar.t_power(mode, int(rng.integers(-3, 4)),
                                complex(rng.standard_normal(), rng.standard_normal()))
            for _ in range(6)})
        weight = sum(abs(c.value()) for c in a.terms.values())
        angles = [(0.0, 0.0), (2 * np.pi * p / q, np.pi), tuple(rng.uniform(0, 2 * np.pi, 2))]
        for z1, z2 in [(complex(np.exp(1j * t1)), complex(np.exp(1j * t2))) for t1, t2 in angles]:
            got = torus_rep(a, z1, z2)
            assert np.array_equal(got, term_loop_rep(a, z1, z2, exact))
            # the running products agree up to their drift, and a rounding per summed term
            drift = np.abs(got - term_loop_rep(a, z1, z2, chain)).max()
            assert drift <= weight * (chain_bound(q) + 8 * np.finfo(float).eps)
    zero = TorusElement(mode)
    assert np.array_equal(torus_rep(zero, 1.0, 1.0), np.zeros((q, q), dtype=complex))


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 5), (3, 7)])
def test_monomial_sum_matches_rebuilt_powers(p, q):
    pow1, pow2 = rebuilt_powers(q, p)
    for i in range(q):
        for j in range(q):
            got = monomial_sum([((i, j), 1)], q, p)
            assert np.array_equal(got, residue_word(q, p, i, j))
            assert np.abs(got - pow1[i] @ pow2[j]).max() <= chain_bound(q)
    assert word_layout(q, p) is word_layout(q, p)  # kept per (p, q)
    for table in word_layout(q, p):
        assert table.shape == (q, q)
        assert not table.flags.writeable


@pytest.mark.parametrize("p,q", [(1, 2), (2, 5), (3, 7), (5, 13), (1, 144)])
def test_clock_words_and_coefficients_read_one_root_of_unity_rule(p, q):
    """zeta^k = e^(2 pi i r/q) at r = (p k) mod q, bit for bit the same in all three readers."""
    clock = clock_shift(q, p)[1].diagonal()
    phases, _ = word_layout(q, p)
    mode = rational_mode(p, q)
    values = np.array([PhaseScalar.t_power(mode, k).value() for k in range(q)])
    b, j = np.divmod(np.arange(q * q), q)
    assert np.array_equal(phases[b, j], clock[b * j % q])
    assert np.array_equal(values, clock)
    exact = np.array([cmath.exp(2j * math.pi * (p * k % q) / q) for k in range(q)])
    assert np.abs(clock - exact).max() <= 1e-15


def test_word_layout_is_quadratic_in_memory():
    """An uncached layout at q = 377 holds a few (q, q) tables, not a q^3 chain of clock powers."""
    tracemalloc.start()
    try:
        word_layout.__wrapped__(377, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("p,q,message", [(1, 0, "q must be a positive integer, got 0"),
                                         (2, 4, "p and q must be coprime, got (2, 4)")])
def test_clock_shift_rejects_what_rational_mode_rejects(p, q, message):
    for make in (lambda: rational_mode(p, q), lambda: clock_shift(q, p)):
        with pytest.raises(BadParameters) as exc:
            make()
        assert str(exc.value) == message


def test_torus_rep_input_checks():
    mode = rational_mode(1, 3)
    a = torus_generator(mode, 1)
    with pytest.raises(NotOnTorus):
        torus_rep(a, 2.0, 1.0)
    with pytest.raises(ModeMismatch):
        torus_rep(torus_generator(SYMBOLIC, 1), 1.0, 1.0)


def test_trace_matches_averaged_matrix_trace():
    # aliasing-free window: support strictly inside (-q, q) in both slots
    q = 3
    mode = rational_mode(1, q)
    rng = np.random.default_rng(7)
    a = TorusElement(mode)
    for _ in range(5):
        a = a + TorusElement.monomial(mode, int(rng.integers(-(q - 1), q)),
                                      int(rng.integers(-(q - 1), q))).scale(complex(rng.standard_normal(), rng.standard_normal()))
    roots = [np.exp(2j * np.pi * k / q) for k in range(q)]
    avg = 0.0
    for z1 in roots:
        for z2 in roots:
            avg += np.trace(torus_rep(a, z1, z2)) / q
    avg /= q * q
    assert abs(avg - trace_state(a).value()) < 1e-10


# ---------------------------------------------------------------------------
# center scans against the divisibility oracle
# ---------------------------------------------------------------------------


def divisibility_center(mode, degree):
    q = mode.q if mode.is_rational else 0
    out = []
    for m in range(-degree, degree + 1):
        for n in range(-degree, degree + 1):
            if q == 0:
                if m == 0 and n == 0:
                    out.append((m, n))
            elif m % q == 0 and n % q == 0:
                out.append((m, n))
    return out


def test_symbolic_center_scan_is_trivial():
    assert central_monomials(SYMBOLIC, 4) == [(0, 0)]


@pytest.mark.parametrize("p,q,degree", [(1, 2, 4), (1, 3, 4), (2, 5, 6)])
def test_rational_center_scan_matches_divisibility(p, q, degree):
    mode = rational_mode(p, q)
    assert central_monomials(mode, degree) == divisibility_center(mode, degree)


def test_q2_center_contains_squares():
    got = central_monomials(rational_mode(1, 2), 4)
    assert (2, 0) in got and (0, 2) in got and (0, 0) in got
