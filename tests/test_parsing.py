import pytest

from ncgauge.parsing import ParseError, parse_sphere, parse_torus
from ncgauge.spheres import SphereElement, sphere_one
from ncgauge.torus import SYMBOLIC, NonFiniteCoefficient, PhaseScalar, TorusElement, rational_mode


def test_torus_monomials_and_precedence():
    a = parse_torus("U1^2*U2^-1 + (0.5+0.5i)*1", SYMBOLIC)
    assert a.support == {(2, -1), (0, 0)}
    assert abs(a.coefficient(0, 0).value(theta=0.0) - (0.5 + 0.5j)) < 1e-14
    b = parse_torus("1 + 2*U1", SYMBOLIC)
    assert abs(b.coefficient(1, 0).value(theta=0.0) - 2.0) < 1e-14
    assert abs(b.coefficient(0, 0).value(theta=0.0) - 1.0) < 1e-14


def test_torus_order_sensitivity():
    # U2*U1 picks up the commutation phase, U1*U2 does not
    lhs = parse_torus("U2*U1", SYMBOLIC)
    rhs = parse_torus("U1*U2", SYMBOLIC)
    assert not lhs.allclose(rhs)
    mode = rational_mode(1, 4)
    lhs_q = parse_torus("U2*U1", mode)
    rhs_q = parse_torus("U1*U2", mode)
    import numpy as np
    zeta = np.exp(2j * np.pi / 4)
    assert abs(lhs_q.coefficient(1, 1).value() - zeta * rhs_q.coefficient(1, 1).value()) < 1e-14


def test_leading_minus_and_subtraction():
    a = parse_torus("-U1 + 3 - U2^2", SYMBOLIC)
    assert abs(a.coefficient(1, 0).value(theta=0.0) + 1.0) < 1e-14
    assert abs(a.coefficient(0, 0).value(theta=0.0) - 3.0) < 1e-14
    assert abs(a.coefficient(0, 2).value(theta=0.0) + 1.0) < 1e-14


def test_complex_literal_forms():
    for text, want in [("(2i)", 2j), ("(i)", 1j), ("(1-0.5i)", 1 - 0.5j),
                       ("(0.25+i)", 0.25 + 1j)]:
        a = parse_torus(f"{text}*U1", SYMBOLIC)
        assert abs(a.coefficient(1, 0).value(theta=0.0) - want) < 1e-14


def test_scalar_exponents():
    a = parse_torus("2^-1*U1", SYMBOLIC)
    assert abs(a.coefficient(1, 0).value(theta=0.0) - 0.5) < 1e-14
    with pytest.raises(ParseError):
        parse_torus("0^-1", SYMBOLIC)


def test_sphere_relation_roundtrip():
    mode = rational_mode(1, 3)
    parsed = parse_sphere("a*ad + b*bd - 1", mode)
    manual = (SphereElement.monomial(mode, (1, 1, 0, 0, 0))
              + SphereElement.monomial(mode, (0, 0, 1, 1, 0))
              - sphere_one(mode))
    assert parsed.allclose(manual)


def test_sphere_letters_and_powers():
    e = parse_sphere("x^2*a", SYMBOLIC)
    assert e.support == {(1, 0, 0, 0, 2)}
    assert parse_sphere("ad^2", SYMBOLIC).support == {(0, 2, 0, 0, 0)}


def test_sphere_rejects_negative_powers():
    with pytest.raises(ParseError):
        parse_sphere("a^-1", SYMBOLIC)


def test_unknown_generator_and_garbage():
    with pytest.raises(ParseError):
        parse_torus("U3", SYMBOLIC)
    with pytest.raises(ParseError):
        parse_sphere("a + $", SYMBOLIC)
    with pytest.raises(ParseError):
        parse_torus("U1 U2", SYMBOLIC)
    with pytest.raises(ParseError):
        parse_torus("U1^2.5", SYMBOLIC)
    with pytest.raises(ParseError):
        parse_torus("", SYMBOLIC)


def test_torus_exponent_shorthand():
    a = parse_torus("U1^-3", SYMBOLIC)
    assert a.support == {(-3, 0)}
    b = parse_torus("U2^+2", SYMBOLIC)
    assert b.support == {(0, 2)}


@pytest.mark.parametrize("parse", [parse_torus, parse_sphere])
@pytest.mark.parametrize("text,message", [
    ("(1.2.3i)", "bad complex literal '(1.2.3i)' at position 0"),
    ("1 + (.i)", "bad complex literal '(.i)' at position 4"),
    ("2*(1+.i)", "bad complex literal '(1+.i)' at position 2"),
    ("1 + 2^", "exponent must be an integer at position 6"),
    ("1 -", "expected a number or generator at position 3, got end of input"),
])
def test_errors_carry_the_position(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text, SYMBOLIC)
    assert str(exc.value) == message


@pytest.mark.parametrize("parse,letter", [(parse_torus, "U1"), (parse_sphere, "a")])
def test_trailing_caret_reports_the_end_of_input(parse, letter):
    with pytest.raises(ParseError) as exc:
        parse(f"{letter}^", SYMBOLIC)
    assert str(exc.value) == f"exponent must be an integer at position {len(letter) + 1}"


@pytest.mark.parametrize("text", ["1e400*U1", "(1e400i)*U1", "1e300*1e300*U1", "10^400*U1",
                                  "(2i)^2000*U1", "1e200*U1*1e200", "1e308*U1 + 1e308*U1"])
def test_non_finite_coefficient_is_a_parse_error(text):
    with pytest.raises(ParseError, match="^a coefficient is not a finite number$"):
        parse_torus(text, SYMBOLIC)
    with pytest.raises(ParseError, match="^a coefficient is not a finite number$"):
        parse_sphere(text.replace("U1", "a"), rational_mode(1, 2))


def test_nan_coefficient_is_not_pruned():
    with pytest.raises(NonFiniteCoefficient):
        PhaseScalar.const(SYMBOLIC, complex(float("nan"), 0.0))


@pytest.mark.parametrize("text,key,want", [("1e-15*a", (1, 0, 0, 0, 0), 1e-15),
                                           ("1e-7*a*1e-7*a", (2, 0, 0, 0, 0), 1e-14),
                                           ("a + 1e-15*b", (0, 0, 1, 0, 0), 1e-15)])
def test_small_coefficients_survive_parsing(text, key, want):
    """Only what cancellation leaves is pruned, relative to the moduli that went into it."""
    for mode in (SYMBOLIC, rational_mode(1, 2)):
        e = parse_sphere(text, mode)
        assert abs(e.terms[key].value(theta=0.0) - want) <= 1e-12 * want
    assert parse_sphere("a + 1e-15*b", SYMBOLIC).support == {(1, 0, 0, 0, 0), (0, 0, 1, 0, 0)}


def test_cancellation_parses_to_the_zero_element():
    for mode in (SYMBOLIC, rational_mode(1, 2)):
        assert parse_sphere("0.1*x + 0.2*x - 0.3*x", mode).terms == {}
        assert parse_torus("0.1*U1 + 0.2*U1 - 0.3*U1", mode).terms == {}
        assert parse_torus("0*U1", mode).terms == {}


def test_prune_is_relative_to_the_summed_moduli():
    mode = rational_mode(1, 3)
    assert PhaseScalar(mode, [(0, 1.0), (3, -1.0 + 1e-15)]).coeffs == {}
    kept = PhaseScalar(mode, [(0, 1e-3), (3, -1e-3 + 1e-15)]).coeffs
    assert list(kept) == [0] and abs(kept[0] - 1e-15) < 1e-18  # one rounding of 1e-3: 2e-19
