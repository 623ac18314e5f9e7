"""Text format for torus and sphere polynomials.

Grammar (identical for both algebras, differing only in the generator
names admitted):

    expr    :=  ['-'] term (('+' | '-') term)*
    term    :=  factor ('*' factor)*
    factor  :=  atom ['^' integer]
    atom    :=  number | complex | generator
    complex :=  '(' float [('+' | '-') float] 'i' ')'      e.g. (0.5+0.5i), (2i)

Torus generators: ``U1``, ``U2`` (integer exponents of either sign).
Sphere generators: ``a``, ``ad``, ``b``, ``bd``, ``x`` where the ``d``
suffix marks the star of the letter; their exponents must be nonnegative.
Example inputs: ``U1^2*U2^-1 + (0.5+0.5i)*1`` and ``a*ad + b*bd - 1``.
"""

from __future__ import annotations

import re

from .spheres import SphereElement, sphere_one
from .torus import NonFiniteCoefficient, PhaseMode, TorusElement, torus_one

__all__ = ["ParseError", "parse_torus", "parse_sphere"]


class ParseError(ValueError):
    """Input text does not match the polynomial grammar."""


# one spelling of the complex literal: the tokenizer's alternative and the literal's parse
_COMPLEX = r"""\(\s*(?P<re>[0-9.]+(?:[eE][+-]?[0-9]+)?)?\s*
    (?:(?P<sign>[+-])\s*(?P<im>[0-9.]*(?:[eE][+-]?[0-9]+)?))?\s*i\s*\)"""

_TOKEN_RE = re.compile(
    rf"""\s*(?:
        (?P<complex>{_COMPLEX})
      | (?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)
      | (?P<name>[A-Za-z][A-Za-z0-9]*)
      | (?P<op>[-+*^])
    )""",
    re.VERBOSE,
)

_COMPLEX_RE = re.compile(_COMPLEX, re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind).strip(), m.start(kind)))
        pos = m.end()
    return tokens


def _parse_complex(literal: str, pos: int) -> complex:
    m = _COMPLEX_RE.fullmatch(literal)
    bad = ParseError(f"bad complex literal {literal!r} at position {pos}")
    if m is None:
        raise bad
    try:
        re_part = float(m.group("re") or 0.0)
        im_part = float(m.group("im") or 1.0)  # a bare sign, as in (1+i), means 1
    except ValueError:  # a slot like "." or "1.2.3" matches the pattern but is no float
        raise bad from None
    if m.group("sign") is None:
        # pure imaginary form like (2i) or (i): the leading slot is the imag part
        return complex(0.0, re_part if m.group("re") else 1.0)
    return complex(re_part, -im_part if m.group("sign") == "-" else im_part)


class _Parser:
    """Recursive descent over the token list; generator builders pick the algebra.

    Each builder maps an integer exponent straight to a monomial, so
    ``U2^-1`` costs no inversion and sphere letters can reject negative
    powers before any arithmetic happens.
    """

    def __init__(self, text: str, generators: dict, one):
        self.tokens = _tokenize(text)
        self.end = len(text)  # the position reported for running out of input
        self.idx = 0
        self.generators = generators
        self.one = one

    def peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else (None, None, self.end)

    def next(self):
        tok = self.peek()
        self.idx += 1
        return tok

    def parse(self):
        try:
            value = self.parse_expr()
        except (NonFiniteCoefficient, OverflowError):  # a literal, power or product overflows
            raise ParseError("a coefficient is not a finite number") from None
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r} at position {pos}")
        return value

    def parse_expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        value = self.parse_term()
        if negate:
            value = -value
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return value
            self.next()
            term = self.parse_term()
            value = value - term if val == "-" else value + term

    def parse_term(self):
        value = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val != "*":
                return value
            self.next()
            value = value * self.parse_factor()

    def parse_factor(self):
        kind, val, pos = self.next()
        exp = None
        k2, v2, _ = self.peek()
        if k2 == "op" and v2 == "^":
            self.next()
            exp = self.parse_exponent()
        if kind == "number":
            c = float(val)
            return self.one.scale(self._scalar_power(c, exp, pos))
        if kind == "complex":
            c = _parse_complex(val, pos)
            return self.one.scale(self._scalar_power(c, exp, pos))
        if kind == "name":
            if val not in self.generators:
                known = ", ".join(sorted(self.generators))
                raise ParseError(f"unknown generator {val!r} at position {pos} (known: {known})")
            try:
                return self.generators[val](1 if exp is None else exp)
            except ValueError as exc:
                raise ParseError(f"{exc} (at position {pos})") from exc
        got = "end of input" if kind is None else repr(val)
        raise ParseError(f"expected a number or generator at position {pos}, got {got}")

    @staticmethod
    def _scalar_power(c: complex, exp: int | None, pos: int):
        if exp is None:
            return c
        try:
            return c ** exp
        except ZeroDivisionError:
            raise ParseError(f"zero raised to a negative power at position {pos}") from None

    def parse_exponent(self) -> int:
        sign = 1
        kind, val, pos = self.next()
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            kind, val, pos = self.next()
        if kind != "number" or "." in val or "e" in val.lower():
            raise ParseError(f"exponent must be an integer at position {pos}")
        return sign * int(val)


def parse_torus(text: str, mode: PhaseMode) -> TorusElement:
    """Parse a torus polynomial such as ``U1^2*U2^-1 + (0.5+0.5i)*1``."""
    gens = {
        "U1": lambda e: TorusElement.monomial(mode, e, 0),
        "U2": lambda e: TorusElement.monomial(mode, 0, e),
    }
    return _Parser(text, gens, torus_one(mode)).parse()


def _sphere_letter(mode: PhaseMode, slot: int):
    def build(e: int) -> SphereElement:
        if e < 0:
            raise ValueError("negative exponents are not defined for sphere letters")
        key = [0, 0, 0, 0, 0]
        key[slot] = e
        return SphereElement.monomial(mode, tuple(key))

    return build


def parse_sphere(text: str, mode: PhaseMode) -> SphereElement:
    """Parse a sphere polynomial such as ``a*ad + b*bd + x^2 - 1``."""
    gens = {
        "a": _sphere_letter(mode, 0),
        "ad": _sphere_letter(mode, 1),
        "b": _sphere_letter(mode, 2),
        "bd": _sphere_letter(mode, 3),
        "x": _sphere_letter(mode, 4),
    }
    return _Parser(text, gens, sphere_one(mode)).parse()
