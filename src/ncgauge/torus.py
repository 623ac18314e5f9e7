"""The noncommutative 2-torus with exact phase arithmetic.

Elements are finite sums  sum c(n1,n2) U1^n1 U2^n2  in the normal-ordered
monomial basis, where the generators obey  U2 U1 = t U1 U2  with
t = e^(2 pi i theta).  Coefficients are Laurent polynomials in t
(:class:`PhaseScalar`), so reordering phases stay exact integers:

    (U1^m1 U2^m2)(U1^n1 U2^n2) = t^(m2*n1) U1^(m1+n1) U2^(m2+n2)
    (U1^m U2^n)^*               = t^(m*n)   U1^(-m)   U2^(-n)

Two coefficient modes exist.  ``Symbolic`` keeps t formal.
``Rational(p, q)`` sets t to the primitive root zeta = e^(2 pi i p/q)
and reduces t-exponents mod q; in that mode elements can be evaluated in
the q x q clock/shift representation U1 -> z1 R1, U2 -> z2 R2 indexed by
a point (z1, z2) of the ordinary torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import adjoint, op_norm

__all__ = [
    "ModeMismatch",
    "NotOnTorus",
    "VanishingTrace",
    "BadParameters",
    "PhaseMode",
    "SYMBOLIC",
    "rational_mode",
    "PhaseScalar",
    "TorusElement",
    "torus_one",
    "torus_generator",
    "clock_shift",
    "monomial_table",
    "torus_rep",
    "trace_state",
    "phase_map",
    "central_monomials",
    "torus_exp",
]

PRUNE_TOL = 1e-14


class ModeMismatch(ValueError):
    """Operands carry different phase modes."""


class NotOnTorus(ValueError):
    """A sampling point had non-unit modulus."""


class VanishingTrace(ArithmeticError):
    """The phase of an element with numerically zero trace was requested."""


class BadParameters(ValueError):
    """Invalid (p, q) for a rational phase."""


@dataclass(frozen=True)
class PhaseMode:
    """Coefficient mode: symbolic t, or t = e^(2 pi i p/q)."""

    p: int | None = None
    q: int | None = None

    @property
    def is_rational(self) -> bool:
        return self.q is not None

    def reduce(self, k: int) -> int:
        return k % self.q if self.q is not None else k

    def root(self) -> complex:
        if self.q is None:
            raise ModeMismatch("symbolic mode has no numeric root of unity")
        return np.exp(2j * np.pi * self.p / self.q)

    def __str__(self) -> str:
        return "symbolic" if self.q is None else f"rational({self.p}/{self.q})"


SYMBOLIC = PhaseMode()


def rational_mode(p: int, q: int) -> PhaseMode:
    if q < 1:
        raise BadParameters(f"q must be a positive integer, got {q}")
    if math.gcd(p, q) != 1:
        raise BadParameters(f"p and q must be coprime, got ({p}, {q})")
    return PhaseMode(p=p % q, q=q)


class PhaseScalar:
    """Finitely supported Laurent polynomial in the phase t."""

    __slots__ = ("mode", "coeffs")

    def __init__(self, mode: PhaseMode, coeffs: dict[int, complex] | None = None):
        self.mode = mode
        cleaned: dict[int, complex] = {}
        for k, c in (coeffs or {}).items():
            c = complex(c)
            if abs(c) < PRUNE_TOL:
                continue
            k = mode.reduce(int(k))
            cleaned[k] = cleaned.get(k, 0.0) + c
        self.coeffs = {k: c for k, c in cleaned.items() if abs(c) >= PRUNE_TOL}

    @classmethod
    def const(cls, mode: PhaseMode, c: complex) -> "PhaseScalar":
        return cls(mode, {0: complex(c)})

    @classmethod
    def one(cls, mode: PhaseMode) -> "PhaseScalar":
        return cls.const(mode, 1.0)

    @classmethod
    def t_power(cls, mode: PhaseMode, k: int, c: complex = 1.0) -> "PhaseScalar":
        return cls(mode, {k: complex(c)})

    def _check(self, other: "PhaseScalar") -> None:
        if self.mode != other.mode:
            raise ModeMismatch(f"{self.mode} vs {other.mode}")

    def __add__(self, other: "PhaseScalar") -> "PhaseScalar":
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return PhaseScalar(self.mode, out)

    def __neg__(self) -> "PhaseScalar":
        return PhaseScalar(self.mode, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "PhaseScalar") -> "PhaseScalar":
        return self + (-other)

    def __mul__(self, other) -> "PhaseScalar":
        if isinstance(other, (int, float, complex)):
            return PhaseScalar(self.mode, {k: c * other for k, c in self.coeffs.items()})
        self._check(other)
        out: dict[int, complex] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = self.mode.reduce(k1 + k2)
                out[k] = out.get(k, 0.0) + c1 * c2
        return PhaseScalar(self.mode, out)

    __rmul__ = __mul__

    def conj(self) -> "PhaseScalar":
        """Conjugation: t -> t^-1, coefficients conjugated."""
        return PhaseScalar(self.mode, {-k: np.conj(c) for k, c in self.coeffs.items()})

    def is_zero(self, tol: float = PRUNE_TOL) -> bool:
        return all(abs(c) < tol for c in self.coeffs.values())

    def value(self, theta: float | None = None) -> complex:
        """Numeric value; rational modes use zeta, symbolic modes need theta."""
        if self.mode.is_rational:
            z = self.mode.root()
        elif theta is not None:
            z = np.exp(2j * np.pi * theta)
        else:
            raise ModeMismatch("symbolic phase needs an explicit theta to evaluate")
        return complex(sum(c * z ** k for k, c in self.coeffs.items()))

    def allclose(self, other: "PhaseScalar", tol: float = 1e-12) -> bool:
        self._check(other)
        keys = set(self.coeffs) | set(other.coeffs)
        return all(abs(self.coeffs.get(k, 0.0) - other.coeffs.get(k, 0.0)) <= tol for k in keys)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            head = f"({c:.6g})" if k == 0 else (f"({c:.6g})*t^{k}" if k != 1 else f"({c:.6g})*t")
            bits.append(head)
        return " + ".join(bits)


def _accumulate(out: dict, key, c: PhaseScalar) -> None:
    out[key] = out[key] + c if key in out else c


class PhasePolynomial:
    """Finite sum of normal-ordered monomials over PhaseScalar coefficients.

    Subclasses supply three static methods: ``_key(key)`` normalizes and
    validates a monomial key, ``_product_phase(left, right)`` is the
    t-exponent of reordering a product of two monomials, and ``_star(key)``
    returns the starred monomial's key with its t-exponent.
    """

    __slots__ = ("mode", "terms")

    def __init__(self, mode: PhaseMode, terms: dict[tuple, PhaseScalar] | None = None):
        self.mode = mode
        self.terms: dict[tuple, PhaseScalar] = {}
        for key, c in (terms or {}).items():
            key = self._key(key)
            if c.mode != mode:
                raise ModeMismatch("coefficient mode differs from element mode")
            if not c.is_zero():
                self.terms[key] = c

    @staticmethod
    def _scalar(mode: PhaseMode, c) -> PhaseScalar:
        return c if isinstance(c, PhaseScalar) else PhaseScalar.const(mode, c)

    def _check(self, other: "PhasePolynomial") -> None:
        if self.mode != other.mode:
            raise ModeMismatch(f"{self.mode} vs {other.mode}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, c)
        return type(self)(self.mode, out)

    def __neg__(self):
        return type(self)(self.mode, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        s = self._scalar(self.mode, c)
        return type(self)(self.mode, {k: s * v for k, v in self.terms.items()})

    def __mul__(self, other):
        """Normal-ordered product: exponents add, times the reordering phase."""
        self._check(other)
        out: dict[tuple, PhaseScalar] = {}
        for k1, c in self.terms.items():
            for k2, d in other.terms.items():
                phase = PhaseScalar.t_power(self.mode, self._product_phase(k1, k2))
                _accumulate(out, tuple(a + b for a, b in zip(k1, k2)), c * d * phase)
        return type(self)(self.mode, out)

    def adjoint(self):
        """Conjugated coefficients times the phase of re-normal-ordering each starred monomial."""
        out: dict[tuple, PhaseScalar] = {}
        for k, c in self.terms.items():
            key, exponent = self._star(k)
            _accumulate(out, key, c.conj() * PhaseScalar.t_power(self.mode, exponent))
        return type(self)(self.mode, out)

    @property
    def support(self) -> set[tuple]:
        return set(self.terms)

    def is_zero(self, tol: float = PRUNE_TOL) -> bool:
        return all(c.is_zero(tol) for c in self.terms.values())

    def allclose(self, other, tol: float = 1e-12) -> bool:
        self._check(other)
        keys = set(self.terms) | set(other.terms)
        zero = PhaseScalar(self.mode)
        return all(
            self.terms.get(k, zero).allclose(other.terms.get(k, zero), tol) for k in keys
        )


class TorusElement(PhasePolynomial):
    """Finite sum of normal-ordered monomials c(n1,n2) U1^n1 U2^n2."""

    __slots__ = ()

    @classmethod
    def monomial(cls, mode: PhaseMode, n1: int, n2: int, coeff=1.0) -> "TorusElement":
        return cls(mode, {(n1, n2): cls._scalar(mode, coeff)})

    @staticmethod
    def _key(key) -> tuple[int, int]:
        return (int(key[0]), int(key[1]))

    @staticmethod
    def _product_phase(left: tuple[int, int], right: tuple[int, int]) -> int:
        """(U1^m1 U2^m2)(U1^n1 U2^n2) reorders with t^(m2*n1)."""
        return left[1] * right[0]

    @staticmethod
    def _star(key: tuple[int, int]) -> tuple[tuple[int, int], int]:
        """(U1^m U2^n)^* = t^(m n) U1^-m U2^-n."""
        m, n = key
        return (-m, -n), m * n

    def coefficient(self, n1: int, n2: int) -> PhaseScalar:
        return self.terms.get((n1, n2), PhaseScalar(self.mode))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (m, n) in sorted(self.terms):
            bits.append(f"[{self.terms[(m, n)]!r}]*U1^{m}*U2^{n}")
        return " + ".join(bits)


def torus_one(mode: PhaseMode) -> TorusElement:
    return TorusElement.monomial(mode, 0, 0)


def torus_generator(mode: PhaseMode, which: int, power: int = 1) -> TorusElement:
    if which == 1:
        return TorusElement.monomial(mode, power, 0)
    if which == 2:
        return TorusElement.monomial(mode, 0, power)
    raise ValueError("generator index must be 1 or 2")


# -- rational representations ------------------------------------------------

_CLOCK_SHIFT_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def clock_shift(q: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The q x q pair (R1, R2) with R2 R1 = zeta R1 R2 and R_i^q = 1.

    Which of the clock and shift matrices plays R1 is not hard-coded: both
    assignments are tried and the one satisfying the relation for
    zeta = e^(2 pi i p/q) is kept, failing loudly if neither does.
    """
    mode = rational_mode(p, q)
    key = (mode.p, q)
    if key in _CLOCK_SHIFT_CACHE:
        return _CLOCK_SHIFT_CACHE[key]
    zeta = np.exp(2j * np.pi * p / q)
    clock = np.diag(zeta ** np.arange(q)).astype(complex)
    shift = np.zeros((q, q), dtype=complex)
    for j in range(q):
        shift[(j + 1) % q, j] = 1.0
    for r1, r2 in ((shift, clock), (clock, shift)):
        if op_norm(r2 @ r1 - zeta * (r1 @ r2)) < 1e-12:
            for r in (r1, r2):
                assert op_norm(np.linalg.matrix_power(r, q) - np.eye(q)) < 1e-10
                assert op_norm(r @ adjoint(r) - np.eye(q)) < 1e-12
            _CLOCK_SHIFT_CACHE[key] = (r1, r2)
            return r1, r2
    raise BadParameters(f"no clock/shift assignment satisfies the relation for ({p}, {q})")


_MONOMIAL_CACHE: dict[tuple[int, int], np.ndarray] = {}


def monomial_table(q: int, p: int) -> np.ndarray:
    """Read-only q x q x q x q table whose [i, j] entry is R1^i R2^j.

    Built once per (p, q) from the clock/shift pair; every torus and
    sphere evaluation reads its monomial matrices from here.
    """
    key = (p, q)
    if key not in _MONOMIAL_CACHE:
        r1, r2 = clock_shift(q, p)
        pow1, pow2 = [np.eye(q, dtype=complex)], [np.eye(q, dtype=complex)]
        for _ in range(q - 1):
            pow1.append(pow1[-1] @ r1)
            pow2.append(pow2[-1] @ r2)
        table = np.array([[a @ b for b in pow2] for a in pow1])
        table.flags.writeable = False
        _MONOMIAL_CACHE[key] = table
    return _MONOMIAL_CACHE[key]


def check_unit(z: complex) -> complex:
    """z as a complex number; :class:`NotOnTorus` unless |z| = 1 within 1e-12."""
    if abs(abs(z) - 1.0) > 1e-12:
        raise NotOnTorus(f"|z| = {abs(z)!r} is not 1")
    return complex(z)


def torus_rep(a: TorusElement, z1: complex, z2: complex) -> np.ndarray:
    """Evaluate in the clock/shift representation U1 -> z1 R1, U2 -> z2 R2.

    Requires rational mode and |z1| = |z2| = 1.  The assignment respects
    the defining relation, hence extends to a *-homomorphism on
    polynomial elements.
    """
    if not a.mode.is_rational:
        raise ModeMismatch("matrix evaluation needs a rational phase mode")
    z1, z2 = check_unit(z1), check_unit(z2)
    p, q = a.mode.p, a.mode.q
    table = monomial_table(q, p)
    out = np.zeros((q, q), dtype=complex)
    for (n1, n2), c in a.terms.items():
        scalar = c.value() * z1 ** n1 * z2 ** n2
        out += scalar * table[n1 % q, n2 % q]
    return out


def trace_state(a: TorusElement) -> PhaseScalar:
    """The canonical trace: the coefficient of the (0, 0) monomial."""
    return a.coefficient(0, 0)


def phase_map(u: TorusElement, theta: float | None = None) -> complex:
    """tau(u) / |tau(u)|; raises :class:`VanishingTrace` when |tau| < 1e-8."""
    tau = trace_state(u).value(theta)
    if abs(tau) < 1e-8:
        raise VanishingTrace(f"|tau(u)| = {abs(tau):.2e} is below 1e-8")
    return tau / abs(tau)


def central_monomials(mode: PhaseMode, degree: int) -> list[tuple[int, int]]:
    """Monomial exponents (m, n), |m|, |n| <= degree, commuting with U1 and U2.

    The scan computes both commutators exactly in the phase arithmetic
    rather than applying a closed-form divisibility rule; centrality of a
    general element reduces to its monomials because commutation with a
    generator acts diagonally on the (n1, n2) grading.
    """
    u1 = torus_generator(mode, 1)
    u2 = torus_generator(mode, 2)
    out = []
    for m in range(-degree, degree + 1):
        for n in range(-degree, degree + 1):
            mon = TorusElement.monomial(mode, m, n)
            if (mon * u1 - u1 * mon).is_zero() and (mon * u2 - u2 * mon).is_zero():
                out.append((m, n))
    return sorted(out)


def torus_exp(a: TorusElement, max_terms: int = 120, tol: float = 1e-16) -> TorusElement:
    """exp(a) by power series, truncated once terms fall below tol.

    Term size is measured through numeric coefficient values, so a
    rational mode is required.
    """
    if not a.mode.is_rational:
        raise ModeMismatch("series truncation needs numeric coefficients")

    def l1(x: TorusElement) -> float:
        return sum(abs(c.value()) for c in x.terms.values())

    out = torus_one(a.mode)
    term = torus_one(a.mode)
    for k in range(1, max_terms + 1):
        term = term * a
        term = term.scale(1.0 / k)
        out = out + term
        if l1(term) < tol * max(1.0, l1(out)):
            return out
    raise ArithmeticError("exponential series did not converge within max_terms")
