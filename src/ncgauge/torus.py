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

Every numeric zeta^k of a rational mode, in the clock, in the word
phases and in a coefficient's value, is read from one table: zeta^k =
e^(2 pi i r/q) with the residue r = (p k) mod q reduced in integers
(:func:`_zeta_powers`).  Each value is one exponential of its own angle,
so a power zeta^(b j) is as accurate for large b as for b = 1, where a
running product of b factors adds a rounding per factor: 1.6e-13 of
drift at q = 144, even from these same factors.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeMismatch",
    "NotOnTorus",
    "BadParameters",
    "NonFiniteCoefficient",
    "PhaseMode",
    "SYMBOLIC",
    "rational_mode",
    "PhaseScalar",
    "TorusElement",
    "torus_one",
    "torus_generator",
    "clock_shift",
    "monomial_sum",
    "torus_rep",
    "trace_state",
    "central_monomials",
]

PRUNE_TOL = 1e-14


class ModeMismatch(ValueError):
    """Operands carry different phase modes."""


class NotOnTorus(ValueError):
    """A sampling point had non-unit modulus."""


class BadParameters(ValueError):
    """Invalid (p, q) for a rational phase."""


class NonFiniteCoefficient(ValueError):
    """A coefficient is infinite or NaN, as an overflowing product leaves it."""


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

    def __str__(self) -> str:
        return "symbolic" if self.q is None else f"rational({self.p}/{self.q})"


SYMBOLIC = PhaseMode()


def rational_mode(p: int, q: int) -> PhaseMode:
    if q < 1:
        raise BadParameters(f"q must be a positive integer, got {q}")
    if math.gcd(p, q) != 1:
        raise BadParameters(f"p and q must be coprime, got ({p}, {q})")
    return PhaseMode(p=p % q, q=q)


@functools.cache
def _zeta_powers(q: int, p: int) -> np.ndarray:
    """The read-only row of zeta^k, k < q, for zeta = e^(2 pi i p/q), kept per (q, p).

    The one root-of-unity rule: zeta^k = e^(2 pi i r/q) with r = (p k) mod q
    computed in integers, one exponential per value.  That is ``cmath``'s;
    numpy's vectorised complex exponential differs from it by up to 1e-15.
    Rejects what :func:`rational_mode` rejects.
    """
    rational_mode(p, q)
    table = np.array([cmath.exp(2j * math.pi * (p * k % q) / q) for k in range(q)])
    table.flags.writeable = False
    return table


class PhaseScalar:
    """Finitely supported Laurent polynomial in the phase t.

    ``terms`` are (t-exponent, coefficient) pairs, summed per reduced
    exponent.  A sum is dropped when it is exactly 0 or below ``PRUNE_TOL``
    times the largest modulus that went into it, which is what cancellation
    leaves, so a small coefficient that no cancellation made is kept.  A
    coefficient that is not finite raises :class:`NonFiniteCoefficient`
    instead, so a NaN is never pruned away as if it were small.
    """

    __slots__ = ("mode", "coeffs")

    def __init__(self, mode: PhaseMode, terms: Iterable[tuple[int, complex]] = ()):
        self.mode = mode
        sums: dict[int, complex] = {}
        scale: dict[int, float] = {}
        for k, c in terms:
            k, c = mode.reduce(int(k)), complex(c)
            sums[k] = sums.get(k, 0.0) + c
            scale[k] = max(scale.get(k, 0.0), abs(c))
        self.coeffs = {k: c for k, c in sums.items()
                       if c != 0 and not abs(c) < PRUNE_TOL * scale[k]}
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in self.coeffs.values()):
            raise NonFiniteCoefficient(f"a coefficient is not finite: {self!r}")

    @classmethod
    def const(cls, mode: PhaseMode, c: complex) -> "PhaseScalar":
        return cls(mode, [(0, c)])

    @classmethod
    def t_power(cls, mode: PhaseMode, k: int, c: complex = 1.0) -> "PhaseScalar":
        return cls(mode, [(k, c)])

    def _check(self, other) -> None:
        if self.mode != other.mode:
            raise ModeMismatch(f"{self.mode} vs {other.mode}")

    def __add__(self, other: "PhaseScalar") -> "PhaseScalar":
        self._check(other)
        return PhaseScalar(self.mode, [*self.coeffs.items(), *other.coeffs.items()])

    def __neg__(self) -> "PhaseScalar":
        return PhaseScalar(self.mode, [(k, -c) for k, c in self.coeffs.items()])

    def __sub__(self, other: "PhaseScalar") -> "PhaseScalar":
        return self + (-other)

    def __mul__(self, other) -> "PhaseScalar":
        if isinstance(other, (int, float, complex)):
            return PhaseScalar(self.mode, [(k, c * other) for k, c in self.coeffs.items()])
        self._check(other)
        return PhaseScalar(self.mode, [(k1 + k2, c1 * c2) for k1, c1 in self.coeffs.items()
                                       for k2, c2 in other.coeffs.items()])

    __rmul__ = __mul__

    def conj(self) -> "PhaseScalar":
        """Conjugation: t -> t^-1, coefficients conjugated."""
        return PhaseScalar(self.mode, [(-k, np.conj(c)) for k, c in self.coeffs.items()])

    def is_zero(self, tol: float = PRUNE_TOL) -> bool:
        return all(abs(c) < tol for c in self.coeffs.values())

    def value(self, theta: float | None = None) -> complex:
        """Numeric value; symbolic modes need theta.

        A rational mode reads each zeta^k from :func:`_zeta_powers`, the
        residue table the clock and the word phases are read from, so no
        power drifts with k.
        """
        if self.mode.is_rational:
            powers = _zeta_powers(self.mode.q, self.mode.p)
        elif theta is not None:
            z = np.exp(2j * np.pi * theta)
            powers = {k: z ** k for k in self.coeffs}
        else:
            raise ModeMismatch("symbolic phase needs an explicit theta to evaluate")
        return complex(sum(c * powers[k] for k, c in self.coeffs.items()))

    def allclose(self, other: "PhaseScalar", tol: float = 1e-12) -> bool:
        self._check(other)
        keys = set(self.coeffs) | set(other.coeffs)
        return all(abs(self.coeffs.get(k, 0.0) - other.coeffs.get(k, 0.0)) <= tol for k in keys)

    def __repr__(self) -> str:
        return " + ".join(f"({c:.6g})" + ("" if k == 0 else "*t" if k == 1 else f"*t^{k}")
                          for k, c in sorted(self.coeffs.items())) or "0"


def _accumulate(out: dict, key, c: PhaseScalar) -> None:
    out[key] = out[key] + c if key in out else c


class PhasePolynomial:
    """Finite sum of normal-ordered monomials over PhaseScalar coefficients.

    Subclasses supply three static methods: ``_key(key)`` normalizes and
    validates a monomial key, ``_product_phase(left, right)`` is the
    t-exponent of reordering a product of two monomials, and ``_star(key)``
    returns the starred monomial's key with its t-exponent; ``_letters``
    names the letter of each key slot, for ``repr``.
    """

    __slots__ = ("mode", "terms")

    def __init__(self, mode: PhaseMode, terms: dict[tuple, PhaseScalar] | None = None):
        self.mode = mode
        self.terms: dict[tuple, PhaseScalar] = {}
        for key, c in (terms or {}).items():
            key = self._key(key)
            if c.mode != mode:
                raise ModeMismatch("coefficient mode differs from element mode")
            if c.coeffs:  # what PhaseScalar's pruning left
                self.terms[key] = c

    @staticmethod
    def _scalar(mode: PhaseMode, c) -> PhaseScalar:
        return c if isinstance(c, PhaseScalar) else PhaseScalar.const(mode, c)

    _check = PhaseScalar._check  # ModeMismatch unless both operands carry one mode

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

    def __repr__(self) -> str:
        """[coefficient]*letter^exponent*... per term, the letters named by ``_letters``."""
        def monomial(key):
            return "*".join(f"{n}^{e}" for n, e in zip(self._letters, key) if e) or "1"
        return " + ".join(f"[{c!r}]*{monomial(k)}" for k, c in sorted(self.terms.items())) or "0"


class TorusElement(PhasePolynomial):
    """Finite sum of normal-ordered monomials c(n1,n2) U1^n1 U2^n2."""

    __slots__ = ()
    _letters = ("U1", "U2")

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


def torus_one(mode: PhaseMode) -> TorusElement:
    return TorusElement.monomial(mode, 0, 0)


def torus_generator(mode: PhaseMode, which: int, power: int = 1) -> TorusElement:
    if which == 1:
        return TorusElement.monomial(mode, power, 0)
    if which == 2:
        return TorusElement.monomial(mode, 0, power)
    raise ValueError("generator index must be 1 or 2")


# -- rational representations ------------------------------------------------

@functools.cache
def clock_shift(q: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The q x q pair (R1, R2) = (shift, clock), with R2 R1 = zeta R1 R2 and R_i^q = 1.

    With S e_j = e_(j+1 mod q), C e_j = zeta^j e_j and zeta = e^(2 pi i p/q):
    C S e_j = zeta^(j+1) e_(j+1) = zeta S C e_j, as zeta^q = 1, so R1 = S and
    R2 = C satisfy the relation for every p.  The clock's diagonal is the
    residue table of :func:`_zeta_powers`, on which the relation (with
    zeta^q = 1 at the wrap j = q - 1) and |zeta^j| = 1 are asserted in O(q);
    the shift is a permutation.  The pair is kept per (q, p).
    """
    roots = _zeta_powers(q, p)  # rejects q < 1 and p, q not coprime
    assert np.abs(np.roll(roots, -1) - roots[1 % q] * roots).max() < 1e-12
    assert np.abs(np.abs(roots) - 1.0).max() < 1e-12
    return np.roll(np.eye(q, dtype=complex), 1, axis=0), np.diag(roots)


@functools.cache
def word_layout(q: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (q, q) tables (phases, cells) that place every word R1^a R2^b, kept per (p, q).

    ``phases[b]`` is the diagonal zeta^(b j) of R2^b, read from
    :func:`_zeta_powers` at the residue (b j) mod q in O(q^2): one rounding
    per entry, whatever b is.  ``cells[a, j]`` is the flat index of entry
    [(j + a) mod q, j] of a q x q matrix: R1^a R2^b = S^a C^b is phases[b]
    on the a-th cyclic off-diagonal, ``cells[a]``.
    """
    j = np.arange(q)
    layout = (_zeta_powers(q, p)[j * j[:, None] % q], (j + j[:, None]) % q * q + j)
    for table in layout:
        table.flags.writeable = False
    return layout


def check_unit(z: complex) -> complex:
    """z as a complex number; :class:`NotOnTorus` unless |z| = 1 within 1e-12."""
    if abs(abs(z) - 1.0) > 1e-12:
        raise NotOnTorus(f"|z| = {abs(z)!r} is not 1")
    return complex(z)


def monomial_sum(terms, q: int, p: int, points: tuple[int, ...] = ()) -> np.ndarray:
    """The one evaluator: sum of scalar * R1^n1 R2^n2 over ``((n1, n2), scalar)`` terms.

    A scalar is one number, or a sequence of one number per point, which
    gives a ``points + (q, q)`` stack; every term scales its matrix the
    same way, so each stack entry is bit for bit a stack of one.  A term
    adds scalar * phases[n2] onto the q cells of its shift power n1
    (:func:`word_layout`), O(q) per point, and leaves every other entry as
    it is; entry [(j + n1) mod q, j] of scalar * R1^n1 R2^n2 is scalar
    times zeta^(n2 j), read at its exact residue (p n2 j) mod q, so it
    carries one rounding of the phase whatever n2 is.
    """
    phases, cells = word_layout(q, p)
    out = np.zeros(points + (q, q), dtype=complex)
    flat = out.reshape(points + (q * q,))
    for (n1, n2), scalar in terms:
        flat[..., cells[n1 % q]] += np.asarray(scalar)[..., None] * phases[n2 % q]
    return out


def torus_rep(a: TorusElement, z1: complex, z2: complex) -> np.ndarray:
    """Evaluate in the clock/shift representation U1 -> z1 R1, U2 -> z2 R2.

    Requires rational mode and |z1| = |z2| = 1.  The assignment respects
    the defining relation, hence extends to a *-homomorphism on
    polynomial elements.
    """
    if not a.mode.is_rational:
        raise ModeMismatch("matrix evaluation needs a rational phase mode")
    z1, z2 = check_unit(z1), check_unit(z2)
    return monomial_sum((((n1, n2), c.value() * z1 ** n1 * z2 ** n2)
                         for (n1, n2), c in a.terms.items()), a.mode.q, a.mode.p)


def trace_state(a: TorusElement) -> PhaseScalar:
    """The canonical trace: the coefficient of the (0, 0) monomial."""
    return a.coefficient(0, 0)


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
