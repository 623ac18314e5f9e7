"""Polynomial algebras of the toric 3- and 4-spheres.

Generators: alpha, beta (and their stars) plus, for the 4-sphere, a
central self-adjoint x.  The two pairs each commute internally
(alpha alpha* = alpha* alpha, same for beta); the cross relations twist
by the torus phase t:

    beta  alpha  = t   alpha  beta       beta  alpha* = t^-1 alpha* beta
    beta* alpha  = t^-1 alpha  beta*     beta* alpha* = t    alpha* beta*

Monomials are kept in the normal order alpha^a alpha*^a' beta^b beta*^b'
x^c with exponents in N, so an element is a dict mapping the 5-tuple
(a, a', b, b', c) to a :class:`~ncgauge.torus.PhaseScalar` coefficient.
Reordering a product only needs the net alpha-degree of the right factor
to cross the net beta-degree of the left factor:

    phase exponent = (b1 - b1') * (a2 - a2')

The sphere relation alpha alpha* + beta beta* (+ x^2) = 1 is never used
to rewrite monomials; it is only checked under the matrix evaluation
maps, which satisfy it identically.  3-sphere elements are the ones with
no x letter (c = 0 throughout).
"""

from __future__ import annotations

from .torus import PhaseMode, PhasePolynomial, PhaseScalar

__all__ = [
    "SphereElement",
    "sphere_one",
    "sphere_alpha",
    "sphere_beta",
    "sphere_x",
    "invariant_monomial",
]

MonKey = tuple[int, int, int, int, int]


class SphereElement(PhasePolynomial):
    """Finite sum of normal-ordered monomials over PhaseScalar coefficients."""

    __slots__ = ()
    _letters = ("a", "ad", "b", "bd", "x")

    @classmethod
    def monomial(cls, mode: PhaseMode, key: MonKey, coeff=1.0) -> "SphereElement":
        return cls(mode, {tuple(key): cls._scalar(mode, coeff)})

    @staticmethod
    def _key(key) -> MonKey:
        key = tuple(int(e) for e in key)
        if len(key) != 5 or any(e < 0 for e in key):
            raise ValueError(f"monomial exponents must be 5 nonnegative integers, got {key}")
        return key

    @staticmethod
    def _product_phase(left: MonKey, right: MonKey) -> int:
        """Net beta-degree of the left factor times net alpha-degree of the right."""
        return (left[2] - left[3]) * (right[0] - right[1])

    @staticmethod
    def _star(key: MonKey) -> tuple[MonKey, int]:
        """Flip each exponent pair, then re-normal-order the alpha block.

        (alpha^a alpha*^a' beta^b beta*^b' x^c)* reverses to the beta block
        first; pushing alpha*^a alpha^a' back to the left crosses net
        beta-degree (b' - b), giving phase t^((b'-b)(a'-a)).
        """
        a, ap, b, bp, c = key
        return (ap, a, bp, b, c), (bp - b) * (ap - a)

    def coefficient(self, key: MonKey) -> PhaseScalar:
        return self.terms.get(tuple(key), PhaseScalar(self.mode))

    @property
    def uses_x(self) -> bool:
        return any(k[4] > 0 for k in self.terms)

    @property
    def is_torus_invariant(self) -> bool:
        """True when every monomial balances alpha against alpha*, beta against beta*."""
        return all(a == ap and b == bp for (a, ap, b, bp, _) in self.terms)


def sphere_one(mode: PhaseMode) -> SphereElement:
    return SphereElement.monomial(mode, (0, 0, 0, 0, 0))


def sphere_alpha(mode: PhaseMode) -> SphereElement:
    return SphereElement.monomial(mode, (1, 0, 0, 0, 0))


def sphere_beta(mode: PhaseMode) -> SphereElement:
    return SphereElement.monomial(mode, (0, 0, 1, 0, 0))


def sphere_x(mode: PhaseMode) -> SphereElement:
    return SphereElement.monomial(mode, (0, 0, 0, 0, 1))


def invariant_monomial(mode: PhaseMode, a: int, b: int, c: int = 0) -> SphereElement:
    """The torus-invariant monomial (alpha alpha*)^a (beta beta*)^b x^c."""
    return SphereElement.monomial(mode, (a, a, b, b, c))
