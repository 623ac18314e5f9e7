"""Gauge group, perturbation semigroup, and inner fluctuations.

The gauge group element attached to a unitary u of A is the Hilbert
space unitary U = pi(u) J pi(u) J^-1; its Lie algebra consists of
T = pi(X) + J X J^-1 for skew-hermitian X.  A perturbation is a list of
pairs (a_j, b_j) normalized by sum a_j b_j = 1 whose associated operator
in A tensor A-op is self-adjoint under the flip (b*, a*); it acts on D
as sum pi(a_j) D pi(b_j) once the right copy is brought in through J.
The inner fluctuation of a self-adjoint one-form omega is

    D_omega = D + omega + eps' J omega J^-1.

The flip certificate is the norm of sum_j a_j (x) b_j - b_j^* (x) a_j^*
in A tensor A-op, computed in A's defining representation on d x d
matrices: x -> a x b has matrix kron(a, transpose(b)), and the
left-right representation of M_d tensor M_d-op on M_d is an isomorphism
onto all linear maps of M_d, so it stays injective on the subalgebra
A tensor A-op.  That is one SVD of a d^2 x d^2 matrix.  For a faithful
*-representation pi, the left-right operator on H built from pi (an
n^2 x n^2 matrix) has the same norm: pi (x) transpose(pi) is an
injective *-homomorphism of A tensor A-op, and an injective
*-homomorphism between finite-dimensional C*-algebras is isometric.
When pi is not faithful, the number on H could only be smaller; the
norm in A tensor A-op is the certificate the semigroup asks for.
"""

from __future__ import annotations

import numpy as np

from .linalg import (TOL_DERIVED, TOL_EXACT, RealSpan, adjoint, as_cmatrix, commutator,
                     max_op_norm, op_norm)
from .reporting import SCOPE_EXACT, CheckRecord, Report
from .spectral import OneForm, RealSpectralTriple, compute_aj
from .staralg import lie_generating_set, skew_hermitian_basis
from .staralg import random_unitary as algebra_random_unitary

__all__ = [
    "NotUnitary",
    "MembershipViolated",
    "GaugeElement",
    "gauge_matrix",
    "GaugeLieAlgebra",
    "gauge_span",
    "gauge_lie_algebra",
    "Perturbation",
    "from_unitary",
    "random_perturbation",
    "pert_product",
    "gauge_field",
    "fluctuate",
    "doubled_fluctuation",
    "gauge_transform_field",
    "covariance_residual",
]


class NotUnitary(ValueError):
    """The supplied element is not unitary in its algebra."""


class MembershipViolated(ArithmeticError):
    """A perturbation lost one of its two membership certificates."""


def _require_unitary(triple: RealSpectralTriple, u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    u = as_cmatrix(u)
    res = op_norm(u @ adjoint(u) - triple.algebra.unit)
    if res > tol or not triple.algebra.contains(u):
        raise NotUnitary(f"element is not a unitary of the algebra (residual {res:.2e})")
    return u


def gauge_matrix(triple: RealSpectralTriple, u: np.ndarray) -> np.ndarray:
    """U = pi(u) J pi(u) J^-1 on H."""
    pu = triple.pi(u)
    return pu @ triple.j_conjugate(pu)


class GaugeElement:
    """A gauge unitary with its source u; construction checks unitarity."""

    def __init__(self, triple: RealSpectralTriple, u: np.ndarray):
        self.triple = triple
        self.u = _require_unitary(triple, u)
        self.matrix = gauge_matrix(triple, self.u)

    def unitarity_residual(self) -> float:
        n = self.triple.hilbert_dim
        return op_norm(self.matrix @ adjoint(self.matrix) - np.eye(n))

    def fixes_real_structure_residual(self) -> float:
        """Residual of U J U* = J in kernel form, U K transpose(U) = K."""
        k = self.triple.real_structure.kernel
        return op_norm(self.matrix @ k @ self.matrix.T - k)


class GaugeLieAlgebra:
    """Real span of pi(X) + J X J^-1 over skew-hermitian X, plus its report."""

    def __init__(self, span: RealSpan, generators: list[tuple[np.ndarray, np.ndarray]],
                 report: Report):
        self.span = span
        self.generators = generators
        self.report = report

    @property
    def dim(self) -> int:
        return self.span.dim


def _lie_image(triple: RealSpectralTriple, x: np.ndarray) -> np.ndarray:
    """X -> pi(X) + J X J^-1, on one matrix or a stack."""
    px = triple.pi(x)
    return px + triple.j_conjugate(px)


def gauge_span(triple: RealSpectralTriple) -> tuple[RealSpan, np.ndarray, np.ndarray]:
    """The real span of T = pi(X) + J X J^-1, with the stacks of X over u(A) and of T."""
    xs = skew_hermitian_basis(triple.algebra)
    ts = _lie_image(triple, xs)
    return RealSpan.from_spanning(ts, shape=(triple.hilbert_dim,) * 2), xs, ts


def gauge_lie_algebra(triple: RealSpectralTriple, tol: float | None = None) -> GaugeLieAlgebra:
    """The gauge Lie algebra with the dimension identity and bracket checks.

    dim g = dim u(A) - dim u(A_J): the kernel of X -> pi(X) + JXJ^-1 on
    skew elements is exactly u(A_J).  Skewness is checked at ``TOL_EXACT``,
    the rest at ``TOL_DERIVED``; passing ``tol`` overrides both.

    The bracket records pair the basis X of u(A) with a set S certified to
    generate u(A) as a Lie algebra (:func:`~ncgauge.staralg.lie_generating_set`),
    d |S| brackets instead of the d^2 / 2 pairs of the basis (d = dim A):

    * ``bracket-form``: B(X, Y) = [T(X), T(Y)] - T([X, Y]) vanishes.  For
      Y, Z with B(., Y) = B(., Z) = 0, the Jacobi identity in u(A) and in
      the matrices gives T[X, [Y, Z]] = [[T X, T Y], T Z] + [T Y, [T X, T Z]]
      = [T X, [T Y, T Z]] = [T X, T [Y, Z]], so these Y form a Lie
      subalgebra; it holds S, so it is all of u(A).
    * ``bracket-closure``: [T(X), T(Y)] lies in the span L of the T(X).
      The matrices M with [L, M] inside L form a Lie algebra (Jacobi again);
      it holds T(S) and, by ``bracket-form``, T of every nested bracket of
      S, so T(u(A)) = L.

    S is real-orthonormal like the basis, so no residual is rescaled, and the
    witnesses are the pair (index of X in the basis of u(A), index of Y in S).
    """
    t_skew = tol if tol is not None else TOL_EXACT
    tol = tol if tol is not None else TOL_DERIVED

    span, xs, ts = gauge_span(triple)
    aj = compute_aj(triple)
    expected = triple.algebra.dim - aj.dim

    rep = Report(f"gauge_lie_algebra[{triple.label or 'triple'}]",
                 context={"dim": span.dim, "u_A_dim": len(xs), "u_AJ_dim": aj.dim})
    rep.add(CheckRecord.from_residual(
        "skew-images", "every generator is skew-hermitian on H",
        max_op_norm([ts + adjoint(ts)])[0], t_skew, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "dimension-identity", "dim g equals dim u(A) - dim u(A_J)",
        float(abs(span.dim - expected)), 0.5, SCOPE_EXACT))

    on_s = " for X in a basis of u(A) and X' in a set certified to Lie-generate u(A)"
    ys = lie_generating_set(triple.algebra)
    t_ys = _lie_image(triple, ys)
    closure = np.zeros((len(xs), len(ys)))

    def residuals(j):  # block j: the pairs (X_i, Y_j) over the basis X_i of u(A)
        br = commutator(ts, t_ys[j])
        closure[:, j] = span.residual(br)
        return br - _lie_image(triple, commutator(xs, ys[j]))

    form, at = max_op_norm(residuals(j) for j in range(len(ys)))
    for name, worst, where, statement in (
            ("bracket-form", form, at[::-1], "[T, T'] is the generator attached to [X, X']"),
            ("bracket-closure", closure.max(), np.unravel_index(closure.argmax(), closure.shape),
             "[T, T'] stays inside the span")):
        rep.add(CheckRecord.from_residual(name, statement + on_s, worst, tol, SCOPE_EXACT),
                witness=where)
    return GaugeLieAlgebra(span, list(zip(xs, ts)), rep)


# -- perturbation semigroup --------------------------------------------------


class Perturbation:
    """Term list (a_j, b_j) of elements of A with the two membership certificates.

    Certificates: sum a_j b_j equals the algebra unit, and the tensor
    sum a_j (x) b_j in A tensor A-op is invariant under the flip
    (a, b) -> (b*, a*).  The flip residual is the norm in A tensor A-op,
    the largest singular value of sum kron(a_j, b_j^T) - kron(b_j^*, conj(a_j))
    on A's own d x d matrices (a d^2 x d^2 SVD).  For a faithful pi it
    equals the left-right operator norm on H, since an injective
    *-homomorphism of finite-dimensional C*-algebras is isometric.  A
    term outside A raises ``AlgebraError`` at construction.  The terms
    never change afterwards, so the flip residual is computed once.
    """

    def __init__(self, triple: RealSpectralTriple, terms, validate: bool = True,
                 tol: float = TOL_DERIVED):
        self.triple = triple
        self.terms = tuple((as_cmatrix(a), as_cmatrix(b)) for a, b in terms)
        if not self.terms:
            raise ValueError("a perturbation needs at least one term")
        triple.algebra.member_coordinates(np.stack([m for term in self.terms for m in term]))
        self._flip: float | None = None
        if validate:
            self.verify(tol)

    def normalization_residual(self) -> float:
        total = sum(a @ b for a, b in self.terms)
        return op_norm(total - self.triple.algebra.unit)

    def flip_residual(self) -> float:
        if self._flip is None:
            self._flip = op_norm(sum(np.kron(a, b.T) - np.kron(adjoint(b), np.conj(a))
                                     for a, b in self.terms))
        return self._flip

    def verify(self, tol: float = TOL_DERIVED) -> None:
        res = self.normalization_residual()
        if res > tol:
            raise MembershipViolated(f"normalization sum a_j b_j = 1 fails by {res:.2e}")
        res = self.flip_residual()
        if res > tol:
            raise MembershipViolated(f"flip self-adjointness fails by {res:.2e}")

    def act_on(self, d: np.ndarray) -> np.ndarray:
        """The semigroup action sum pi(a_j) d pi(b_j) on an operator of H."""
        return sum(self.triple.pi(a) @ d @ self.triple.pi(b) for a, b in self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def from_unitary(triple: RealSpectralTriple, u: np.ndarray) -> Perturbation:
    u = _require_unitary(triple, u)
    return Perturbation(triple, [(u, adjoint(u))])


def random_perturbation(triple: RealSpectralTriple, n_terms: int = 2,
                        seed: int = 0) -> Perturbation:
    """Real affine combination of unitary perturbations: sum t_i (u_i, u_i*).

    Real t_i with sum 1 keep both certificates exactly; the draw rejects
    coefficient vectors with tiny sums before normalizing.
    """
    rng = np.random.default_rng(seed)
    for _ in range(64):
        t = rng.standard_normal(n_terms)
        if abs(t.sum()) > 0.3:
            break
    t = t / t.sum()
    us = [algebra_random_unitary(triple.algebra, seed=int(rng.integers(2 ** 31))) for _ in t]
    return Perturbation(triple, [(ti * u, adjoint(u)) for ti, u in zip(t, us)])


def pert_product(p: Perturbation, r: Perturbation, tol: float = TOL_DERIVED) -> Perturbation:
    """Semigroup product: {(a_i, b_i)} * {(c_j, d_j)} = {(a_i c_j, d_j b_i)}.

    Matches the product in A tensor A-op, where the op-side multiplies in
    reverse.  Both certificates are re-verified on the result.
    """
    if p.triple is not r.triple:
        raise ValueError("perturbations live on different triples")
    terms = [(a @ c, d @ b) for a, b in p.terms for c, d in r.terms]
    return Perturbation(p.triple, terms, validate=True, tol=tol)


# -- fluctuations ------------------------------------------------------------


def gauge_field(p: Perturbation, tol: float = TOL_DERIVED) -> OneForm:
    """The one-form sum a_j [D, b_j] of a perturbation; always self-adjoint."""
    omega = OneForm(p.triple, list(p.terms))
    res = omega.self_adjoint_residual()
    if res > tol:
        raise MembershipViolated(f"gauge field is not self-adjoint (residual {res:.2e})")
    return omega


def fluctuate(triple: RealSpectralTriple, omega) -> np.ndarray:
    """D_omega = D + omega + eps' J omega J^-1 for a self-adjoint one-form."""
    w = omega.matrix if isinstance(omega, OneForm) else as_cmatrix(omega)
    scale = max(1.0, op_norm(w))
    if op_norm(w - adjoint(w)) > TOL_DERIVED * scale:
        raise ValueError("fluctuation input must be self-adjoint")
    return _fluctuation(triple, w)


def _fluctuation(triple: RealSpectralTriple, w: np.ndarray) -> np.ndarray:
    """D + w + eps' J w J^-1 for any matrix w on H: the formula of :func:`fluctuate`, unchecked.

    The commands record whether the gauge field is self-adjoint, at their
    own tolerance, and evaluate the fluctuation through this formula, so a
    field that fails that record still reaches the records after it.
    """
    return triple.dirac + w + triple.eps_prime * triple.j_conjugate(w)


def doubled_fluctuation(triple: RealSpectralTriple, p: Perturbation) -> np.ndarray:
    """sum_ij pi(a_i) (J a_j J^-1) D pi(b_i) (J b_j J^-1).

    The action of the doubled perturbation (both tensor legs through J);
    for valid perturbations on an axiom-passing triple this equals
    fluctuate(gauge_field(p)) once the order-one condition collapses the
    cross terms.
    """
    pis = [(triple.pi(a), triple.pi(b)) for a, b in p.terms]
    hats = [(triple.j_conjugate(pa), triple.j_conjugate(pb)) for pa, pb in pis]
    return sum(pa @ ahat @ triple.dirac @ pb @ bhat for pa, pb in pis for ahat, bhat in hats)


def gauge_transform_field(triple: RealSpectralTriple, omega0: OneForm, omega: OneForm,
                          u: np.ndarray) -> tuple[OneForm, OneForm]:
    """Background and relative fields under u: (u w0 u* + u[D,u*], u w u*).

    Conjugating a term a[D,b] re-expands as (ua)[D, bu*] - (uab)[D, u*],
    so the term lists stay term lists.  Covariance of the total
    fluctuation D -> U D U* is measured by :func:`covariance_residual`,
    which ``fluctuate`` records as ``gauge-covariance``.
    """
    u = _require_unitary(triple, u)
    ustar = adjoint(u)

    def conjugated_terms(w: OneForm) -> list[tuple[np.ndarray, np.ndarray]]:
        new = [(u @ a, b @ ustar) for a, b in w.terms]
        if w.terms:
            s = sum(a @ b for a, b in w.terms)
            new.append((-u @ s, ustar))
        return new

    bg_terms = conjugated_terms(omega0) + [(u, ustar)]
    new_bg = OneForm(triple, bg_terms)
    new_rel = OneForm(triple, conjugated_terms(omega))
    return new_bg, new_rel


def covariance_residual(triple: RealSpectralTriple, u: np.ndarray, before: OneForm,
                        after: OneForm) -> float:
    """||D_after - U D_before U*|| / max(1, ||U D_before U*||), U the gauge unitary of u.

    The fluctuations are evaluated unchecked (:func:`_fluctuation`): a field
    that is not self-adjoint gives a residual, not an exception.
    """
    big_u = gauge_matrix(triple, u)
    rhs = big_u @ _fluctuation(triple, before.matrix) @ adjoint(big_u)
    return op_norm(_fluctuation(triple, after.matrix) - rhs) / max(1.0, op_norm(rhs))
