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

from .linalg import (TOL_DERIVED, RealSpan, adjoint, as_cmatrix, commutator, frobenius,
                     max_op_norm, op_norm)
from .reporting import SCOPE_EXACT, CheckRecord, Report
from .spectral import OneForm, RealSpectralTriple, compute_aj
from .staralg import skew_hermitian_basis
from .staralg import random_unitary as algebra_random_unitary

__all__ = [
    "NotUnitary",
    "MembershipViolated",
    "GaugeElement",
    "gauge_matrix",
    "GaugeLieAlgebra",
    "gauge_span",
    "gauge_lie_algebra",
    "ad_kernel_check",
    "Perturbation",
    "from_unitary",
    "identity_perturbation",
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
    skew elements is exactly u(A_J).  Brackets of generators match the
    image of [X, X'] and stay inside the span.  Skewness is checked at
    1e-9, the rest at ``TOL_DERIVED``; passing ``tol`` overrides both.
    """
    t_skew = tol if tol is not None else 1e-9
    tol = tol if tol is not None else TOL_DERIVED

    span, xs, ts = gauge_span(triple)
    n = triple.hilbert_dim
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

    # row block i holds the pairs (i, j) with j > i; each block of brackets is
    # formed once and feeds both maxima, and only one block is held at a time
    def residuals(i):
        br = commutator(ts[i], ts[i + 1:])
        # a 1 x n^2 row's spectral norm is its length: the Frobenius distance from the span
        return (br - _lie_image(triple, commutator(xs[i], xs[i + 1:])),
                (br - span.project(br)).reshape(-1, 1, n * n))

    for (worst, at), name, statement in zip(
            max_op_norm((residuals(i) for i in range(len(ts) - 1)), tracks=2),
            ("bracket-form", "bracket-closure"),
            ("[T, T'] is the generator attached to [X, X']", "brackets stay inside the span")):
        rep.add(CheckRecord.from_residual(name, statement, worst, tol, SCOPE_EXACT),
                witness=None if at is None else (at[0], at[0] + 1 + at[1]))
    return GaugeLieAlgebra(span, list(zip(xs, ts)), rep)


def ad_kernel_check(triple: RealSpectralTriple, u: np.ndarray,
                    tol: float = TOL_DERIVED) -> tuple[bool, Report]:
    """Whether u maps to the trivial gauge element, and the A_J equivalence.

    Both directions are checked: U = 1 iff u lies in the span of A_J.
    """
    u = _require_unitary(triple, u)
    n = triple.hilbert_dim
    umat = gauge_matrix(triple, u)
    kernel_res = op_norm(umat - np.eye(n))
    is_kernel = kernel_res <= tol
    aj = compute_aj(triple)
    span_res = aj.residual(u)
    in_aj = span_res <= tol * max(1.0, frobenius(u))
    rep = Report("ad_kernel", context={"kernel_residual": kernel_res,
                                       "aj_span_residual": span_res,
                                       "is_kernel": is_kernel, "in_aj": in_aj})
    rep.add(CheckRecord(
        "kernel-characterization", "u J u J^-1 = 1 exactly when u lies in A_J",
        float(min(kernel_res, span_res)), tol, is_kernel == in_aj, SCOPE_EXACT))
    return is_kernel, rep


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


def identity_perturbation(triple: RealSpectralTriple) -> Perturbation:
    e = triple.algebra.unit
    return Perturbation(triple, [(e, e)])


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
    terms = []
    for i in range(n_terms):
        u = algebra_random_unitary(triple.algebra, seed=int(rng.integers(2 ** 31)))
        terms.append((t[i] * u, adjoint(u)))
    return Perturbation(triple, terms)


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
                          u: np.ndarray, tol: float = TOL_DERIVED,
                          check: bool = True) -> tuple[OneForm, OneForm]:
    """Background and relative fields under u: (u w0 u* + u[D,u*], u w u*).

    Conjugating a term a[D,b] re-expands as (ua)[D, bu*] - (uab)[D, u*],
    so the term lists stay term lists.  When ``check`` is on, covariance
    of the total fluctuation D -> U D U* is asserted: its
    :func:`covariance_residual` must be at most ``tol``.
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

    if check:
        res = covariance_residual(triple, u, omega0 + omega, new_bg + new_rel)
        if res > tol:
            raise MembershipViolated(
                f"gauge covariance of the fluctuation fails by {res:.2e} (relative)")
    return new_bg, new_rel


def covariance_residual(triple: RealSpectralTriple, u: np.ndarray, before: OneForm,
                        after: OneForm) -> float:
    """||D_after - U D_before U*|| / max(1, ||U D_before U*||), U the gauge unitary of u."""
    big_u = gauge_matrix(triple, u)
    rhs = big_u @ fluctuate(triple, before) @ adjoint(big_u)
    return op_norm(fluctuate(triple, after) - rhs) / max(1.0, op_norm(rhs))
