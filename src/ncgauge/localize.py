"""Localization of a triple over the finite base cut out by A_J.

The minimal projections p_x of the commutative algebra A_J are the
points of the base; since A_J sits in the center of A, each p_x is a
central projection and p_x A is a *-algebra with unit p_x.  At a finite
base everything the continuum theory asserts about sections becomes an
exact matrix statement: the section map a -> (p_x a)_x is a bijective
*-homomorphism onto the direct sum of fibers, and the algebra norm is
the max of the fiber norms because a central projection
block-diagonalizes every element.

Centrality is measured once, as kappa_A = max_x of the norm of
a -> [p_x, a] on A, from Frobenius norm to Frobenius norm.  The section
and gauge records that follow from it are reported as bounds derived from
kappa_A (and from kappa_pi, the same measure for pi(p_x) on pi(A)), with
the identity behind each in its statement.  Nothing in a localization is
sampled or drawn: the base comes from spectral refinement, every fiber
dimension is one trace, and the sampled versions of the records are kept
as test oracles.
"""

from __future__ import annotations

import numpy as np

from .linalg import (TOL_DERIVED, TOL_EXACT, Subspace, adjoint, as_cmatrix,
                     commutator_map_norm, frobenius, op_norm)
from .reporting import SCOPE_EXACT, CheckRecord, Report
from .spectral import RealSpectralTriple, c_d_algebra, compute_aj, one_form_space
from .staralg import ProjectionFamily, minimal_projections
from .gauge import gauge_span

__all__ = [
    "FiberDecomposition",
    "localize",
    "norm_is_sup",
    "fiber_gauge_action",
    "conjugation_bound",
    "omega_bundle",
    "group_bundle_dims",
]


class FiberDecomposition:
    """Base projections with the dimensions of the algebra and one-form-side fibers.

    ``fiber_dims`` holds dim p_x A and ``omega_fiber_dims`` dim pi(p_x) C_D,
    one per point; p_x A is a *-algebra with unit p_x because p_x is
    central in A, which ``base-central-in-A`` records.  ``cuts`` holds the
    images pi(p_x), one per point, formed once.  ``kappa_a`` is the
    centrality measure kappa_A of the base in A that the derived records
    are stated with.
    """

    def __init__(self, triple: RealSpectralTriple, base: ProjectionFamily,
                 fiber_dims: list[int], omega_fiber_dims: list[int],
                 report: Report, kappa_a: float, cuts: np.ndarray):
        self.triple = triple
        self.base = base
        self.fiber_dims = fiber_dims
        self.omega_fiber_dims = omega_fiber_dims
        self.report = report
        self.kappa_a = kappa_a
        self.cuts = cuts

    @property
    def points(self) -> list[str]:
        return list(self.base.labels)

    def __len__(self) -> int:
        return len(self.fiber_dims)


def localize(triple: RealSpectralTriple) -> FiberDecomposition:
    """Cut the triple into fibers over the spectrum of A_J.

    The construction itself only needs the p_x to be central projections
    in A; their centrality inside the bigger algebra generated by A and
    [D, A] is a consequence of the order-one condition and is recorded,
    not assumed, so triples with broken axioms still localize and show
    the failure in the report.  The fibers p_x A are not formed, let alone
    re-verified as algebras: each is a *-algebra with unit p_x exactly when
    p_x is central in A, the theorem behind ``base-central-in-A``.  Their
    dimensions are read as traces (:meth:`~ncgauge.linalg.Subspace.cut_dims`):
    dim p_x A = tr(p_x F_A), since p_x lies in A_J ⊆ A, and
    dim pi(p_x) C_D = tr(pi(p_x) F_CD), since pi(p_x) lies in pi(A) ⊆ C_D.

    ``base-central-in-A`` is kappa_A = max_x of the norm of a -> [p_x, a]
    on A, Frobenius to Frobenius, which no choice of orthonormal basis of A
    changes.  It reads 0 or 1: for a projection p in a *-algebra S, the map
    x -> [p, x] = p x - x p is self-adjoint on S in the trace inner product,
    the difference of the commuting projections x -> p x and x -> x p, so
    its spectrum lies in {-1, 0, 1}; its norm is 0 when p is central in S
    and 1 otherwise.  The same holds for ``base-central-in-CD``, with
    pi(p_x) in C_D, when D is self-adjoint: C_D is a *-algebra only then.
    ``section-multiplicative`` is derived from kappa_A:
    p(ab) - (pa)(pb) = [p, a](1 - p)b, and 1 - p is an orthogonal
    projection, so its Frobenius norm is at most kappa_A |a|_F |b|_F, and
    the residual is kappa_A.

    Two more records are read from ``partition-of-unity``, whose residual is
    r = |sum_x p_x - e| for the unit e of A.  ``section-reconstruction``:
    sum_x p_x b - b = (sum_x p_x - e) b because e b = b, and an orthonormal
    basis element has |b| <= |b|_F = 1, so its residual is r.
    ``norm-sup-identity``: sum_x p_x a = sum_x p_x a p_x + sum_x p_x [p_x, a].
    The first sum is block-diagonal, with norm max_x |p_x a p_x| <=
    max_x |p_x a|.  The terms of the second have orthogonal ranges, so its
    norm is at most sqrt(#points) max_x |[p_x, a]|_F <= sqrt(#points)
    kappa_A |a|_F.  With a = sum_x p_x a - (sum_x p_x - e) a and
    |p_x a| <= |a|, 0 <= |a| - max_x |p_x a| <= (sqrt(#points) kappa_A + r)
    |a|_F: the residual, per unit |a|_F.

    ``cross-representation-norm`` is the integer dim A - rank pi.  An
    injective *-homomorphism of finite-dimensional C*-algebras is
    isometric, so |pi(a)| = |a| for every a in A exactly when pi is
    injective.  The premise is that pi is a *-representation, which
    ``check`` records.

    The base is :func:`~ncgauge.staralg.minimal_projections`, found by
    spectral refinement without a draw, so nothing here depends on a seed.
    Exact identities of the projections are checked at ``TOL_EXACT``, the
    rest at ``TOL_DERIVED``.
    """
    alg = triple.algebra
    aj = compute_aj(triple)
    base = minimal_projections(aj)
    rep = Report(f"localize[{triple.label or 'triple'}]",
                 context={"points": list(base.labels), "aj_dim": aj.dim})

    partition = op_norm(sum(base.projections) - alg.unit)
    rep.add(CheckRecord.from_residual(
        "partition-of-unity", "the minimal projections of A_J sum to 1",
        partition, TOL_EXACT, SCOPE_EXACT))

    kappa = float(commutator_map_norm(np.stack(base.projections), alg.basis).max())
    rep.add(CheckRecord.from_residual(
        "base-central-in-A", "each point projection is central in A: kappa_A = max_x "
        "|a -> [p_x, a]| on A, Frobenius to Frobenius",
        kappa, TOL_DERIVED, SCOPE_EXACT))

    fiber_dims = alg.cut_dims(np.stack(base.projections))
    rep.context["fiber_dims"] = fiber_dims
    rep.add(CheckRecord.identity(
        "fiber-dimension-sum", "fiber dimensions add up to dim A", sum(fiber_dims), alg.dim))

    rep.add(CheckRecord.from_residual(
        "section-reconstruction", "summing the fiber components returns the element: "
        "|sum_x p_x b - b| = |(sum_x p_x - e) b| <= |sum_x p_x - e| for |b|_F = 1",
        partition, TOL_EXACT, SCOPE_EXACT))

    rep.add(CheckRecord.from_residual(
        "section-multiplicative", "localization respects products: |p(ab) - (pa)(pb)|_F "
        "= |[p, a](1 - p)b|_F <= kappa_A |a|_F |b|_F",
        kappa, TOL_DERIVED, SCOPE_EXACT))

    cd, _ = c_d_algebra(triple)
    cuts = triple.pi(np.stack(base.projections))  # pi(p_x), formed once per point
    worst = float(commutator_map_norm(cuts, cd.basis).max())
    rep.add(CheckRecord.from_residual(
        "base-central-in-CD", "each point projection is central in the algebra "
        "generated by A and [D, A]",
        worst, TOL_DERIVED, SCOPE_EXACT))

    rep.add(CheckRecord.from_residual(
        "norm-sup-identity", "the element norm is the sup of its fiber norms: "
        "0 <= |a| - max_x |p_x a| <= (sqrt(#points) kappa_A + |sum_x p_x - e|) |a|_F",
        np.sqrt(len(base)) * kappa + partition, TOL_DERIVED, SCOPE_EXACT))
    rep.add(CheckRecord.identity(
        "cross-representation-norm", "the defining and Hilbert-space norms agree: "
        "a *-representation is isometric exactly when injective, dim A - rank pi = 0",
        triple.pi_rank(), alg.dim))

    omega_fiber_dims = cd.cut_dims(cuts)
    rep.context["omega_fiber_dims"] = omega_fiber_dims
    return FiberDecomposition(triple, base, fiber_dims, omega_fiber_dims, rep, kappa, cuts)


def norm_is_sup(dec: FiberDecomposition, a: np.ndarray) -> Report:
    """The algebra norm of a equals the max of its fiber norms, on one sample.

    The sampled oracle of ``norm-sup-identity`` and
    ``cross-representation-norm`` in :func:`localize`: it also compares
    op_norm(a) with op_norm(pi(a)), both the unique C*-norm of the same
    element when pi is a faithful *-representation.
    """
    a = as_cmatrix(a)
    rep = Report("norm_is_sup")
    whole = op_norm(a)
    fiber_norms = [op_norm(p @ a) for _, p in dec.base]
    rep.context["norm"] = whole
    rep.context["fiber_norms"] = fiber_norms
    scale = max(1.0, whole)
    rep.add(CheckRecord.from_residual(
        "norm-sup-identity", "the element norm is the sup of its fiber norms",
        abs(whole - max(fiber_norms)) / scale, TOL_DERIVED, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "cross-representation-norm", "the defining and Hilbert-space norms agree",
        abs(whole - op_norm(dec.triple.pi(a))) / scale, TOL_DERIVED, SCOPE_EXACT))
    return rep


def fiber_gauge_action(dec: FiberDecomposition, u: np.ndarray, a: np.ndarray) -> Report:
    """Conjugation then localization equals fiberwise conjugation, on one sample.

    The sampled oracle of :func:`conjugation_bound`: its residual is at
    most kappa_A (1 + |e|_F) |a|_F for a unitary u of A.
    """
    u = as_cmatrix(u)
    a = as_cmatrix(a)
    conj = u @ a @ adjoint(u)
    worst = max(op_norm(p @ conj - (p @ u) @ (p @ a) @ adjoint(p @ u)) for _, p in dec.base)
    rep = Report("fiber_gauge_action")
    rep.add(CheckRecord.from_residual(
        "fiberwise-conjugation", "localizing u a u* matches u(x) a(x) u(x)*",
        worst, TOL_DERIVED, SCOPE_EXACT))
    return rep


def conjugation_bound(dec: FiberDecomposition) -> CheckRecord:
    """``fiberwise-conjugation``, derived from kappa_A for every unitary u and every a in A.

    p(uau*) - (pu)(pa)(pu)* = p[p, uau*] + p[p, u] a u* p.  The first term
    has Frobenius norm at most kappa_A |uau*|_F = kappa_A |a|_F, and the
    second at most kappa_A |u|_F |a|_F, where |u|_F = |e|_F and |u| <= 1
    because u u* = e, the unit of A, an orthogonal projection.  The
    residual is kappa_A (1 + |e|_F), the bound per unit |a|_F.
    """
    return CheckRecord.from_residual(
        "fiberwise-conjugation", "localizing u a u* matches u(x) a(x) u(x)*: for unitary u "
        "in A, |p(uau*) - (pu)(pa)(pu)*|_F <= kappa_A (1 + |e|_F) |a|_F",
        dec.kappa_a * (1.0 + frobenius(dec.triple.algebra.unit)), TOL_DERIVED, SCOPE_EXACT)


def omega_bundle(dec: FiberDecomposition) -> Report:
    """Fiber bookkeeping on the D-side algebra and its one-form subspace.

    ``gauge-action-localizes`` is derived, not sampled: for a unitary u of A
    and w in B(H), pi(p)(pi(u) w pi(u)*) - pi(u)(pi(p) w)pi(u)* =
    [pi(p), pi(u)] w pi(u)*.  Its Frobenius norm is at most
    kappa_pi |e|_F |w|_F |pi(u)|, where kappa_pi = max_x of the norm of
    a -> [pi(p_x), pi(a)] from A's Frobenius norm to H's, and |u|_F = |e|_F.
    The premise is that pi is a *-representation, as ``check`` records:
    then pi(u) pi(u)* = pi(e) is a projection, so |pi(u)| <= 1, and the
    residual is kappa_pi |e|_F.  kappa_pi is one SVD per point, and not
    the centrality in C_D(A) (``base-central-in-CD``), which transporters
    between points break while pi(A) still localizes.

    ``one-forms-localize`` is derived too.  pi(p) lies in C_D and is a
    projection, so a contraction: with c the nearest point of C_D to w,
    pi(p) c lies in pi(p) C_D, and dist(pi(p) w, pi(p) C_D) <=
    |pi(p)(w - c)|_F <= dist(w, C_D).  The residual is max_j dist(w_j, C_D)
    over the orthonormal basis w_j of the one-forms: one projection for
    every point.  The even dimensions are traces over pi(A) + C1, which
    holds pi(p_x) and is an algebra because pi is multiplicative.
    """
    triple = dec.triple
    cd, grading = c_d_algebra(triple)
    rep = Report(f"omega_bundle[{triple.label or 'triple'}]",
                 context={"cd_dim": cd.dim,
                          "omega_fiber_dims": dec.omega_fiber_dims,
                          "grading": grading})
    rep.add(CheckRecord.identity(
        "omega-dimension-sum", "one-form-side fiber dimensions add up to dim C_D(A)",
        sum(dec.omega_fiber_dims), cd.dim))

    rep.add(CheckRecord.from_residual(
        "one-forms-localize", "cutting a one-form by a point projection lands in "
        "that point's fiber: dist(pi(p_x) w, pi(p_x) C_D) <= dist(w, C_D), as pi(p_x) in C_D "
        "is a contraction; the residual is max_j dist(w_j, C_D) over a basis of the one-forms",
        cd.residual(one_form_space(triple).basis).max(initial=0.0), TOL_DERIVED, SCOPE_EXACT))

    # degree-0 part cut to each fiber, for the per-point parity table
    eye = np.eye(triple.hilbert_dim, dtype=complex)
    even = Subspace.from_spanning(np.concatenate([triple.pi_images, eye[None]]))
    rep.context["fiber_even_dims"] = even.cut_dims(dec.cuts)

    kappa_pi = float(commutator_map_norm(dec.cuts, triple.pi_images).max())
    rep.add(CheckRecord.from_residual(
        "gauge-action-localizes", "conjugating a one-form then cutting equals cutting then "
        "conjugating: for unitary u in A, |[pi(p), pi(u)] w pi(u)*|_F <= kappa_pi |e|_F |w|_F, "
        "kappa_pi = max_x |a -> [pi(p_x), pi(a)]|, Frobenius to Frobenius",
        kappa_pi * frobenius(triple.algebra.unit), TOL_DERIVED, SCOPE_EXACT))
    return rep


def group_bundle_dims(dec: FiberDecomposition) -> tuple[list[dict], Report]:
    """Per-point unitary and gauge dimensions with the two sum identities.

    dim_R u(B) = dim_C B for every *-algebra B (asserted by
    :func:`~ncgauge.staralg.skew_hermitian_basis`), so the unitary
    dimensions are the fiber dimensions and dim A; the gauge fiber removes
    the one circle that acts trivially.  Summing over points recovers
    dim u(A) and, after the -1 per point, the gauge Lie algebra dimension.
    """
    triple = dec.triple
    rows = [{"point": label, "fiber_dim": dim, "unitary_dim": dim, "gauge_fiber_dim": dim - 1}
            for label, dim in zip(dec.base.labels, dec.fiber_dims)]
    u_total = triple.algebra.dim
    g = gauge_span(triple)[0]
    rep = Report(f"group_bundle[{triple.label or 'triple'}]",
                 context={"rows": rows, "u_A_dim": u_total, "gauge_dim": g.dim})
    rep.add(CheckRecord.identity(
        "unitary-dimension-sum", "fiber unitary dimensions add up to dim u(A)",
        sum(r["unitary_dim"] for r in rows), u_total))
    rep.add(CheckRecord.identity(
        "gauge-dimension-sum", "gauge fiber dimensions add up to the gauge Lie "
        "algebra dimension", sum(r["gauge_fiber_dim"] for r in rows), g.dim))
    return rows, rep
