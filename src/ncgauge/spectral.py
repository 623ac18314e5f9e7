"""Real spectral triples at finite dimension.

A triple bundles a finite *-algebra A (in its defining matrix ambient),
a faithful unital *-representation pi into B(H) for a finite H, a
self-adjoint operator D, an anti-linear real structure J given through
its unitary kernel K (J v = K conj(v)), and the two signs eps = J^2,
eps' relating JD and DJ.

Everything anti-linear is rewritten in terms of K before evaluation:

    J D = eps' D J           <=>  K conj(D) = eps' D K
    b_opp = J b* J^-1             has matrix  eps K transpose(pi(b)) conj(K)
    a J = J a*               <=>  pi(a) K = K transpose(pi(a))
    U J U* (U linear unitary)     has kernel U K transpose(U)

The last line is where anti-linearity bites: conj(U* v) inserts a
transpose, not an adjoint.  Each rewrite is tested against a direct
anti-linear action oracle on random vectors in the test suite.

Axiom failures surface as report records, never exceptions, so candidate
triples can be fuzzed; constructors only reject structural nonsense
(shape mismatches, sign values outside {-1, +1}).
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    TOL_CONSTRUCT,
    TOL_DERIVED,
    AntiLinearOp,
    Subspace,
    _graded_closure,
    adjoint,
    as_cmatrix,
    commutator,
    commutator_map_norm,
    max_op_norm,
    nullspace,
    op_norm,
)
from .reporting import SCOPE_EXACT, CheckRecord, Report
from .staralg import FiniteStarAlgebra, NotClosed, center, generating_set

__all__ = [
    "SpectralInputError",
    "DimensionMismatch",
    "RealSpectralTriple",
    "OneForm",
    "check_axioms",
    "one_form_space",
    "c_d_algebra",
    "compute_aj",
    "aj_or_closure_failure",
    "real_structure_residuals",
    "verify_aj_properties",
    "unitary_equivalent",
    "conjugate_triple",
    "transpose_permutation",
]

_J_AXIOM_TOL = 1e-9


class SpectralInputError(ValueError):
    """Structurally malformed triple data (shapes, counts, signs)."""


class DimensionMismatch(SpectralInputError):
    """Two triples live on Hilbert spaces of different dimension."""


def transpose_permutation(n: int) -> np.ndarray:
    """Permutation P with P vec(x) = vec(transpose(x)), row-major vec."""
    p = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            p[i * n + j, j * n + i] = 1.0
    return p


class RealSpectralTriple:
    """Validated container; all verification lives in module functions."""

    def __init__(self, algebra: FiniteStarAlgebra, pi_images: np.ndarray,
                 dirac: np.ndarray, real_structure, eps: int = 1, eps_prime: int = 1,
                 label: str = ""):
        self.algebra = algebra
        try:
            self.pi_images = np.asarray(pi_images, dtype=complex)  # (dim A, n, n)
        except ValueError:
            raise SpectralInputError(
                "representation images must be square and equal-sized") from None
        if len(self.pi_images) != algebra.dim:
            raise SpectralInputError(
                f"{len(self.pi_images)} representation images for {algebra.dim} basis elements")
        n = self.pi_images.shape[-1]
        if self.pi_images.shape[1:] != (n, n):
            raise SpectralInputError("representation images must be square and equal-sized")
        self.dirac = as_cmatrix(dirac)
        if self.dirac.shape != (n, n):
            raise SpectralInputError(f"dirac shape {self.dirac.shape} does not match H dim {n}")
        self.real_structure = (real_structure if isinstance(real_structure, AntiLinearOp)
                               else AntiLinearOp(real_structure))
        if self.real_structure.dim != n:
            raise SpectralInputError("real structure kernel does not match H dim")
        if eps not in (-1, 1) or eps_prime not in (-1, 1):
            raise SpectralInputError("signs must be -1 or +1")
        self.eps = int(eps)
        self.eps_prime = int(eps_prime)
        self.label = label
        self.hilbert_dim = n
        self._pi_stack = self.pi_images.reshape(algebra.dim, n * n)
        self._omega1: Subspace | None = None
        self._cd: tuple[FiniteStarAlgebra, Report] | None = None
        self._aj: FiniteStarAlgebra | None = None

    # -- representation ------------------------------------------------

    def pi(self, a: np.ndarray) -> np.ndarray:
        """Image of an algebra element, or of each matrix of a stack.

        Rejects input outside the span (``FiniteStarAlgebra.member_coordinates``).
        """
        coords = self.algebra.member_coordinates(a)
        n = self.hilbert_dim
        return (coords @ self._pi_stack).reshape(coords.shape[:-1] + (n, n))

    def b_opposite(self, b: np.ndarray) -> np.ndarray:
        """Matrix of J b* J^-1, the right-action copy of b (or of each b of a stack)."""
        k = self.real_structure.kernel
        return self.eps * k @ np.swapaxes(self.pi(b), -2, -1) @ np.conj(k)

    def dirac_commutator(self, a: np.ndarray) -> np.ndarray:
        return commutator(self.dirac, self.pi(a))

    def j_conjugate(self, m: np.ndarray) -> np.ndarray:
        """Matrix of J m J^-1 for a linear operator m on H."""
        return self.real_structure.conjugate(m)

    def __repr__(self) -> str:  # pragma: no cover
        tag = f" {self.label!r}" if self.label else ""
        return (f"RealSpectralTriple(dim A={self.algebra.dim}, dim H={self.hilbert_dim}, "
                f"eps={self.eps:+d}, eps'={self.eps_prime:+d}{tag})")


class OneForm:
    """Sum of terms a [D, b] with a, b in the algebra.

    Terms are kept symbolically (pairs of algebra elements) so gauge
    transformations can act on them; ``matrix`` is the evaluated operator
    on H.
    """

    def __init__(self, triple: RealSpectralTriple, terms: list[tuple[np.ndarray, np.ndarray]]):
        self.triple = triple
        self.terms = [(as_cmatrix(a), as_cmatrix(b)) for a, b in terms]
        self._matrix: np.ndarray | None = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            n = self.triple.hilbert_dim
            out = np.zeros((n, n), dtype=complex)
            for a, b in self.terms:
                out += self.triple.pi(a) @ self.triple.dirac_commutator(b)
            self._matrix = out
        return self._matrix

    def self_adjoint_residual(self) -> float:
        m = self.matrix
        return op_norm(m - adjoint(m))

    def span_residual(self) -> float:
        return one_form_space(self.triple).residual(self.matrix)

    def __add__(self, other: "OneForm") -> "OneForm":
        if other.triple is not self.triple:
            raise ValueError("one-forms belong to different triples")
        return OneForm(self.triple, self.terms + other.terms)

    def __neg__(self) -> "OneForm":
        return OneForm(self.triple, [(-a, b) for a, b in self.terms])

    @classmethod
    def zero(cls, triple: RealSpectralTriple) -> "OneForm":
        return cls(triple, [])


# -- axiom verification ------------------------------------------------------


def check_axioms(triple: RealSpectralTriple, tol: float | None = None) -> Report:
    """Full axiom suite as a report; never raises on mathematical failure.

    The ladder: construction-level identities at 1e-10/1e-9, the
    commutant and order-one conditions (which chain several products) at
    1e-8.  Passing ``tol`` overrides every rung uniformly.
    """
    t_con = tol if tol is not None else TOL_CONSTRUCT
    t_j = tol if tol is not None else _J_AXIOM_TOL
    t_der = tol if tol is not None else TOL_DERIVED

    alg = triple.algebra
    n = triple.hilbert_dim
    d = triple.dirac
    rep = Report(f"axioms[{triple.label or 'triple'}]",
                 context={"model": triple.label, "algebra_dim": alg.dim,
                          "hilbert_dim": n, "eps": triple.eps, "eps_prime": triple.eps_prime})

    basis, pis = alg.basis, triple.pi_images
    rep.add(CheckRecord.from_residual(
        "representation-unital", "the unit of A acts as the identity on H",
        op_norm(triple.pi(alg.unit) - np.eye(n)), t_j, SCOPE_EXACT))

    # pairwise records: row block i holds the residuals of the pairs (i, j)
    worst, at = max_op_norm(triple.pi(b @ basis) - p @ pis for b, p in zip(basis, pis))
    rep.add(CheckRecord.from_residual(
        "representation-multiplicative", "pi(ab) = pi(a) pi(b) on a basis",
        worst, t_j, SCOPE_EXACT), witness=at)

    rep.add(CheckRecord.from_residual(
        "representation-star", "pi(a*) = pi(a)*",
        max_op_norm([triple.pi(adjoint(basis)) - adjoint(pis)])[0], t_j, SCOPE_EXACT))

    rank = int(np.linalg.matrix_rank(triple._pi_stack, tol=1e-10))
    rep.add(CheckRecord.from_residual(
        "representation-injective", "pi has full rank on the algebra basis",
        float(alg.dim - rank), 0.5, SCOPE_EXACT))

    rep.add(CheckRecord.from_residual(
        "dirac-self-adjoint", "D = D*", op_norm(d - adjoint(d)), t_con, SCOPE_EXACT))

    isometry, square, dirac_sign = real_structure_residuals(triple)
    rep.add(CheckRecord.from_residual(
        "real-structure-isometry", "the kernel K of J is unitary", isometry, t_j, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "real-structure-square", "J^2 = eps, i.e. K conj(K) = eps 1", square, t_j, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "real-structure-dirac-sign", "JD = eps' DJ, i.e. K conj(D) = eps' D K",
        dirac_sign, t_j, SCOPE_EXACT))

    b_opp = triple.b_opposite(basis)
    worst, at = max_op_norm(commutator(p, b_opp) for p in pis)
    rep.add(CheckRecord.from_residual(
        "commutant-property", "[pi(a), Jb*J^-1] = 0 for all basis pairs",
        worst, t_der, SCOPE_EXACT), witness=at)
    worst, at = max_op_norm(commutator(c, b_opp) for c in commutator(d, pis))
    rep.add(CheckRecord.from_residual(
        "order-one-condition", "[[D, pi(a)], Jb*J^-1] = 0 for all basis pairs",
        worst, t_der, SCOPE_EXACT), witness=at)
    return rep


def real_structure_residuals(triple: RealSpectralTriple) -> tuple[float, float, float]:
    """J-axiom residuals in kernel form: K unitary, K conj(K) = eps 1, K conj(D) = eps' D K."""
    k, d = triple.real_structure.kernel, triple.dirac
    return (triple.real_structure.unitarity_residual(),
            op_norm(k @ np.conj(k) - triple.eps * np.eye(triple.hilbert_dim)),
            op_norm(k @ np.conj(d) - triple.eps_prime * d @ k))


# -- derived structures ------------------------------------------------------


def one_form_space(triple: RealSpectralTriple) -> Subspace:
    """The one-form space Omega^1 = span{pi(a) [D, pi(b)]}; cached on the triple.

    Omega^1 is a left pi(A)-module, so it is the closure of
    C = span{pi(1) [D, pi(b_j)]} over the basis b_j under left
    multiplication by pi(g) for a certified generating set g of A
    (:func:`~ncgauge.staralg.generating_set`): the words in pi(g) and the
    empty word span pi(A), and pi(w) pi(1) = pi(w).  The closure runs in the
    one closure kernel (:func:`~ncgauge.linalg._graded_closure` with left
    letters), about |g| dim Omega^1 products instead of the d^2 products
    pi(a_i) [D, pi(b_j)] (d = dim A).

    Cut: the seed rows are orthonormalised keeping singular values above
    1e-9 times the largest, so scaling D changes nothing; every later
    product is of Frobenius-orthonormal rows and letters, and a new
    direction is kept when its singular value exceeds 1e-9.
    """
    if triple._omega1 is None:
        n = triple.hilbert_dim
        seed = triple.pi(triple.algebra.unit) @ commutator(triple.dirac, triple.pi_images)
        letters = triple.pi(generating_set(triple.algebra))
        triple._omega1 = Subspace(_graded_closure([seed], n, [letters])[0], (n, n))
    return triple._omega1


def c_d_algebra(triple: RealSpectralTriple) -> tuple[FiniteStarAlgebra, Report]:
    """The algebra C_D generated by pi(A) and [D, pi(A)], with its parity split.

    Words are graded by the number of [D, .] letters mod 2: E is the span
    of the even words (with the unit), O that of the odd ones, and
    C_D = E + O.  The grading is consistent when E and O intersect
    trivially, which can fail at finite dimension (the even and odd words
    may collide).  Consistency is reported, not asserted.

    Lemma: if the unit lies in the one-form space Omega^1, then
    E = O = C_D.  Proof: a one-form a [D, b] has exactly one [D, .]
    letter, so Omega^1 lies in O, and with it the unit.  Then
    E = E 1 lies in E O, which lies in O, and O = O 1 lies in O O,
    which lies in E; so E = O, and both equal E + O = C_D.

    So C_D is one closure or two.  When the unit is in Omega^1 (one
    projection of the unit onto :func:`one_form_space`), C_D is the closure
    of Omega^1 under left multiplication by the letters
    L = {pi(g), [D, pi(g)]} for a certified *-closed generating set g of A
    (:func:`~ncgauge.staralg.generating_set`).  Since [D, .] is a
    derivation, [D, pi(w)] of a word w in g is a sum of words in L, so
    pi(A), [D, pi(A)] and Omega^1 all lie in the algebra L and the unit
    generate, which is C_D; and the closure holds every word in L, as it
    holds the unit.  L is *-closed as a span, since pi(g)^* = pi(g^*) and
    [D, pi(g)]^* = -[D, pi(g^*)].  The result is wrapped with ``generators=L``,
    so its closure check forms |L| dim C_D products, not the dim C_D^2
    table.  Otherwise the closure kernel runs with two grades, the even one
    seeded by pi(A) and the unit and the odd one by [D, pi(A)], and C_D is
    the union of the two spans.  The unit's distance from Omega^1 is
    reported as ``unit_one_form_distance``.

    The ``generated-closure`` record is a one-pass certificate, not a second
    closure: the worst of the relative distances of pi(A)'s basis images,
    of every [D, pi(b)] and of the unit from the result, and of the product-
    and adjoint-closure residuals of the wrapped algebra.  The kernel only
    forms words in the generators, so these show that the result is the
    generated *-algebra.
    """
    if triple._cd is not None:
        return triple._cd
    n = triple.hilbert_dim
    eye = np.eye(n, dtype=complex)
    pis = triple.pi_images
    d_comms = commutator(triple.dirac, pis)
    omega = one_form_space(triple)
    if omega.contains(eye):
        gens = triple.pi(generating_set(triple.algebra))
        letters = np.concatenate([gens, commutator(triple.dirac, gens)])
        even = odd = total = Subspace(_graded_closure([omega.basis], n, [letters])[0], (n, n))
    else:
        letters = None  # the closure check forms the dim C_D^2 product table
        even_rows, odd_rows = _graded_closure([np.concatenate([pis, eye[None]]), d_comms], n)
        even, odd = Subspace(even_rows, (n, n)), Subspace(odd_rows, (n, n))
        total = even.union(odd)
    algebra = FiniteStarAlgebra(total.basis, eye, label=f"C_D({triple.label or 'A'})",
                                generators=letters)
    generators = np.concatenate([pis, d_comms, eye[None]])
    missing = np.max(total.residual(generators)
                     / np.maximum(1.0, np.linalg.norm(generators, axis=(1, 2))))
    rep = Report(f"c_d_algebra[{triple.label or 'triple'}]",
                 context={"even_dim": even.dim, "odd_dim": odd.dim, "total_dim": total.dim,
                          "grading_consistent": even.dim + odd.dim == total.dim,
                          "unit_one_form_distance": omega.residual(eye)})
    rep.add(CheckRecord.from_residual(
        "generated-closure", "the closure equals the two-sided generated span",
        max(float(missing), *algebra.closure_residuals), TOL_DERIVED, SCOPE_EXACT))
    triple._cd = (algebra, rep)
    return triple._cd


def compute_aj(triple: RealSpectralTriple) -> FiniteStarAlgebra:
    """The subalgebra {a : aJ = Ja*}, cut out by pi(a) K = K transpose(pi(a)).

    Solved as a nullspace inside A and wrapped as a *-algebra; closure of
    the wrap is re-verified, so a kernel K violating the axioms can make
    this raise :class:`~ncgauge.staralg.NotClosed`.  The image of a basis
    element e_i has Frobenius norm at most 2 ||pi(e_i)||_F, so the cut is
    1e-9 times the larger of s_max and the largest ||pi(e_i)||_F: when A_J
    is all of A in a rotated frame, the map is zero only up to rounding,
    and the rounding must not count as rank.
    """
    if triple._aj is not None:
        return triple._aj
    k, pis = triple.real_structure.kernel, triple.pi_images
    sub = nullspace(triple.algebra.basis, pis @ k - k @ np.swapaxes(pis, 1, 2),
                    floor=1e-9 * np.linalg.norm(pis, axis=(1, 2)).max())
    if sub.dim == 0:
        raise NotClosed("the real-structure condition has trivial solution space", 1.0)
    alg = FiniteStarAlgebra(sub.basis, triple.algebra.unit,
                            label=f"A_J({triple.label or 'A'})")
    triple._aj = alg
    return alg


def verify_aj_properties(triple: RealSpectralTriple, tol: float = TOL_DERIVED) -> Report:
    """The structural facts about A_J, with the real-structure premise.

    The three headline assertions (central, *-closed, commutes with
    one-forms) are all trivially true of the scalar algebra, so a
    corrupted real structure that merely shrinks A_J would slip through
    them; the premise record pins the J axioms themselves.  Commuting with
    one-forms is measured, for each basis element p of A_J, as the norm of
    x -> [pi(p), x] on Omega^1 (:func:`~ncgauge.linalg.commutator_map_norm`),
    which no choice of orthonormal basis of Omega^1 changes; the witness is
    the index of the worst p.
    """
    k = triple.real_structure.kernel
    rep = Report(f"aj_properties[{triple.label or 'triple'}]")
    rep.add(CheckRecord.from_residual(
        "real-structure-premise", "the real-structure axioms behind the construction hold",
        max(real_structure_residuals(triple)), tol, SCOPE_EXACT))
    aj = aj_or_closure_failure(triple, rep, tol)
    if aj is None:
        return rep

    rep.context["aj_dim"] = aj.dim
    pa = triple.pi(aj.basis)
    rep.add(CheckRecord.from_residual(
        "defining-condition", "every returned element satisfies aJ = Ja*",
        max_op_norm([pa @ k - k @ np.swapaxes(pa, 1, 2)])[0], tol, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "inside-center", "A_J sits inside the center of A",
        center(triple.algebra).residual(aj.basis).max(), tol, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "star-closed", "A_J is closed under the adjoint",
        aj.residual(adjoint(aj.basis)).max(), tol, SCOPE_EXACT))

    omega = one_form_space(triple).basis
    norms = [commutator_map_norm(p, omega) for p in pa]
    at = int(np.argmax(norms))
    rep.add(CheckRecord.from_residual(
        "commutes-with-one-forms", "A_J commutes with every one-form a[D,b]",
        norms[at], tol, SCOPE_EXACT), witness=(at,))
    return rep


def aj_or_closure_failure(triple: RealSpectralTriple, rep: Report,
                          tol: float = TOL_DERIVED) -> FiniteStarAlgebra | None:
    """A_J, or None after recording in ``rep`` why its span is not a *-algebra.

    The failing ``subalgebra-closure`` record carries the residual the failed
    check measured, and ``closure_error`` in the context names the check.
    """
    try:
        return compute_aj(triple)
    except NotClosed as exc:
        rep.add(CheckRecord("subalgebra-closure", "the solution span is a *-algebra",
                            exc.residual, tol, False, SCOPE_EXACT))
        rep.context["closure_error"] = str(exc)
        return None


# -- unitary equivalence -----------------------------------------------------


def unitary_equivalent(t1: RealSpectralTriple, t2: RealSpectralTriple,
                       u: np.ndarray, tol: float = TOL_DERIVED) -> Report:
    """Whether u intertwines the two triples: representation, D, and J.

    The J condition in kernel form is U K1 transpose(U) = K2: conjugating
    the anti-linear J by a linear unitary transposes, it does not adjoint.
    """
    u = as_cmatrix(u)
    if t1.hilbert_dim != t2.hilbert_dim or u.shape != (t1.hilbert_dim, t1.hilbert_dim):
        raise DimensionMismatch("triples/conjugator disagree on the Hilbert dimension")
    rep = Report("unitary_equivalence")
    rep.add(CheckRecord.from_residual(
        "conjugator-unitary", "U U* = 1",
        op_norm(u @ adjoint(u) - np.eye(t1.hilbert_dim)), 1e-9, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "intertwines-representation", "U pi1(a) U* = pi2(a) on a basis",
        max_op_norm([u @ t1.pi_images @ adjoint(u) - t2.pi(t1.algebra.basis)])[0],
        tol, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "intertwines-dirac", "U D1 U* = D2",
        op_norm(u @ t1.dirac @ adjoint(u) - t2.dirac), tol, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "intertwines-real-structure", "U J1 U* = J2 as kernels: U K1 transpose(U) = K2",
        op_norm(u @ t1.real_structure.kernel @ u.T - t2.real_structure.kernel),
        tol, SCOPE_EXACT))
    return rep


def conjugate_triple(triple: RealSpectralTriple, u: np.ndarray, label: str = "") -> RealSpectralTriple:
    """The triple carried along a unitary of H: same A, conjugated pi, D, J."""
    u = as_cmatrix(u)
    n = triple.hilbert_dim
    if op_norm(u @ adjoint(u) - np.eye(n)) > 1e-9:
        raise SpectralInputError("conjugator is not unitary")
    return RealSpectralTriple(
        triple.algebra,
        u @ triple.pi_images @ adjoint(u),
        u @ triple.dirac @ adjoint(u),
        AntiLinearOp(u @ triple.real_structure.kernel @ u.T),
        eps=triple.eps, eps_prime=triple.eps_prime,
        label=label or (triple.label + "~conj" if triple.label else "conjugated"),
    )
