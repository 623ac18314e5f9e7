"""Real spectral triples at finite dimension.

A triple bundles a finite *-algebra A (in its defining matrix ambient),
a faithful unital *-representation pi into B(H) for a finite H, a
self-adjoint operator D, an anti-linear real structure J given through
its unitary kernel K (J v = K conj(v)), and the two signs eps = J^2,
eps' relating JD and DJ.

Everything anti-linear is rewritten in terms of K before evaluation:

    J D = eps' D J           <=>  K conj(D) = eps' D K
    J m J^-1 (m linear)           has matrix  K conj(m) K*
    b_opp = J b* J^-1             has matrix  K transpose(pi(b)) K*
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
    TOL_EXACT,
    AntiLinearOp,
    Subspace,
    _graded_closure,
    _kept,
    adjoint,
    as_cmatrix,
    commutator,
    commutator_map_norm,
    frobenius,
    max_op_norm,
    nullspace,
    op_norm,
)
from .reporting import SCOPE_EXACT, CheckRecord, Report
from .staralg import FiniteStarAlgebra, NotClosed, center, generating_set

__all__ = [
    "SpectralInputError",
    "RealSpectralTriple",
    "OneForm",
    "check_axioms",
    "one_form_space",
    "c_d_algebra",
    "compute_aj",
    "aj_or_closure_failure",
    "real_structure_residuals",
    "verify_aj_properties",
    "transpose_permutation",
]

_ON_G = "for a, b in the certified generating set g of A"


class SpectralInputError(ValueError):
    """Structurally malformed triple data (shapes, counts, signs)."""


def transpose_permutation(n: int) -> np.ndarray:
    """Permutation P with P vec(x) = vec(transpose(x)), row-major vec."""
    return np.eye(n * n, dtype=complex)[np.arange(n * n).reshape(n, n).T.ravel()]


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

    # -- representation ------------------------------------------------

    def pi(self, a: np.ndarray) -> np.ndarray:
        """Image of an algebra element, or of each matrix of a stack.

        Rejects input outside the span (``FiniteStarAlgebra.member_coordinates``).
        """
        coords = self.algebra.member_coordinates(a)
        n = self.hilbert_dim
        return (coords @ self._pi_stack).reshape(coords.shape[:-1] + (n, n))

    def pi_rank(self) -> int:
        """Rank of pi on A: of the images of an orthonormal basis, singular values above 1e-10.

        The entries that are 0 in every image are dropped first: they change no singular value.
        """
        images = self._pi_stack
        return int(np.linalg.matrix_rank(images[:, images.any(axis=0)], tol=1e-10))

    def b_opposite(self, b: np.ndarray) -> np.ndarray:
        """Matrix of J b* J^-1, the right-action copy of b (or of each b of a stack)."""
        return self.j_conjugate(adjoint(self.pi(b)))

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

    def __add__(self, other: "OneForm") -> "OneForm":
        if other.triple is not self.triple:
            raise ValueError("one-forms belong to different triples")
        return OneForm(self.triple, self.terms + other.terms)

    @classmethod
    def zero(cls, triple: RealSpectralTriple) -> "OneForm":
        return cls(triple, [])


# -- axiom verification ------------------------------------------------------


def check_axioms(triple: RealSpectralTriple) -> Report:
    """Full axiom suite as a report; never raises on mathematical failure.

    The ladder: construction-level identities at 1e-10/1e-9, the
    commutant and order-one conditions (which chain several products) at
    1e-8.

    The three pairwise records run on the certified generating set g of A
    (:func:`~ncgauge.staralg.generating_set`), not on the d^2 basis pairs
    (d = dim A), and each statement names g.  Words in g and the unit span
    A, and these theorems carry each record from g to A, given the other
    records of the suite (pi(1) = 1, K unitary with K conj(K) = eps 1, so
    that b -> Jb*J^-1 is an anti-homomorphism once pi is a homomorphism):

    * ``representation-multiplicative`` on basis x g, d |g| products: if
      pi(a g) = pi(a) pi(g) for every a, then by induction on the length of
      a word w, pi(a w g) = pi(a w) pi(g) = pi(a) pi(w) pi(g) = pi(a) pi(w g).
    * ``commutant-property`` on g x g: the commutant of a set is the
      commutant of the algebra the set and the unit generate, and pi(A) and
      J pi(A)* J^-1 are generated by the images of g.
    * ``order-one-condition`` on g x g: by the Leibniz rule
      [D, pi(a a')] = [D, pi(a)] pi(a') + pi(a) [D, pi(a')], the a with
      [[D, pi(a)], y] = 0 and [pi(a), y] = 0 form an algebra for each y,
      which holds g (with the commutant property on g); and for each a the
      y commuting with [D, pi(a)] form an algebra, which holds Jg*J^-1.

    Scaling a generator changes neither the algebra it generates nor a
    vanishing residual, so each element of g is scaled to unit Frobenius norm,
    like the orthonormal basis: a drawn generator has Frobenius norm near
    sqrt(2 dim A), and the rounding in its residuals would grow with it.  When ``generating_set`` falls back to the
    basis of A, the same code builds the full basis-pair tables.  Witnesses
    are indices into g (the first index of ``representation-multiplicative``
    is a basis index of A).
    """
    alg = triple.algebra
    n = triple.hilbert_dim
    d = triple.dirac
    rep = Report(f"axioms[{triple.label or 'triple'}]",
                 context={"model": triple.label, "algebra_dim": alg.dim,
                          "hilbert_dim": n, "eps": triple.eps, "eps_prime": triple.eps_prime})

    basis, pis = alg.basis, triple.pi_images
    gens = generating_set(alg)
    gens = gens / np.linalg.norm(gens, axis=(1, 2))[:, None, None]  # unit norm, like the basis
    pg, g_opp = triple.pi(gens), triple.b_opposite(gens)
    rep.add(CheckRecord.from_residual(
        "representation-unital", "the unit of A acts as the identity on H",
        op_norm(triple.pi(alg.unit) - np.eye(n)), TOL_EXACT, SCOPE_EXACT))

    # pairwise records: row block i holds the residuals of the pairs (i, j)
    worst, at = max_op_norm(triple.pi(b @ gens) - p @ pg for b, p in zip(basis, pis))
    rep.add(CheckRecord.from_residual(
        "representation-multiplicative",
        "pi(ab) = pi(a) pi(b) for a in a basis and b in the certified generating set g of A",
        worst, TOL_EXACT, SCOPE_EXACT), witness=at)

    rep.add(CheckRecord.from_residual(
        "representation-star", "pi(a*) = pi(a)*",
        max_op_norm([triple.pi(adjoint(basis)) - adjoint(pis)])[0], TOL_EXACT, SCOPE_EXACT))

    rep.add(CheckRecord.identity(
        "representation-injective", "pi has full rank on the algebra basis",
        triple.pi_rank(), alg.dim))

    rep.add(CheckRecord.from_residual(
        "dirac-self-adjoint", "D = D*", op_norm(d - adjoint(d)), TOL_CONSTRUCT, SCOPE_EXACT))

    isometry, square, dirac_sign = real_structure_residuals(triple)
    for name, statement, residual in (
            ("real-structure-isometry", "the kernel K of J is unitary", isometry),
            ("real-structure-square", "J^2 = eps, i.e. K conj(K) = eps 1", square),
            ("real-structure-dirac-sign", "JD = eps' DJ, i.e. K conj(D) = eps' D K", dirac_sign)):
        rep.add(CheckRecord.from_residual(name, statement, residual, TOL_EXACT, SCOPE_EXACT))

    worst, at = max_op_norm(commutator(p, g_opp) for p in pg)
    rep.add(CheckRecord.from_residual(
        "commutant-property", f"[pi(a), Jb*J^-1] = 0 {_ON_G}",
        worst, TOL_DERIVED, SCOPE_EXACT), witness=at)
    worst, at = max_op_norm(commutator(c, g_opp) for c in commutator(d, pg))
    rep.add(CheckRecord.from_residual(
        "order-one-condition", f"[[D, pi(a)], Jb*J^-1] = 0 {_ON_G}",
        worst, TOL_DERIVED, SCOPE_EXACT), witness=at)
    return rep


def real_structure_residuals(triple: RealSpectralTriple) -> tuple[float, float, float]:
    """J-axiom residuals in kernel form: K unitary, K conj(K) = eps 1, K conj(D) = eps' D K."""
    k, d = triple.real_structure.kernel, triple.dirac
    return (triple.real_structure.unitarity_residual(),
            op_norm(k @ np.conj(k) - triple.eps * np.eye(triple.hilbert_dim)),
            op_norm(k @ np.conj(d) - triple.eps_prime * d @ k))


# -- derived structures ------------------------------------------------------


@_kept
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
    seed = triple.pi(triple.algebra.unit) @ commutator(triple.dirac, triple.pi_images)
    letters = triple.pi(generating_set(triple.algebra))
    return _graded_closure([seed], triple.hilbert_dim, [letters])[0]


@_kept
def c_d_algebra(triple: RealSpectralTriple) -> tuple[Subspace, dict]:
    """The algebra C_D generated by pi(A) and [D, pi(A)], and its parity split.

    Words are graded by the number of [D, .] letters mod 2: E is the span
    of the even words (with the unit), O that of the odd ones, and
    C_D = E + O.  The grading is consistent when E and O intersect
    trivially, which can fail at finite dimension (the even and odd words
    may collide).  Consistency is reported, not asserted.

    Everything is built from the letters L = pi(g) ∪ [D, pi(g)] for a
    certified *-closed generating set g of A
    (:func:`~ncgauge.staralg.generating_set`), never from pi(A) and
    [D, pi(A)].  Words in g and the unit span A, so with pi(1) = 1 the
    words in pi(g) and the unit span pi(A); and since [D, .] is a
    derivation, [D, pi(w)] of a word w in g is a sum of words in L with
    exactly one [D, .] letter.  So the even words in L (with the unit) span
    E, the odd ones span O, and C_D is the algebra L and the unit generate.
    L is *-closed as a span when D is self-adjoint, since
    pi(g)^* = pi(g^*) and [D, pi(g)]^* = -[D, pi(g^*)].

    Lemma: if the unit lies in the one-form space Omega^1, then
    E = O = C_D.  Proof: a one-form a [D, b] has exactly one [D, .]
    letter, so Omega^1 lies in O, and with it the unit.  Then
    E = E 1 lies in E O, which lies in O, and O = O 1 lies in O O,
    which lies in E; so E = O, and both equal E + O = C_D.

    So C_D is one closure of two kinds.  The unit's distance from
    :func:`one_form_space`, one projection, is reported as
    ``unit_one_form_distance`` and decides between them.  When the unit is
    in Omega^1, C_D is the closure of Omega^1 under left multiplication by
    L: Omega^1 lies in C_D, and the closure holds every word in L, as it
    holds the unit.  Otherwise the closure kernel starts from the unit in
    the even grade, with pi(g) as even letters and [D, pi(g)] as odd ones,
    and C_D is the union of E and O.

    Either way the result is the closure kernel's span, not re-verified:
    :func:`~ncgauge.linalg._graded_closure` proves by construction that it
    is closed under the letters, hence under products, and L being
    *-closed makes it *-closed.  Returns C_D as a
    :class:`~ncgauge.linalg.Subspace` and the grading context: ``even_dim``,
    ``odd_dim``, ``total_dim``, ``grading_consistent`` and
    ``unit_one_form_distance``.
    """
    n = triple.hilbert_dim
    eye = np.eye(n, dtype=complex)
    gens = triple.pi(generating_set(triple.algebra))
    d_gens = commutator(triple.dirac, gens)
    omega = one_form_space(triple)
    gap = omega.residual(eye)
    if gap <= TOL_DERIVED * frobenius(eye):  # the unit lies in Omega^1: E = O = C_D
        even = odd = total = _graded_closure([omega.basis], n, [np.concatenate([gens, d_gens])])[0]
    else:
        even, odd = _graded_closure([eye[None], eye[:0]], n, [gens, d_gens])
        total = even.union(odd)
    return total, {"even_dim": even.dim, "odd_dim": odd.dim, "total_dim": total.dim,
                   "grading_consistent": even.dim + odd.dim == total.dim,
                   "unit_one_form_distance": gap}


@_kept
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
    k, pis = triple.real_structure.kernel, triple.pi_images
    sub = nullspace(triple.algebra.basis, pis @ k - k @ np.swapaxes(pis, 1, 2),
                    floor=1e-9 * np.linalg.norm(pis, axis=(1, 2)).max())
    if sub.dim == 0:
        raise NotClosed("the real-structure condition has trivial solution space", 1.0, 1e-9)
    return FiniteStarAlgebra(sub.basis, triple.algebra.unit,
                             label=f"A_J({triple.label or 'A'})")


def verify_aj_properties(triple: RealSpectralTriple) -> Report:
    """The structural facts about A_J, with the real-structure premise.

    The three headline assertions (central, *-closed, commutes with
    one-forms) are all trivially true of the scalar algebra, so a
    corrupted real structure that merely shrinks A_J would slip through
    them; the premise record pins the J axioms themselves.  ``star-closed``
    is the adjoint-closure residual that wrapping A_J as a
    :class:`~ncgauge.staralg.FiniteStarAlgebra` measured.  Every record is
    held to ``TOL_DERIVED``.

    Commuting with one-forms is derived from two maps on A, without
    forming Omega^1.  For each basis element p of A_J,
    :func:`~ncgauge.linalg.commutator_map_norm` gives, from A's Frobenius
    norm to H's, kappa_pi = |a -> [pi(p), pi(a)]| and
    kappa_D = |c -> [pi(p), [D, pi(c)]]|.  The Leibniz identity

        [pi(p), pi(b) [D, pi(c)]] = [pi(p), pi(b)] [D, pi(c)] + pi(b) [pi(p), [D, pi(c)]]

    bounds the Frobenius norm of the left side by
    kappa_pi |b|_F |[D, pi(c)]| + kappa_D |pi(b)| |c|_F, so the residual is
    the max over p of max(kappa_pi, kappa_D).  It is 0 exactly when each
    pi(p) commutes with pi(A) and with [D, pi(A)], which is sufficient for
    commuting with every one-form (and not necessary: with D = 0 there are
    no one-forms).  The witness is the lowest index p whose norm is within
    1e-12 relative of the worst: base points that are equivalent by symmetry
    give the same norm up to an ulp, and the witness must not depend on
    which of them rounds higher.
    """
    k = triple.real_structure.kernel
    rep = Report(f"aj_properties[{triple.label or 'triple'}]")
    rep.add(CheckRecord.from_residual(
        "real-structure-premise", "the real-structure axioms behind the construction hold",
        max(real_structure_residuals(triple)), TOL_DERIVED, SCOPE_EXACT))
    aj = aj_or_closure_failure(triple, rep)
    if aj is None:
        return rep

    rep.context["aj_dim"] = aj.dim
    pa = triple.pi(aj.basis)
    rep.add(CheckRecord.from_residual(
        "defining-condition", "every returned element satisfies aJ = Ja*",
        max_op_norm([pa @ k - k @ np.swapaxes(pa, 1, 2)])[0], TOL_DERIVED, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "inside-center", "A_J sits inside the center of A",
        center(triple.algebra).residual(aj.basis).max(), TOL_DERIVED, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "star-closed", "A_J is closed under the adjoint",
        aj.closure_residuals[1], TOL_DERIVED, SCOPE_EXACT))

    pis = triple.pi_images
    norms = np.maximum(commutator_map_norm(pa, pis),
                       commutator_map_norm(pa, commutator(triple.dirac, pis)))
    at = int(np.argmax(norms >= norms.max() * (1 - 1e-12)))
    rep.add(CheckRecord.from_residual(
        "commutes-with-one-forms", "A_J commutes with every one-form pi(b)[D, pi(c)]: "
        "[pi(p), pi(b)[D, pi(c)]] = [pi(p), pi(b)][D, pi(c)] + pi(b)[pi(p), [D, pi(c)]], so "
        "its Frobenius norm is at most kappa_pi |b|_F |[D, pi(c)]| + kappa_D |pi(b)| |c|_F, "
        "with kappa_pi = |a -> [pi(p), pi(a)]| and kappa_D = |c -> [pi(p), [D, pi(c)]]| "
        "from A's Frobenius norm to H's",
        norms.max(), TOL_DERIVED, SCOPE_EXACT), witness=(at,))
    return rep


def aj_or_closure_failure(triple: RealSpectralTriple, rep: Report) -> FiniteStarAlgebra | None:
    """A_J, or None after recording in ``rep`` why its span is not a *-algebra.

    The failing ``subalgebra-closure`` record carries the residual the failed
    check measured and the threshold it exceeded (:class:`NotClosed`); it is
    fixed, so ``--tol`` does not replace that threshold.  ``closure_error``
    in the context names the check.
    """
    try:
        return compute_aj(triple)
    except NotClosed as exc:
        rep.add(CheckRecord.from_residual("subalgebra-closure", "the solution span is a *-algebra",
                                          exc.residual, exc.threshold, SCOPE_EXACT, fixed=True))
        rep.context["closure_error"] = str(exc)
        return None
