"""Finite-dimensional *-algebras given inside a faithful matrix representation.

An algebra is stored as an orthonormal basis (trace inner product) of a
product- and adjoint-closed span of n x n matrices, together with its
unit.  The unit need not be the ambient identity: fibers cut out by a
central projection p carry p as their unit.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    RealSpan,
    Subspace,
    adjoint,
    as_cmatrix,
    frobenius,
    generated_algebra,
    max_op_norm,
    nullspace,
    op_norm,
    pair_products,
)

__all__ = [
    "AlgebraError",
    "NotClosed",
    "NonCommutative",
    "DegenerateDraw",
    "FiniteStarAlgebra",
    "ProjectionFamily",
    "subalgebra_from_span",
    "full_matrix_algebra",
    "diagonal_algebra",
    "block_diagonal_algebra",
    "center",
    "minimal_projections",
    "skew_hermitian_basis",
    "generating_set",
    "random_unitary",
]

_GENERATOR_SEED = 2014  # fixed, so that the drawn generators and every output are reproducible


class AlgebraError(Exception):
    """Base class for algebra construction failures."""


class NotClosed(AlgebraError):
    """The candidate span is not closed under products/adjoints, or has no unit.

    ``residual`` is the number the failing check measured: a closure,
    orthonormality or unit residual, or 1.0 (the unit's relative distance
    from a zero span) when there is no span to measure.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NonCommutative(AlgebraError):
    """A commutative algebra was required."""


class DegenerateDraw(AlgebraError):
    """Random spectral draws kept producing clustered eigenvalues."""


class FiniteStarAlgebra(Subspace):
    """A *-closed span of n x n matrices with its unit: a verified :class:`Subspace`.

    Closure and the unit property are verified at construction, which
    keeps the worst product- and adjoint-closure residuals in
    ``closure_residuals``.  Without generators, the closure check computes
    the coordinates of every product of two basis elements, and keeps them
    as the structure constants: ``structure_constants[a, b, k]`` is the
    k-th coordinate of basis[a] @ basis[b], a d x d x d array.

    An omitted unit is solved from the structure constants: e = sum_k e_k
    b_k acts as the identity when sum_k e_k c[k, j] and sum_k e_k c[j, k]
    are both the j-th unit vector for every j, a 2 d^2 x d least-squares
    system.  A finite-dimensional *-algebra of matrices always has a unit,
    so on a closed span this fails only by rounding; the solved unit is
    checked in matrix space like a given one.

    A caller that built the span from generators S, as the span of words in
    S and the unit (a closure under S on the left), passes them as
    ``generators``.  Then the unit in W and S W ⊆ W give W W ⊆ W, so the
    product check forms the |S| d products S x basis instead of the d^2
    table, and the structure constants are computed only when first read.
    That W lies in the algebra S and the unit generate is the caller's
    premise, not checked here: with S = {1}, any *-closed span holding the
    unit would pass.
    """

    def __init__(self, basis: np.ndarray, unit: np.ndarray | None = None,
                 label: str = "", tol: float = 1e-8, generators=None):
        basis = np.asarray(basis, dtype=complex)
        if not len(basis):
            raise NotClosed("an algebra needs at least one basis element", 1.0)
        n = basis.shape[-1]
        if basis.shape[1:] != (n, n):
            raise NotClosed("algebra elements must be square matrices", 1.0)
        super().__init__(self._vec(basis), (n, n))
        self.ambient = n
        self.label = label
        self._skew: np.ndarray | None = None  # u(A), kept by skew_hermitian_basis
        self._gens: np.ndarray | None = None  # kept by generating_set
        self._constants: np.ndarray | None = None
        self.closure_residuals = self._verify(tol, unit, generators)

    # -- structure ---------------------------------------------------------

    def member_coordinates(self, a: np.ndarray) -> np.ndarray:
        """Coordinates of an element, or of each matrix of a stack.

        Raises :class:`AlgebraError` unless every matrix lies within
        1e-6 * max(1, ||a||_F) of the span.
        """
        a = np.asarray(a, dtype=complex)
        if (self.residual(a) > 1e-6 * np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))).any():
            raise AlgebraError("element lies outside the algebra span")
        return self.coordinates(a)

    @property
    def structure_constants(self) -> np.ndarray:
        """c[a, b, k], the k-th coordinate of basis[a] @ basis[b]: the d^2 product table."""
        if self._constants is None:
            b = self.basis
            self._constants = (pair_products(b, b) @ self._stack.conj().T).reshape((self.dim,) * 3)
        return self._constants

    def is_commutative(self, tol: float = 1e-10) -> bool:
        """Whether every commutator of basis elements has Frobenius norm at most ``tol``.

        [b_a, b_b] has the coordinates c[a, b] - c[b, a] in the orthonormal basis.
        """
        c = self.structure_constants
        return bool(np.linalg.norm(c - np.swapaxes(c, 0, 1), axis=2).max() <= tol)

    def random_element(self, seed: int = 0, hermitian: bool = False) -> np.ndarray:
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        a = self.combine(c)
        if hermitian:
            a = (a + adjoint(a)) / 2
        return a

    def __repr__(self) -> str:  # pragma: no cover
        tag = f" {self.label!r}" if self.label else ""
        return f"FiniteStarAlgebra(dim={self.dim}, ambient={self.ambient}{tag})"

    # -- verification ------------------------------------------------------

    def _verify(self, tol: float, unit: np.ndarray | None, generators) -> tuple[float, float]:
        """Raise unless closed, orthonormal and unital; set the unit; return closure residuals."""
        b, d = self.basis, self.dim
        left = b if generators is None else np.asarray(generators, dtype=complex)
        closure, coords = [], []
        for kind, rows in (("products", pair_products(left, b)),
                           ("adjoints", self._vec(adjoint(b)))):
            coords.append(rows @ self._stack.conj().T)
            rows -= coords[-1] @ self._stack  # in place: rows, once read, become the residual
            closure.append(float(np.max(np.linalg.norm(rows, axis=1))))
            if closure[-1] > tol:
                raise NotClosed(f"span not closed under {kind} (residual {closure[-1]:.2e})",
                                closure[-1])
        if generators is None:
            self._constants = coords[0].reshape(d, d, d)
        gram = op_norm(self._stack @ self._stack.conj().T - np.eye(d))
        if gram > 1e-9:
            raise NotClosed("basis is not orthonormal in the trace inner product", gram)
        if unit is None:
            c = self.structure_constants
            # rows (j, m): sum_k e_k c[k, j, m] (e b_j), then sum_k e_k c[j, k, m] (b_j e)
            system = np.concatenate([np.moveaxis(c, 0, -1), np.moveaxis(c, 1, -1)]).reshape(-1, d)
            e, *_ = np.linalg.lstsq(system, np.tile(np.eye(d).ravel(), 2), rcond=None)
            unit = self.combine(e)
        self.unit = as_cmatrix(unit)
        worst = max_op_norm([self.unit @ b - b, b @ self.unit - b])[0]
        if worst > 1e-9:
            raise NotClosed(f"unit does not act as the identity (residual {worst:.2e})", worst)
        gap = self.residual(self.unit) / max(1.0, frobenius(self.unit))
        if gap > 1e-9:
            raise NotClosed("stored unit lies outside the span", gap)
        return closure[0], closure[1]


def subalgebra_from_span(span, label: str = "", tol: float = 1e-8) -> FiniteStarAlgebra:
    """Verify a span is a unital *-subalgebra and wrap it, with its unit solved.

    Accepts a :class:`~ncgauge.linalg.Subspace` or a spanning stack of matrices.
    Closure is verified, not assumed.
    """
    sub = span if isinstance(span, Subspace) else Subspace.from_spanning(span)
    return FiniteStarAlgebra(sub.basis, label=label, tol=tol)


def full_matrix_algebra(n: int, label: str = "") -> FiniteStarAlgebra:
    """M_n with the matrix-unit basis (already orthonormal)."""
    return block_diagonal_algebra([n], label or f"M{n}")


def diagonal_algebra(n: int, label: str = "") -> FiniteStarAlgebra:
    return block_diagonal_algebra([1] * n, label or f"C^{n}")


def block_diagonal_algebra(sizes: list[int], label: str = "") -> FiniteStarAlgebra:
    """Direct sum of full matrix blocks along the diagonal, with the matrix-unit basis."""
    eye = np.eye(sum(sizes), dtype=complex)
    block = np.repeat(np.arange(len(sizes)), sizes)  # the block of each index
    rows, cols = np.nonzero(block[:, None] == block)  # block by block, then i, then j
    return FiniteStarAlgebra(eye[rows, :, None] * eye[cols, None, :], eye,
                             label=label or "+".join(f"M{s}" for s in sizes))


def center(algebra: FiniteStarAlgebra) -> FiniteStarAlgebra:
    """Elements commuting with the whole algebra, as a subalgebra.

    Computed as the nullspace of a -> ([a, b_1], ..., [a, b_d]) restricted
    to the span, read from the structure constants: [b_a, b_b] has the
    coordinates c[a, b] - c[b, a], so the map is d x d^2 in coordinates.
    The basis is orthonormal and every commutator lies in A, so taking
    coordinates is an isometry on the image: this is the same linear map
    as on the d n^2 commutator matrices, with the same singular values.

    The nullspace cut is ``1e-9 * max(s_max, 1)``.  Every coordinate row
    of [b_a, b_b] has norm at most 2, so 1 is the map's natural scale, and
    a commutative algebra in a rotated basis, whose map is zero up to
    rounding, keeps its whole span as the center instead of counting
    rounding as rank.
    The center of a *-closed algebra is itself *-closed and contains the
    unit, so the wrap step cannot fail on consistent input.
    """
    c = algebra.structure_constants
    sub = nullspace(algebra.basis, c - np.swapaxes(c, 0, 1), floor=1e-9)
    return subalgebra_from_span(sub, label=f"Z({algebra.label})" if algebra.label else "center")


class ProjectionFamily:
    """Pairwise orthogonal self-adjoint idempotents summing to a unit."""

    def __init__(self, projections: list[np.ndarray], labels: list[str] | None = None,
                 unit: np.ndarray | None = None, tol: float = 1e-9):
        self.projections = [as_cmatrix(p) for p in projections]
        self.labels = labels or [f"x{i}" for i in range(len(self.projections))]
        if len(self.labels) != len(self.projections):
            raise ValueError("label/projection count mismatch")
        for p in self.projections:
            if op_norm(p @ p - p) > tol or op_norm(p - adjoint(p)) > tol:
                raise AlgebraError("family member is not a self-adjoint idempotent")
        for i, p in enumerate(self.projections):
            for q in self.projections[i + 1:]:
                if op_norm(p @ q) > tol:
                    raise AlgebraError("projections are not pairwise orthogonal")
        if unit is not None:
            total = sum(self.projections)
            if op_norm(total - unit) > tol:
                raise AlgebraError("projections do not sum to the unit")

    def __len__(self) -> int:
        return len(self.projections)

    def __iter__(self):
        return iter(zip(self.labels, self.projections))


def minimal_projections(algebra: FiniteStarAlgebra, seed: int = 0, max_tries: int = 10,
                        gap: float = 1e-6) -> ProjectionFamily:
    """Minimal projections of a commutative *-algebra.

    A generic self-adjoint element of a commutative algebra with minimal
    projections p_x has the form sum_x c_x p_x with distinct real c_x, so
    its spectral projections recover the p_x exactly.  The eigenvalue 0 on
    the complement of the algebra unit (when the unit is not the ambient
    identity) yields a candidate outside the span, which is dropped by the
    membership filter.  Draws whose eigenvalue clusters are separated by
    less than ``gap`` are retried; after ``max_tries`` failures a
    :class:`DegenerateDraw` is raised.
    """
    zdim = center(algebra).dim
    if zdim != algebra.dim:
        raise NonCommutative(f"algebra of dim {algebra.dim} has center of dim {zdim}")
    sa = -1j * skew_hermitian_basis(algebra)  # hermitian part: -i u(A)
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        coeff = rng.standard_normal(len(sa))
        h = sum(c * s for c, s in zip(coeff, sa))
        vals, vecs = np.linalg.eigh(h)
        # cluster eigenvalues; identical values must share a cluster
        clusters: list[list[int]] = [[0]]
        for i in range(1, len(vals)):
            if vals[i] - vals[clusters[-1][-1]] < 1e-8:
                clusters[-1].append(i)
            else:
                clusters.append([i])
        seps = [vals[clusters[i + 1][0]] - vals[clusters[i][-1]] for i in range(len(clusters) - 1)]
        if any(s < gap for s in seps):
            continue
        projs = []
        for idx in clusters:
            v = vecs[:, idx]
            p = v @ adjoint(v)
            if algebra.contains(p, 1e-8):
                projs.append(p)
        total = sum(projs) if projs else np.zeros_like(algebra.unit)
        if op_norm(total - algebra.unit) > 1e-9:
            continue
        order = sorted(range(len(projs)),
                       key=lambda i: tuple(np.round(-np.real(np.diag(projs[i])), 6)))
        projs = [projs[i] for i in order]
        return ProjectionFamily(projs, unit=algebra.unit)
    raise DegenerateDraw(f"no well-separated spectral draw in {max_tries} tries")


def skew_hermitian_basis(algebra: FiniteStarAlgebra) -> np.ndarray:
    """Real-orthonormal basis of the skew-hermitian part u(A) = {a : a* = -a}.

    A *-closed complex algebra splits over R as u(A) + i u(A), so the real
    dimension of u(A) equals the complex dimension of A; this is asserted.
    The basis is computed once per algebra and kept on it, so every caller
    (random unitaries, minimal projections, the gauge Lie algebra) shares
    one SVD.
    """
    if algebra._skew is None:
        b = algebra.basis  # candidates interleaved: (b - b*)/2, then i(b + b*)/2, per b
        cands = np.stack([(b - adjoint(b)) / 2, 1j * (b + adjoint(b)) / 2], axis=1)
        span = RealSpan.from_spanning(cands.reshape(-1, *algebra.shape), algebra.shape)
        if span.dim != algebra.dim:
            raise AlgebraError(
                f"skew-hermitian part has real dim {span.dim}, expected {algebra.dim}")
        algebra._skew = span.basis
    return algebra._skew


def generating_set(algebra: FiniteStarAlgebra) -> np.ndarray:
    """A *-closed set that generates the algebra together with its unit, certified.

    Two random elements g1, g2 of A, drawn from a fixed internal seed, and
    their adjoints.  Two generic elements generate a finite-dimensional
    C*-algebra (for M_N this is Burnside's theorem), but a draw is trusted
    only when the algebra generated by it and the unit e has dim A: it lies
    in A, so equal dimension means equal.  A draw that fails this is
    replaced by the basis, which generates A trivially.  Computed once per
    algebra and kept on it, like u(A).
    """
    if algebra._gens is None:
        gens = np.stack([algebra.random_element(seed=_GENERATOR_SEED + i) for i in range(2)])
        gens = np.concatenate([gens, adjoint(gens)])
        if generated_algebra(np.concatenate([gens, algebra.unit[None]])).dim != algebra.dim:
            gens = algebra.basis
        algebra._gens = gens
    return algebra._gens


def random_unitary(algebra: FiniteStarAlgebra, seed: int = 0) -> np.ndarray:
    """exp(X) for a random skew-hermitian X in the algebra, from one eigendecomposition.

    H = -iX is hermitian, and H = V diag(l) V* gives exp(X) = V diag(e^{il}) V*.
    Returns u with u u* equal to the algebra unit: for a non-ambient unit e,
    X e = e X = X, so exp(X) - 1 + e = e + X + X^2/2 + ... lies in the algebra.
    """
    rng = np.random.default_rng(seed)
    skew = skew_hermitian_basis(algebra)
    coeff = rng.standard_normal(len(skew)) / np.sqrt(len(skew))
    x = sum(c * s for c, s in zip(coeff, skew))
    lam, v = np.linalg.eigh(-1j * x)
    u = (v * np.exp(1j * lam)) @ adjoint(v) - np.eye(algebra.ambient) + algebra.unit
    if op_norm(u @ adjoint(u) - algebra.unit) > 1e-9:
        raise AlgebraError("exponential drifted off the unitary group")
    if not algebra.contains(u, 1e-8):
        raise AlgebraError("exponential drifted out of the algebra span")
    return u
