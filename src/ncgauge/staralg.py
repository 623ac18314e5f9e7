"""Finite-dimensional *-algebras given inside a faithful matrix representation.

An algebra is stored as an orthonormal basis (trace inner product) of a
product- and adjoint-closed span of n x n matrices, together with its
unit.  The unit need not be the ambient identity: the algebra p A cut out
by a central projection p of A has p as its unit.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    RealSpan,
    Subspace,
    _block_index,
    _components,
    _diagonal_blocks,
    _extend_rows,
    _incidence,
    _kept,
    _pack,
    _parts,
    adjoint,
    as_cmatrix,
    commutator,
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
    "FiniteStarAlgebra",
    "ProjectionFamily",
    "full_matrix_algebra",
    "diagonal_algebra",
    "block_diagonal_algebra",
    "center",
    "minimal_projections",
    "skew_hermitian_basis",
    "generating_set",
    "lie_generating_set",
    "random_unitary",
]

_GENERATOR_SEED = 2014  # fixed, so that every internal draw and every output is reproducible


class AlgebraError(Exception):
    """Base class for algebra construction failures."""


class NotClosed(AlgebraError):
    """The candidate span is not closed under products/adjoints, or the unit fails.

    ``residual`` is the number the failing check measured, and
    ``threshold`` the bound it exceeded: 1e-8 for a closure residual, 1e-9
    for orthonormality and the unit, and 1e-9 for the 1.0 of a span with no
    element, which is the unit's relative distance from it.
    """

    def __init__(self, message: str, residual: float, threshold: float):
        super().__init__(message)
        self.residual = residual
        self.threshold = threshold


class NonCommutative(AlgebraError):
    """A commutative algebra was required."""


class FiniteStarAlgebra(Subspace):
    """A *-closed span of n x n matrices with its unit: a verified :class:`Subspace`.

    Closure and the unit property are verified at construction, which
    keeps the worst product- and adjoint-closure residuals in
    ``closure_residuals``.  The closure check computes the coordinates of
    every product of two basis elements of a summand (below), and keeps
    them as the structure constants.

    The product table is formed block by block.  At construction the
    ambient index range splits into the finest contiguous diagonal blocks
    outside which every basis element and the given unit is exactly 0,
    read from their zero pattern made symmetric.  Outside those blocks
    every product and every adjoint is exactly 0 as well: an
    entry (i, j) with i and j in different blocks is sum_k a_ik b_kj, and
    for each k one of the two factors lies outside the blocks, so every
    term is an exact 0; the adjoint maps the symmetric pattern to itself.
    The span's own packed rows (:class:`~ncgauge.linalg.Subspace`) are
    kept over these blocks, of width sum_b s_b^2 instead of n^2, and each
    block's table is projected against that block's slice of the rows.

    The algebra is a direct sum of its summands, read once, at
    construction: a summand is a group of basis elements joined by chains
    of shared diagonal blocks (:func:`~ncgauge.linalg._components` of the
    element-block incidence), such as one M_N per point of ``ym:k,N`` or
    one summand per orbit of the orbifold algebra.  Elements of different
    summands have no block in common, so their products are exact zeros in
    every block, and a product or an adjoint of elements of one summand
    lies in that summand's blocks, where every element of another summand
    is exactly 0: its coordinates on those elements are exact zeros too.
    So the closure check forms, for each summand c, its d_c^2 products and
    its adjoints over c's blocks only, and projects them against c's
    elements only; residuals and coordinates change only through the order
    of summation.
    ``structure_constants[c][a, b, k]`` is the k-th coordinate of the
    product of the a-th and b-th elements of summand c, on its k-th
    element.  A dense algebra, or a basis that straddles blocks (a rotated
    basis), is the one-summand case.

    The caller gives the unit, which every constructor knows: the ambient
    identity, the unit of A for a subalgebra of A that holds it (A_J, Z(A)),
    or p for the algebra p A cut out by a central projection p.  It is
    checked in matrix space: it must act as the identity on the basis and
    lie in the span.
    """

    def __init__(self, basis: np.ndarray, unit: np.ndarray, label: str = ""):
        basis = np.asarray(basis, dtype=complex)
        if not len(basis):
            raise NotClosed("an algebra needs at least one basis element", 1.0, 1e-9)
        n = basis.shape[-1]
        if basis.shape[1:] != (n, n):
            raise NotClosed("algebra elements must be square matrices", 1.0, 1e-9)
        blocks = _diagonal_blocks(basis, unit)
        super().__init__(_pack(basis, _block_index(blocks, n)), (n, n), blocks)
        self.ambient = n
        self.label = label
        touches = _incidence(self._stack, blocks)
        self._summands = [(e, np.flatnonzero(touches[e].any(axis=0))) for e in _components(touches)]
        self.closure_residuals = self._verify(unit)

    # -- structure ---------------------------------------------------------

    def member_coordinates(self, a: np.ndarray) -> np.ndarray:
        """Coordinates of an element, or of each matrix of a stack.

        Raises :class:`AlgebraError` unless every matrix lies within
        1e-6 * max(1, ||a||_F) of the span.  One projection gives both the
        coordinates and the distance.
        """
        a = np.asarray(a, dtype=complex)
        coords = self.coordinates(a)
        gap = np.linalg.norm(a - self.combine(coords), axis=(-2, -1))
        if (gap > 1e-6 * np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))).any():
            raise AlgebraError("element lies outside the algebra span")
        return coords

    @staticmethod
    def _block_coordinates(tables: list[np.ndarray], parts: list[np.ndarray]) -> np.ndarray:
        """Coordinates of rows given block by block: each table against its block of the basis."""
        return sum(t @ p.reshape(len(p), -1).conj().T for t, p in zip(tables, parts))

    def is_commutative(self, tol: float = 1e-10) -> bool:
        """Whether every commutator of basis elements has Frobenius norm at most ``tol``.

        [b_a, b_b] has the coordinates c[a, b] - c[b, a] in the orthonormal
        basis, and it is exactly 0 for elements of different summands.
        """
        return all(np.linalg.norm(c - np.swapaxes(c, 0, 1), axis=2).max() <= tol
                   for c in self.structure_constants)

    def random_element(self, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return self.combine(c)

    def __repr__(self) -> str:  # pragma: no cover
        tag = f" {self.label!r}" if self.label else ""
        return f"FiniteStarAlgebra(dim={self.dim}, ambient={self.ambient}{tag})"

    # -- verification ------------------------------------------------------

    def _verify(self, unit: np.ndarray) -> tuple[float, float]:
        """Raise unless closed, orthonormal and unital; return the closure residuals.

        Sets the unit and the structure constants, the coordinates the
        product check formed.

        Closure is held to 1e-8, orthonormality and the unit to 1e-9.
        """
        d, blocks, split = self.dim, self._blocks, _parts(self._stack, self._blocks)
        # each summand's elements, and their parts in the summand's blocks
        summands = [(e, [split[b][e] for b in bs]) for e, bs in self._summands]
        closure = []
        for kind in ("products", "adjoints"):
            worst, coords = 0.0, []
            for _, parts in summands:
                tables = ([pair_products(p, p) for p in parts] if kind == "products"
                          else [adjoint(b).reshape(len(b), -1) for b in parts])
                coords.append(self._block_coordinates(tables, parts))
                for t, p in zip(tables, parts):  # in place: a table, once read, is its residual
                    t -= coords[-1] @ p.reshape(len(p), -1)
                # the row norms over the summand's blocks, from real views: no conjugate copy
                squares = sum((np.einsum("ij,ij->i", t.view(float), t.view(float)) for t in tables),
                              np.zeros(1))
                worst = max(worst, float(np.sqrt(squares.max())))
            closure.append(worst)
            if worst > 1e-8:
                raise NotClosed(f"span not closed under {kind} (residual {worst:.2e})",
                                worst, 1e-8)
            if kind == "products":
                self.structure_constants = [np.reshape(c, (len(e),) * 3)
                                            for c, (e, _) in zip(coords, summands)]
        gram = op_norm(self._stack @ self._stack.conj().T - np.eye(d))
        if gram > 1e-9:
            raise NotClosed("basis is not orthonormal in the trace inner product", gram, 1e-9)
        self.unit = as_cmatrix(unit)
        # the unit is 0 outside the blocks too, so each residual is block-diagonal
        worst = max_op_norm(r for s, b in zip(blocks, split)
                            for r in (self.unit[s, s] @ b - b, b @ self.unit[s, s] - b))[0]
        if worst > 1e-9:
            raise NotClosed(f"unit does not act as the identity (residual {worst:.2e})",
                            worst, 1e-9)
        gap = self.residual(self.unit) / max(1.0, frobenius(self.unit))
        if gap > 1e-9:
            raise NotClosed("stored unit lies outside the span", gap, 1e-9)
        return closure[0], closure[1]


def full_matrix_algebra(n: int) -> FiniteStarAlgebra:
    """M_n with the matrix-unit basis (already orthonormal)."""
    return block_diagonal_algebra([n], f"M{n}")


def diagonal_algebra(n: int) -> FiniteStarAlgebra:
    return block_diagonal_algebra([1] * n, f"C^{n}")


def block_diagonal_algebra(sizes: list[int], label: str = "") -> FiniteStarAlgebra:
    """Direct sum of full matrix blocks along the diagonal, with the matrix-unit basis."""
    eye = np.eye(sum(sizes), dtype=complex)
    block = np.repeat(np.arange(len(sizes)), sizes)  # the block of each index
    rows, cols = np.nonzero(block[:, None] == block)  # block by block, then i, then j
    return FiniteStarAlgebra(eye[rows, :, None] * eye[cols, None, :], eye,
                             label=label or "+".join(f"M{s}" for s in sizes))


@_kept
def center(algebra: FiniteStarAlgebra) -> FiniteStarAlgebra:
    """Elements commuting with the whole algebra, as a subalgebra.

    Computed as the nullspace of a -> ([a, b_1], ..., [a, b_d]) restricted
    to the span, read from the structure constants: [b_a, b_b] has the
    coordinates c[a, b] - c[b, a].  The basis is orthonormal and every
    commutator lies in A, so taking coordinates is an isometry on the
    image: this is the same linear map as on the d n^2 commutator matrices,
    with the same singular values.

    The center of a direct sum is the direct sum of the centers,
    Z(⊕A_c) = ⊕Z(A_c): a commutator of elements of different summands is
    an exact 0, so the map sends summand c into the d_c^2 coordinates of
    its own commutators, and the images of different summands have
    disjoint supports.  The map is one d x sum_c d_c^2 stack, and the one
    :func:`~ncgauge.linalg.nullspace` call splits its SVD by summand: one
    SVD of d_c x d_c^2 coordinates each, never one of d x d^2.

    The nullspace cut is ``1e-9 * max(s_max, 1)``.  Every coordinate row
    of [b_a, b_b] has norm at most 2, so 1 is the map's natural scale, and
    a commutative algebra in a rotated basis, whose map is zero up to
    rounding, keeps its whole span as the center instead of counting
    rounding as rank.
    The center of a *-closed algebra is itself *-closed and contains the
    unit of A, which is wrapped as its unit, so the wrap step cannot fail on
    consistent input.  Computed once per algebra and kept on it, like u(A).
    """
    images, at = np.zeros((algebra.dim, sum(len(e) ** 2 for e, _ in algebra._summands)),
                          dtype=complex), 0
    for (e, _), c in zip(algebra._summands, algebra.structure_constants):
        images[e, at:at + len(e) ** 2] = (c - np.swapaxes(c, 0, 1)).reshape(len(e), -1)
        at += len(e) ** 2
    sub = nullspace(algebra.basis, images, floor=1e-9)
    return FiniteStarAlgebra(sub.basis, algebra.unit,
                             label=f"Z({algebra.label})" if algebra.label else "center")


class ProjectionFamily:
    """Pairwise orthogonal self-adjoint idempotents summing to a unit, checked at 1e-9.

    The points are labelled x0, x1, ... in the order given.
    """

    def __init__(self, projections: list[np.ndarray], unit: np.ndarray | None = None):
        self.projections = [as_cmatrix(p) for p in projections]
        self.labels = [f"x{i}" for i in range(len(self.projections))]
        tol = 1e-9
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


_SPLIT_GAP = 1e-6  # minimal_projections cuts the sorted eigenvalues of a part only at larger gaps


def minimal_projections(algebra: FiniteStarAlgebra) -> ProjectionFamily:
    """Minimal projections of a commutative *-algebra, by spectral refinement.

    Commutativity is read from the structure constants the wrap formed:
    :meth:`FiniteStarAlgebra.is_commutative` at 1e-9, the scale of the
    nullspace cut of :func:`center`, below which a commutator counts as
    rounding.  No center is built.

    Let B be the algebra, n its ambient size, e its unit and q_i its
    minimal projections, of rank r_i.  Every hermitian h in B is
    sum_i chi_i(h) q_i, so h maps the range of each q_i to itself.  The
    refinement starts from one part, an orthonormal basis V of the range of
    e, and goes through the hermitian basis h_k = -i u(B) of
    :func:`skew_hermitian_basis`: each part V is split by the eigenspaces
    of V* h_k V, its sorted eigenvalues cut only at gaps above
    ``_SPLIT_GAP``.  Each part spans a sum of ranges of q_i, and two q_i
    share a part to the end only if chi_i and chi_j stay close on the whole
    basis, that is, only if i = j.

    The h_k are orthonormal, and chi_i(h_k) - chi_j(h_k) = tr(h_k y) for
    the hermitian y = q_i / r_i - q_j / r_j in B, so by Parseval
    sum_k |chi_i(h_k) - chi_j(h_k)|^2 = |y|_F^2 = 1/r_i + 1/r_j: some h_k
    separates q_i from q_j by at least sqrt((1/r_i + 1/r_j) / dim B) >=
    sqrt(2 / (n dim B)).  Two values that stay in one part are joined by a
    chain of fewer than dim B gaps of at most ``_SPLIT_GAP``, so a cut at
    1e-6 keeps no two q_i merged while n (dim B)^3 < 2e12.  Every part holds
    at least one q_i, so once there are dim B parts the loop stops.

    Certificate: exactly dim B parts, and each projection V V* in B at
    1e-8; otherwise :class:`AlgebraError`.  Nothing is drawn, so the family
    depends on the algebra alone, and it is ordered by its diagonals.
    """
    if not algebra.is_commutative(1e-9):
        raise NonCommutative(f"algebra of dim {algebra.dim} is not commutative")
    vals, vecs = np.linalg.eigh(algebra.unit)
    parts = [vecs[:, vals > 0.5]]
    for h in -1j * skew_hermitian_basis(algebra):
        if len(parts) == algebra.dim:
            break
        refined = []
        for v in parts:
            vals, w = np.linalg.eigh(adjoint(v) @ h @ v)
            refined += [v @ c for c in np.split(w, np.flatnonzero(np.diff(vals) > _SPLIT_GAP) + 1,
                                                axis=1)]
        parts = refined
    projs = [v @ adjoint(v) for v in parts]
    if len(projs) != algebra.dim or not all(algebra.contains(p, 1e-8) for p in projs):
        raise AlgebraError(f"spectral refinement found {len(projs)} parts for an algebra of "
                           f"dim {algebra.dim}, or a part outside it")
    order = sorted(range(len(projs)),
                   key=lambda i: tuple(np.round(-np.real(np.diag(projs[i])), 6)))
    return ProjectionFamily([projs[i] for i in order], unit=algebra.unit)


@_kept
def skew_hermitian_basis(algebra: FiniteStarAlgebra) -> np.ndarray:
    """Real-orthonormal basis of the skew-hermitian part u(A) = {a : a* = -a}.

    A *-closed complex algebra splits over R as u(A) + i u(A), so the real
    dimension of u(A) equals the complex dimension of A; this is asserted.
    The basis is computed once per algebra and kept on it, so every caller
    (random unitaries, minimal projections, the gauge Lie algebra) shares
    one SVD.
    """
    b = algebra.basis  # candidates interleaved: (b - b*)/2, then i(b + b*)/2, per b
    cands = np.stack([(b - adjoint(b)) / 2, 1j * (b + adjoint(b)) / 2], axis=1)
    span = RealSpan.from_spanning(cands.reshape(-1, *algebra.shape), algebra.shape)
    if span.dim != algebra.dim:
        raise AlgebraError(
            f"skew-hermitian part has real dim {span.dim}, expected {algebra.dim}")
    return span.basis


@_kept
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
    gens = np.stack([algebra.random_element(seed=_GENERATOR_SEED + i) for i in range(2)])
    gens = np.concatenate([gens, adjoint(gens)])
    if generated_algebra(np.concatenate([gens, algebra.unit[None]])).dim != algebra.dim:
        return algebra.basis
    return gens


def lie_generating_set(algebra: FiniteStarAlgebra) -> np.ndarray:
    """A real-orthonormal set S in u(A) that generates u(A) as a Lie algebra, certified.

    The skew parts (x - x*)/2 of the generating set (:func:`generating_set`),
    two directions for the two draws, and a basis of u(Z(A)) for the center
    Z(A), orthonormalised.  Two generic elements generate a simple Lie
    algebra such as su(n), but a bracket has no central part: the Lie
    algebra S generates is span S plus brackets, so its central part is that
    of span S, and the draws alone reach at most two central directions.

    The Lie algebra S generates is spanned by the nested brackets
    [s_1, [s_2, ... [s_k-1, s_k]]] with every s_i in S, so it is the
    smallest span holding S that ad_s maps into itself for each s in S: the
    closure below brackets S with the rows new in the last round only.  S is
    trusted only when that closure has real dimension dim A = dim u(A);
    otherwise the basis of u(A) is returned, which spans it.  The closure
    runs in A's own ambient, not on H.
    """
    x = generating_set(algebra)
    span = RealSpan.from_spanning(np.concatenate([(x - adjoint(x)) / 2,
                                                  skew_hermitian_basis(center(algebra))]))
    s = span.basis
    rows = fresh = span._stack  # brackets stay in the blocks of S, so they pack like S
    while len(fresh) and len(rows) < algebra.dim:  # brackets of S with the rows new last round
        brackets = commutator(s[:, None], span._mat(fresh)[None])
        fresh = _extend_rows(rows, span._vec(brackets).reshape(-1, rows.shape[1]), 1e-9, 1e-9)
        rows = np.vstack([rows, fresh])
    return s if len(rows) == algebra.dim else skew_hermitian_basis(algebra)


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
