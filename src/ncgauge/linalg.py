"""Dense complex linear algebra kernels shared by every other module.

Conventions
-----------
* Matrices are plain ``numpy`` arrays with ``complex`` dtype.
* Every subspace computation runs in the trace inner product
  ``<a, b> = tr(a^* b)``.  A span lives in the finest contiguous diagonal
  blocks outside which every matrix spanning it is exactly 0
  (:func:`_diagonal_blocks`, the one block reader for the algebra side and
  the Hilbert-space side).  Its matrices are stored as packed rows: the
  diagonal blocks side by side, each vectorised row-major, of width
  sum_b s_b^2 instead of n^2.  Packing is an isometry from the matrices
  that vanish outside the blocks to ``C^(sum_b s_b^2)`` for this inner
  product, so orthonormal bases, projections and nullspaces all reduce to
  SVD calls on stacked packed rows.  A dense span is the one-block case,
  whose packed rows are the row-major vectorised matrices; so is every
  non-square shape.
* Anti-linear operators are never stored as "matrices of an anti-linear
  map".  Only the unitary kernel ``K`` of ``v -> K conj(v)`` is kept,
  and operator identities are rewritten as linear matrix identities in
  ``K`` before they are evaluated (see :class:`AntiLinearOp`).

Tolerance ladder: construction-level identities are expected to hold at
``TOL_CONSTRUCT``, exact identities of the real structure and of
projections at ``TOL_EXACT``, and identities that chain a few operations
at ``TOL_DERIVED``.
"""

from __future__ import annotations

import functools

import numpy as np

TOL_CONSTRUCT = 1e-10
TOL_EXACT = 1e-9
TOL_DERIVED = 1e-8
_CLOSURE_RTOL = 1e-9  # singular-value cut of every closure round

__all__ = [
    "TOL_CONSTRUCT",
    "TOL_EXACT",
    "TOL_DERIVED",
    "as_cmatrix",
    "adjoint",
    "commutator",
    "frobenius",
    "op_norm",
    "max_op_norm",
    "commutator_map_norm",
    "pair_products",
    "Subspace",
    "RealSpan",
    "nullspace",
    "generated_algebra",
    "AntiLinearOp",
]


def _kept(fn):
    """``fn(obj)``, computed on the first call and kept on ``obj`` for every later one."""
    key = f"_kept_{fn.__name__}"

    @functools.wraps(fn)
    def kept(obj):
        if key not in vars(obj):
            vars(obj)[key] = fn(obj)
        return vars(obj)[key]

    return kept


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a 2d complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(m, -2, -1))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def op_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


# Frobenius norms bound spectral norms only up to rounding; a matrix is
# skipped when its Frobenius norm, widened by this factor, cannot beat the
# best spectral norm found
_SCREEN_SLACK = 1.0 + 1e-10


def _gram_screened(m: np.ndarray, fro: float, best: float) -> bool:
    """Whether a Gram bound shows that ``op_norm(m)`` cannot exceed ``best``.

    ``fro`` is the Frobenius norm of m, which is not 0.  With G = x* x (or
    x x*, whichever is smaller) for x = m / fro, and s_i the singular values
    of m, fro^2 ||G||_F = (sum s_i^4)^(1/2) and fro^4 ||G^2||_F =
    (sum s_i^8)^(1/2), so fro sqrt(||G||_F) and fro ||G^2||_F^(1/4) both bound
    s_max = ||m||_2 from above, each tighter than fro and each for one
    matrix product.  Scaling by fro keeps G's entries at most 1, so they
    neither overflow nor underflow.  On an r x c matrix, forming x, G, G^2
    and their norms in floating point moves each bound by at most about
    r c eps relative, and the SVD's s_max is exact to about max(r, c) eps;
    so each bound is widened by the factor 1 + max(1e-8, 8 r c eps) before
    it is compared, which keeps it above the SVD's value (the 1e-8 alone
    covers r c up to about 5e6).
    """
    x = m / fro
    g = adjoint(x) @ x if m.shape[0] >= m.shape[1] else x @ adjoint(x)
    bound = fro * (1.0 + max(1e-8, 8 * np.finfo(float).eps * m.size))
    return (bound * np.sqrt(np.linalg.norm(g)) <= best
            or bound * np.sqrt(np.sqrt(np.linalg.norm(g @ g))) <= best)


def max_op_norm(blocks):
    """Exact max of ``op_norm`` over a sequence of matrix stacks, with its place.

    ``blocks`` yields stacks of matrices (arrays of shape (k, r, c)), for
    example one row block of a pairwise table at a time.  Returns the
    largest spectral norm and ``(b, i)``, where matrix i of block b attains
    it, or ``(0.0, None)`` when there is no matrix at all.

    The Frobenius norm bounds the spectral norm from above, so each block is
    visited in descending Frobenius order and left as soon as the next
    Frobenius norm is at most the best spectral norm found so far: nothing
    after it can be larger.  A matrix that passes this screen is skipped
    when one of the two tighter Gram bounds of :func:`_gram_screened` is at
    most the best: its SVD could not have exceeded the best, so the strict
    ``>`` update would not have taken it.  Only the matrices that could
    still win get an SVD.  Each skip is one the unscreened loop makes
    without an update, so the value and the place are the same ``op_norm``
    and the same (b, i) that loop finds, bit for bit.  Rounding noise is
    the case the Frobenius norm cannot prune: there it sits about
    sqrt(n)/2 above the spectral norm, the first Gram bound about
    0.6 n^(1/4) and the second about 0.7 n^(1/8).
    """
    best, where = -1.0, None
    for b, stack in enumerate(blocks):
        stack = np.asarray(stack)
        fro = np.linalg.norm(stack, axis=(-2, -1))
        for i in np.argsort(-fro, kind="stable"):
            if fro[i] * _SCREEN_SLACK <= best:
                break
            if best > 0 and _gram_screened(stack[i], fro[i], best):
                continue
            value = op_norm(stack[i])
            if value > best:
                best, where = value, (b, int(i))
    return max(best, 0.0), where


def commutator_map_norm(p: np.ndarray, stack: np.ndarray):
    """Norm of the map c -> [p, sum_k c_k s_k], from the coefficients c (2-norm) to Frobenius.

    The map's matrix has the rows vec([p, s_k]).  For an orthonormal stack
    this is the norm of x -> [p, x] on its span, Frobenius to Frobenius, and
    another orthonormal basis of the span multiplies the matrix from the left
    by a unitary, so the norm does not depend on which basis the stack holds.
    For a stack of images of an orthonormal basis of A, such as the
    ``pi_images`` of a triple or the [D, pi(b_k)], the coefficients are those
    of an element of A, so this is the norm of a -> [p, pi(a)] or of
    a -> [p, [D, pi(a)]] from A's Frobenius norm to H's.

    For a projection p inside a *-algebra spanned by an orthonormal stack,
    the norm is 0 or 1: x -> [p, x] is self-adjoint there in the trace
    inner product, as p* = p, and it is the difference of the commuting
    projections x -> p x and x -> x p, so its spectrum lies in {-1, 0, 1}.
    It is 0 when p is central in the algebra and 1 otherwise.

    ``p`` may be a stack of matrices; then the result is one norm per
    matrix, and the stack's zero pattern is read once.  The commutators are
    formed block by block: outside the diagonal blocks of p and the stack
    (:func:`_diagonal_blocks`) both are exactly 0, so [p, s] is too, and its
    block b is [p_b, s_b].  The rows vec([p, s_k]) are packed over these
    blocks, which drops only exact zeros and changes no singular value.

    The norm is the largest singular value s_max of the d x w matrix R of
    these rows, read as sqrt(lambda_max(R R*)) by ``eigvalsh`` of the small
    d x d Gram matrix (of R* R when w < d) instead of an SVD of R.  Forming
    R R* perturbs it by at most about w eps ||R||_F^2 <= w d eps s_max^2,
    and ``eigvalsh`` is backward stable, so lambda_max is exact to about
    w d eps relative in the worst case and s_max to half that, far below
    the tolerances the norm is held to.  Against the SVD's value the tests
    hold it to 1e-12 relative on the presets and config fixtures.
    """
    ps, stack = np.reshape(p, (-1,) + np.shape(p)[-2:]), np.asarray(stack)
    rows = np.concatenate([commutator(ps[:, None, s, s], stack[None, :, s, s])
                           .reshape(len(ps), len(stack), (s.stop - s.start) ** 2)
                           for s in _diagonal_blocks(ps, stack)], axis=-1)
    gram = rows @ adjoint(rows) if rows.shape[-2] <= rows.shape[-1] else adjoint(rows) @ rows
    norms = (np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0)) if gram.size
             else np.zeros(len(ps)))
    return float(norms[0]) if np.ndim(p) == 2 else norms


def pair_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every product a[i] @ b[j] of two matrix stacks, vectorised as row i len(b) + j."""
    return (a[:, None] @ b[None]).reshape(len(a) * len(b), a.shape[1] * b.shape[2])


def _diagonal_blocks(*stacks) -> list[slice]:
    """The finest contiguous diagonal blocks outside which every matrix given is exactly 0.

    Each argument is a matrix or a stack of n x n matrices; their nonzero
    pattern is made symmetric.  A block ends at index i when no row up to i
    reaches a column beyond i.  Non-square matrices are one block.
    """
    r, c = np.shape(stacks[0])[-2:]
    if r != c:
        return [slice(0, r)]
    idx = np.arange(r)
    mask = np.any([np.reshape(m, (-1, r, r)).any(axis=0) for m in stacks], axis=0)
    reach = np.maximum.accumulate(np.where(mask | mask.T, idx, idx[:, None]).max(axis=1))
    ends = (np.flatnonzero(reach == idx) + 1).tolist()
    return [slice(a, b) for a, b in zip([0, *ends[:-1]], ends)]


def _block_index(blocks: list[slice], n: int) -> np.ndarray | None:
    """Flat positions in a row-major n x n matrix of the entries packed rows hold; None: all."""
    if len(blocks) == 1:
        return None
    return np.concatenate([(np.arange(s.start, s.stop)[:, None] * n + np.arange(s.start, s.stop))
                           .ravel() for s in blocks])


def _pack(m: np.ndarray, index: np.ndarray | None) -> np.ndarray:
    """Packed rows of a matrix or stack: its entries at ``index``, block by block (all for None)."""
    *lead, r, c = np.shape(m)
    flat = np.reshape(m, (*lead, r * c))
    return flat if index is None else flat[..., index]


def _parts(rows: np.ndarray, blocks: list[slice]) -> list[np.ndarray]:
    """The diagonal blocks held by packed rows, as (..., s_b, s_b) views of them."""
    sizes = [s.stop - s.start for s in blocks]
    ends = np.cumsum([q * q for q in sizes]).tolist()
    return [rows[..., e - q * q:e].reshape(rows.shape[:-1] + (q, q)) for q, e in zip(sizes, ends)]


def _incidence(rows: np.ndarray, blocks: list[slice]) -> np.ndarray:
    """Whether each packed row is nonzero in each diagonal block: a (rows, blocks) mask."""
    return np.stack([p.any(axis=(-2, -1)) for p in _parts(rows, blocks)], axis=-1)


def _unpack(rows: np.ndarray, index: np.ndarray | None, shape: tuple[int, int]) -> np.ndarray:
    """The matrices of packed rows, exactly 0 outside the blocks; a view for one block."""
    if index is None:
        return rows.reshape(rows.shape[:-1] + shape)
    out = np.zeros(rows.shape[:-1] + (shape[0] * shape[1],), dtype=rows.dtype)
    out[..., index] = rows
    return out.reshape(rows.shape[:-1] + shape)


def block_products(a: list[np.ndarray], b: list[np.ndarray]) -> np.ndarray:
    """Every product a[i] @ b[j] of two block-diagonal stacks given block by block.

    ``a`` and ``b`` list the stacks' diagonal blocks, in the same order.
    Row i len(b) + j holds the packed rows of a[i] @ b[j]: one
    ``pair_products`` table per block, side by side.
    """
    tables = [pair_products(x, y) for x, y in zip(a, b)]
    return tables[0] if len(tables) == 1 else np.concatenate(tables, axis=1)


def _right_singular(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors (as the rows of W*) of a 2d stack.

    A wide stack (fewer rows than columns) is decomposed in its tall
    orientation, the faster one for LAPACK (15-35% on wide span stacks):
    from stack* = U S W* follows stack = W S U*, so the rows of U* are the
    stack's right singular vectors, with the same singular values S.
    LAPACK's divide-and-conquer SVD can fail to converge in one orientation
    and not in the other (a 60 x 256 closure stack of
    ``orbifold:q=4,p=1,m=1`` does so tall), so that failure falls back to
    the stack as given.
    """
    if len(stack) < stack.shape[1]:
        try:
            u, s, _ = np.linalg.svd(adjoint(stack), full_matrices=False)
            return s, adjoint(u)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.svd(stack, full_matrices=False)[1:]


def _orthonormal_rows(stack: np.ndarray, rtol: float = 1e-10, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of ``stack``.

    The one SVD (:func:`_right_singular`) and rank rule behind every span:
    singular values below ``max(rtol * s_max, floor)`` are treated as zero.
    A real stack keeps real rows; anything else is complex.  A stack whose
    Frobenius norm is at most ``floor > 0`` has rank 0 without an SVD: s_max
    never exceeds the Frobenius norm.
    """
    stack = np.atleast_2d(np.asarray(stack, dtype=float if np.isrealobj(stack) else complex))
    if stack.size == 0 or (floor > 0 and np.linalg.norm(stack) <= floor):
        return np.zeros((0, stack.shape[-1]), dtype=stack.dtype)
    s, vh = _right_singular(stack)
    cut = max(rtol * s[0], floor)
    rank = int(np.sum(s > cut))
    return np.ascontiguousarray(vh[:rank])  # row-major, as the packed-row views read it


def _extend_rows(stack: np.ndarray, rows: np.ndarray, rtol: float, floor: float) -> np.ndarray:
    """Orthonormal rows spanning what ``rows`` adds to the row space of ``stack``.

    ``stack`` holds orthonormal rows.  ``rows`` is projected off them twice:
    the second pass removes what rounding left of the first, so the new
    rows stay orthogonal to ``stack`` to working precision even when
    ``rows`` lies almost inside its span.  Only the residual goes to
    :func:`_orthonormal_rows`, with its cut ``max(rtol * s_max, floor)``.
    A first residual with Frobenius norm at most ``floor > 0`` adds nothing,
    and the second pass, which can only shrink it, is skipped.
    """
    dual = stack.conj().T  # formed once, read by both passes
    resid = (rows @ dual) @ stack
    np.subtract(rows, resid, out=resid)  # in place: one rows-sized temporary, not two
    if floor > 0 and np.linalg.norm(resid) <= floor:
        return resid[:0]
    resid -= (resid @ dual) @ stack  # in place: the second pass adds no rows-sized result
    return _orthonormal_rows(resid, rtol, floor)


class Subspace:
    """Complex-linear span of matrices, orthonormal in the trace inner product.

    The span is stored as orthonormal packed rows, one matrix each, over
    contiguous diagonal blocks (``_blocks``) outside which every matrix of
    the span is exactly 0, so packing loses nothing: the blocks side by
    side, of width sum_b s_b^2 instead of r c.  :meth:`from_spanning` takes
    the finest blocks of the spanning set.  The basis is read as one
    (dim, r, c) stack.  ``_field_rows``
    (packed matrix to row) and ``_complex_rows`` (row to packed matrix) are
    the only field-specific code; see :class:`RealSpan`.  Both act on the
    last axis, so :meth:`coordinates`, :meth:`project` and :meth:`residual`
    also take a stack of matrices.  The given rows are packed over
    ``blocks``; left out, they are the vectorised matrices (one block).
    """

    def __init__(self, stack: np.ndarray, shape: tuple[int, int], blocks: list | None = None):
        self._stack = np.asarray(stack)
        self.shape = shape
        self._blocks = blocks or [slice(0, shape[0])]
        self._index = _block_index(self._blocks, shape[0])

    _field_rows = _complex_rows = staticmethod(np.asarray)  # complex rows are the packed matrices

    def _vec(self, m: np.ndarray) -> np.ndarray:
        return self._field_rows(_pack(m, self._index))

    def _mat(self, row: np.ndarray) -> np.ndarray:
        return _unpack(self._complex_rows(row), self._index, self.shape)

    @classmethod
    def from_spanning(cls, mats, shape: tuple[int, int] | None = None) -> "Subspace":
        """The span of a (k, r, c) stack, or of a sequence of r x c matrices.

        A plain span of the field, also when called on a subclass (as :meth:`union`).
        """
        try:
            mats = np.asarray(mats, dtype=complex)
        except ValueError:
            raise ValueError("mixed matrix shapes in spanning set") from None
        if not mats.size:  # a zero matrix spans nothing but fixes the row width and field
            if shape is None:
                raise ValueError("cannot infer the ambient shape from an empty list")
            mats = np.zeros((1, *shape), dtype=complex)
        if mats.ndim != 3 or mats.shape[1:] != tuple(shape or mats.shape[1:]):
            raise ValueError("mixed matrix shapes in spanning set")
        field, blocks = RealSpan if issubclass(cls, RealSpan) else Subspace, _diagonal_blocks(mats)
        index = _block_index(blocks, mats.shape[1])
        return field(_orthonormal_rows(field._field_rows(_pack(mats, index))), mats.shape[1:],
                     blocks)

    @property
    def dim(self) -> int:
        return self._stack.shape[0]

    @property
    def basis(self) -> np.ndarray:
        """The orthonormal basis as one (dim, r, c) stack, read-only: it may view the rows."""
        basis = self._mat(self._stack)
        basis.flags.writeable = False
        return basis

    def coordinates(self, m: np.ndarray) -> np.ndarray:
        return self._vec(m) @ self._stack.conj().T

    def combine(self, coords: np.ndarray) -> np.ndarray:
        """The matrix (or stack) with these coordinates: the inverse of :meth:`coordinates`."""
        return self._mat(coords @ self._stack)

    def project(self, m: np.ndarray) -> np.ndarray:
        return self.combine(self.coordinates(m))

    def residual(self, m: np.ndarray):
        """Frobenius distance from the span of a matrix, or of each matrix of a stack.

        Measured in matrix space, so the entries of m outside the blocks,
        which are orthogonal to the span, count in full.
        """
        m = np.asarray(m, dtype=complex)
        return np.linalg.norm(m - self.project(m), axis=(-2, -1))

    def cut_dims(self, projections: np.ndarray) -> list[int]:
        """dim p S for each orthogonal projection p of a stack with p S ⊆ S, as one trace each.

        With p S ⊆ S, x -> p x is an orthogonal projection of S in the trace
        inner product: it is idempotent, and <x, p y> = tr(x* p y) = <p x, y>.
        Its rank is its trace sum_k <b_k, p b_k> = tr(p F_S) over the
        orthonormal basis b_k, where F_S = sum_k b_k b_k* is the frame
        operator of S, which no other orthonormal basis changes.  The premise
        p S ⊆ S is the caller's: it holds for p in S when S is an algebra.
        Every b_k is 0 outside the blocks, so F_S is the direct sum of the
        block frames F_b, and tr(p F_S) = sum_b tr(p_b F_b).
        """
        traces = 0.0
        for s, part in zip(self._blocks, _parts(self._complex_rows(self._stack), self._blocks)):
            rows = np.swapaxes(part, 0, 1).reshape(len(part[0]), -1)  # the b_k side by side
            traces = traces + np.einsum("xij,ji->x", projections[:, s, s],
                                        rows @ rows.conj().T).real
        return [int(round(t)) for t in traces]

    def contains(self, m: np.ndarray, tol: float = TOL_DERIVED) -> bool:
        return bool(self.residual(m) <= tol * max(1.0, frobenius(m)))

    def union(self, other: "Subspace") -> "Subspace":
        """The span of both, as a plain span of their field (also for subclasses)."""
        if (isinstance(other, RealSpan), other.shape) != (isinstance(self, RealSpan), self.shape):
            raise ValueError("spans differ in field or shape")
        return self.from_spanning(np.concatenate([self.basis, other.basis]), self.shape)

    def intersection_dim(self, other: "Subspace") -> int:
        return self.dim + other.dim - self.union(other).dim


class RealSpan(Subspace):
    """Real-linear span of complex matrices, orthonormal in Re tr(a^* b).

    Needed for skew-hermitian and gauge Lie algebra spans, which are real
    vector spaces not closed under multiplication by i.  A packed matrix
    becomes the real row (Re, Im), an isometry from Re tr(a^* b) to the
    real dot product, so the rows and coordinates are real.
    """

    # its own entry, not inherited: tracers look the classmethod up in vars(RealSpan)
    from_spanning = classmethod(Subspace.from_spanning.__func__)

    @staticmethod
    def _field_rows(packed: np.ndarray) -> np.ndarray:
        return np.concatenate([packed.real, packed.imag], axis=-1)

    @staticmethod
    def _complex_rows(row: np.ndarray) -> np.ndarray:
        n = row.shape[-1] // 2
        return row[..., :n] + 1j * row[..., n:]


def _components(mask: np.ndarray) -> list[np.ndarray]:
    """The rows of a boolean matrix grouped by chains of shared True columns, in order.

    Each group is sorted and the groups are ordered by their first row; a
    row with no True entry is a group of its own.  Every row takes the least
    label among the rows it shares a column with until nothing changes, so
    each group ends labelled by its first row.
    """
    rows = label = np.arange(len(mask))
    while True:
        least = np.where(mask, label[:, None], len(mask)).min(axis=0, initial=len(mask))
        new = np.minimum(label, np.where(mask, least, len(mask)).min(axis=1, initial=len(mask)))
        if np.array_equal(new, label):
            return [np.flatnonzero(label == r) for r in rows[label == rows]]
        label = new


def nullspace(domain_basis, images, floor: float = 0.0) -> Subspace:
    """Nullspace of a linear map given on an orthonormal basis of its domain.

    ``domain_basis`` is an orthonormal family of matrices and ``images[i]``
    is the image of ``domain_basis[i]`` (any array; it is only ravelled).
    A combination v = sum c_i e_i is kept when ||L(v)|| falls below
    ``max(1e-9 * s_max, floor)``, where s_max is the largest singular
    value of L: a relative threshold ||L(v)|| < 1e-9 * ||L|| * ||v||, and
    an absolute one for a map whose natural scale is known, so that a map
    that is zero up to rounding has the whole domain as its nullspace.
    Rank plus nullity equals the domain dimension by construction.

    The entries that are 0 in every image are dropped, and the domain splits
    into groups joined by chains of shared diagonal blocks of the domain
    basis or shared nonzero image entries (:func:`_components`): the
    summands of a direct sum, when their images have disjoint supports.
    The stacked images a are then block-diagonal up to a permutation, so
    their singular values are those of the groups together, s_max is the
    largest group s_max, and the nullspace is the direct sum of the group
    nullspaces.  One SVD per group, of a_g* = U S V* (tall, the faster
    orientation), gives both: c a_g = 0 exactly when a_g* conj(c) = 0,
    that is when conj(c) has no component along the rows of V* whose
    singular values exceed the cut, so the coefficient rows are the rows
    of V* past the rank (all d_g of them are formed).  Only d_g x d_g and
    M_g x d_g factors are formed.  Orthonormal coefficient rows against an
    orthonormal domain basis give orthonormal nullspace matrices, packed
    over the blocks of the domain basis.
    """
    domain, images = np.asarray(domain_basis, dtype=complex), np.asarray(images, dtype=complex)
    if len(domain) != len(images):
        raise ValueError("domain basis and image list disagree in length")
    if not len(domain):
        raise ValueError("empty domain")
    a = images.reshape(len(images), -1)
    a = a[:, a.any(axis=0)]
    blocks = _diagonal_blocks(domain)
    packed = _pack(domain, _block_index(blocks, domain.shape[1]))
    groups = _components(np.concatenate([_incidence(packed, blocks), a != 0], axis=1))
    svds = [np.linalg.svd(m.conj().T, full_matrices=m.shape[1] < len(g))[1:]
            for g, m in ((g, a[g][:, a[g].any(axis=0)]) for g in groups)]
    cut = max(1e-9 * max((s[0] for s, _ in svds if len(s)), default=0.0), floor)
    coeffs = [np.zeros((0, len(domain)), dtype=complex)]
    for g, (s, vh) in zip(groups, svds):
        coeffs.append(np.zeros((len(g) - int(np.sum(s > cut)), len(domain)), dtype=complex))
        coeffs[-1][:, g] = vh[len(g) - len(coeffs[-1]):]
    return Subspace(np.concatenate(coeffs) @ packed, domain.shape[1:], blocks)


def _graded_closure(seeds: list, n: int, left: list) -> list[Subspace]:
    """Spans of the smallest graded span containing the seed that the left
    letters map into itself, one per grade.

    ``seeds[g]`` and ``left[g]`` are stacks of n x n matrices of grade g, for
    k = len(seeds) grades (a stack may be empty); a product of grades x and
    y lands in grade (x + y) mod k.  With W_0 = span seed and
    W_{j+1} = W_j + L W_j, the rows new at step j only need multiplying on
    the left by the letters L (the orthonormalised rows L_x of each grade
    x), one letter at a time.  At the fixed point L W ⊆ W: W is the smallest
    L-invariant span containing the seed, a left module over the algebra the
    letters generate.  Seeded by the unit, W is spanned by the words in L,
    graded by their letters: the algebra L and the unit generate.  Seeded by
    S with letters S, it is the algebra S generates: S W ⊆ W gives W W ⊆ W.
    That costs |L| products per new row, not one per row of W.  A grade that
    already holds every row its blocks allow takes no more products, and the
    loop ends once no grade gains a row or every grade is full.

    Block by block: outside the diagonal blocks of the seeds and the
    letters (:func:`_diagonal_blocks`) every word is exactly 0, so all rows
    are packed over these blocks, and a letter multiplies a word in each
    block separately (:func:`block_products`).  The spans come out with
    exact zeros outside the blocks.

    Cut: the seed rows are orthonormalised with singular values kept above
    1e-9 times the largest; after that every product is of two Frobenius-
    orthonormal rows, so a new direction is kept when its singular value
    exceeds 1e-9 absolutely (and 1e-9 relative to its round's residual).

    The result is L-invariant by construction, so callers do not re-verify
    it: every row of W is multiplied by every letter in the round after it
    enters; each product is projected off a span that lies inside the final
    W; only directions below the 1e-9 cut are dropped; and a grade skips its
    products only once it holds every row its blocks allow, which is all of
    the span they can land in.  So each L w lies within the cut of W.
    """
    seeds, left = ([np.reshape(np.asarray(s, dtype=complex), (-1, n, n)) for s in group]
                   for group in (seeds, left))
    blocks = _diagonal_blocks(*seeds, *left)
    index, full = _block_index(blocks, n), sum((s.stop - s.start) ** 2 for s in blocks)
    stacks = fresh = [_orthonormal_rows(_pack(s, index), _CLOSURE_RTOL) for s in seeds]
    letters = [_parts(_orthonormal_rows(_pack(s, index), _CLOSURE_RTOL), blocks) for s in left]
    k = len(seeds)
    while min(len(s) for s in stacks) < full and any(len(f) for f in fresh):
        words = [_parts(f, blocks) for f in fresh]
        fresh = [stack[:0] for stack in stacks]
        for g in range(k):
            for x in range(k):
                for i in range(len(letters[x][0])):
                    if len(stacks[g]) == full:
                        break
                    # one letter at a time: each SVD sees one letter's rows, and a
                    # letter whose products are already in the span costs no SVD
                    prods = block_products([p[i:i + 1] for p in letters[x]], words[(g - x) % k])
                    new = _extend_rows(stacks[g], prods, _CLOSURE_RTOL, _CLOSURE_RTOL)
                    if len(new):
                        stacks[g] = np.vstack([stacks[g], new])
                        fresh[g] = np.vstack([fresh[g], new])
    return [Subspace(s, (n, n), blocks) for s in stacks]


def generated_algebra(generators) -> Subspace:
    """Smallest product- and adjoint-closed span containing the generators.

    Closure under products of an adjoint-closed spanning set is
    automatically adjoint-closed, so the seed is generators plus their
    adjoints, and the closure multiplies it by itself: the ungraded (k = 1)
    case of the graded closure kernel, with the seed as its letters.  A
    unital closure takes the identity among the generators.
    """
    gens = np.asarray(generators, dtype=complex)  # mixed shapes raise here
    if gens.ndim != 3 or not len(gens) or gens.shape[1] != gens.shape[2]:
        raise ValueError("generators must be one or more square matrices of equal size")
    seed = np.concatenate([gens, adjoint(gens)])
    return _graded_closure([seed], gens.shape[1], [seed])[0]


class AntiLinearOp:
    """Anti-linear operator v -> K conj(v), stored through its kernel K.

    For an invertible kernel the inverse is w -> conj(K^-1 w), so for
    unitary K the conjugation J m J^-1 of a linear operator m is the
    linear operator with matrix K conj(m) K^adj.  When the kernel also
    satisfies K conj(K) = eps 1 (the sign of J^2), this coincides with
    eps K conj(m) conj(K), since conj(K) = eps K^adj there.
    """

    def __init__(self, kernel):
        k = as_cmatrix(kernel)
        if k.shape[0] != k.shape[1]:
            raise ValueError("kernel must be square")
        self.kernel = k
        # K as a gather: K[i, perm[i]] = units[i], every other entry 0 (see conjugate)
        nonzero, n = k != 0, len(k)
        perm = np.argmax(nonzero, axis=1)
        units = k[np.arange(n), perm]
        monomial = (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all()
        self._gather = None
        if monomial and np.isin(units, (1, -1, 1j, -1j)).all():
            self._gather = ((perm[:, None] * n + perm).ravel(), np.outer(units, units.conj()))

    @property
    def dim(self) -> int:
        return self.kernel.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.kernel @ np.conj(np.asarray(v, dtype=complex))

    def apply_inverse(self, w: np.ndarray) -> np.ndarray:
        # conj(K^-1 w) with K^-1 = K^adj for unitary kernels
        return np.conj(adjoint(self.kernel) @ np.asarray(w, dtype=complex))

    def conjugate(self, m: np.ndarray) -> np.ndarray:
        """Matrix of the linear operator J m J^-1 (of each matrix of a stack).

        That is (K conj(m)) K^adj, two dense n^3 products, unless K is a
        monomial matrix whose nonzero entries c_i = K[i, perm[i]] are units
        1, -1, i or -i (every kernel of the presets is a permutation).  Then
        entry (i, j) of the two products is c_i conj(m)[perm[i], perm[j]]
        conj(c_j), one gather of conj(m) and one scaling, which cost n^2.
        Multiplying by a unit only negates or swaps real and imaginary parts,
        and each entry of the dense products has one nonzero term, the rest
        exact zeros.  So both ways form every entry without rounding (the
        BLAS complex product is built from four real ones, with or without
        fused multiply-adds), and the result is the dense one bit for bit, up
        to the sign of a zero.  Any other phase makes the dense products
        round in an order the BLAS kernel chooses (a gather differs from them
        by up to an ulp), so such a kernel keeps the dense products.
        """
        m = np.asarray(m, dtype=complex)
        if self._gather is None:
            return self.kernel @ np.conj(m) @ adjoint(self.kernel)
        flat, scale = self._gather
        out = np.take(m.reshape(-1, flat.size), flat, axis=1).reshape(m.shape)
        np.conjugate(out, out=out)
        out *= scale
        return out

    def unitarity_residual(self) -> float:
        k = self.kernel
        return op_norm(adjoint(k) @ k - np.eye(self.dim))

    def __repr__(self) -> str:  # pragma: no cover
        return f"AntiLinearOp(dim={self.dim})"
