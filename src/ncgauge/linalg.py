"""Dense complex linear algebra kernels shared by every other module.

Conventions
-----------
* Matrices are plain ``numpy`` arrays with ``complex`` dtype.
* Every subspace computation runs in the trace inner product
  ``<a, b> = tr(a^* b)``.  Row-major vectorisation is an isometry from
  matrix space to ``C^(r*c)`` for this inner product, so orthonormal
  bases, projections and nullspaces all reduce to SVD calls on stacked
  vectorised matrices.
* Anti-linear operators are never stored as "matrices of an anti-linear
  map".  Only the unitary kernel ``K`` of ``v -> K conj(v)`` is kept,
  and operator identities are rewritten as linear matrix identities in
  ``K`` before they are evaluated (see :class:`AntiLinearOp`).

Tolerance ladder: construction-level identities are expected to hold at
``TOL_CONSTRUCT`` and identities that chain a few operations at
``TOL_DERIVED``.
"""

from __future__ import annotations

import numpy as np

TOL_CONSTRUCT = 1e-10
TOL_DERIVED = 1e-8
_CLOSURE_RTOL = 1e-9  # singular-value cut of every closure round

__all__ = [
    "TOL_CONSTRUCT",
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


def max_op_norm(blocks, tracks: int | None = None):
    """Exact max of ``op_norm`` over a sequence of matrix stacks, with its place.

    ``blocks`` yields stacks of matrices (arrays of shape (k, r, c)), for
    example one row block of a pairwise table at a time.  Returns the
    largest spectral norm and ``(b, i)``, where matrix i of block b attains
    it, or ``(0.0, None)`` when there is no matrix at all.  With ``tracks``
    set to t, each block is a tuple of t stacks and a list of t such pairs
    comes back, one per tuple position: several maxima from one pass, so
    blocks that share their costly part are built once.

    The Frobenius norm bounds the spectral norm from above, so each block is
    visited in descending Frobenius order and left as soon as the next
    Frobenius norm is at most the best spectral norm found so far: nothing
    after it can be larger.  Only the matrices that could still win get an
    SVD, and the value is the same ``op_norm`` the unscreened max computes.
    """
    best = [[-1.0, None] for _ in range(tracks or 1)]
    for b, stacks in enumerate(blocks):
        for track, stack in zip(best, stacks if tracks else (stacks,)):
            stack = np.asarray(stack)
            fro = np.linalg.norm(stack, axis=(-2, -1))
            for i in np.argsort(-fro, kind="stable"):
                if fro[i] * _SCREEN_SLACK <= track[0]:
                    break
                value = op_norm(stack[i])
                if value > track[0]:
                    track[:] = value, (b, int(i))
    found = [(max(value, 0.0), where) for value, where in best]
    return found if tracks else found[0]


def commutator_map_norm(p: np.ndarray, stack: np.ndarray) -> float:
    """Norm of x -> [p, x] on the span of an orthonormal stack, Frobenius to Frobenius.

    The map's matrix has the rows vec([p, s_k]).  Another orthonormal basis
    of the span multiplies it from the left by a unitary, so the norm does
    not depend on which basis the stack holds.
    """
    return op_norm(commutator(p, stack).reshape(len(stack), np.size(p)))


def pair_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every product a[i] @ b[j] of two matrix stacks, vectorised as row i len(b) + j."""
    return (a[:, None] @ b[None]).reshape(len(a) * len(b), a.shape[1] * b.shape[2])


def _orthonormal_rows(stack: np.ndarray, rtol: float = 1e-10, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of ``stack``.

    The one SVD and rank rule behind every span: singular values below
    ``max(rtol * s_max, floor)`` are treated as zero.  A real stack keeps
    real rows; anything else is complex.  A stack whose Frobenius norm is
    at most ``floor > 0`` has rank 0 without an SVD: s_max never exceeds
    the Frobenius norm.
    """
    stack = np.atleast_2d(np.asarray(stack, dtype=float if np.isrealobj(stack) else complex))
    if stack.size == 0 or (floor > 0 and np.linalg.norm(stack) <= floor):
        return np.zeros((0, stack.shape[-1]), dtype=stack.dtype)
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    cut = max(rtol * s[0], floor)
    rank = int(np.sum(s > cut))
    return vh[:rank]


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
    resid = (rows @ stack.conj().T) @ stack
    np.subtract(rows, resid, out=resid)  # in place: one rows-sized temporary, not two
    if floor > 0 and np.linalg.norm(resid) <= floor:
        return resid[:0]
    resid -= (resid @ stack.conj().T) @ stack  # in place: the second pass adds no rows-sized result
    return _orthonormal_rows(resid, rtol, floor)


class Subspace:
    """Complex-linear span of matrices, orthonormal in the trace inner product.

    The span is stored as orthonormal rows, one vectorised matrix each, and
    its basis is read as one (dim, r, c) stack.  ``_vec`` (matrix to row)
    and ``_mat`` (row to matrix) are the only field-specific code; see
    :class:`RealSpan`.  Both act on the last two (one) axes, so
    :meth:`coordinates`, :meth:`project` and :meth:`residual` also take a
    stack of matrices.
    """

    def __init__(self, stack: np.ndarray, shape: tuple[int, int]):
        self._stack = np.asarray(stack)
        self.shape = shape

    @staticmethod
    def _vec(m: np.ndarray) -> np.ndarray:
        *lead, r, c = np.shape(m)
        return np.reshape(m, (*lead, r * c))

    def _mat(self, row: np.ndarray) -> np.ndarray:
        return row.reshape(row.shape[:-1] + self.shape)

    @classmethod
    def from_spanning(cls, mats, shape: tuple[int, int] | None = None, rtol: float = 1e-10) -> "Subspace":
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
        field = RealSpan if issubclass(cls, RealSpan) else Subspace
        return field(_orthonormal_rows(cls._vec(mats), rtol), mats.shape[1:])

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
        """Frobenius distance from the span of a matrix, or of each matrix of a stack."""
        m = np.asarray(m, dtype=complex)
        return np.linalg.norm(m - self.project(m), axis=(-2, -1))

    def contains(self, m: np.ndarray, tol: float = TOL_DERIVED) -> bool:
        return bool(self.residual(m) <= tol * max(1.0, frobenius(m)))

    def union(self, other: "Subspace", rtol: float = 1e-10) -> "Subspace":
        """The span of both, as a plain span of their field (also for subclasses)."""
        field = RealSpan if isinstance(self, RealSpan) else Subspace
        if isinstance(other, RealSpan) is not (field is RealSpan) or other.shape != self.shape:
            raise ValueError("spans differ in field or shape")
        stack = np.vstack([self._stack, other._stack])
        return field(_orthonormal_rows(stack, rtol), self.shape)

    def intersection_dim(self, other: "Subspace") -> int:
        return self.dim + other.dim - self.union(other).dim


class RealSpan(Subspace):
    """Real-linear span of complex matrices, orthonormal in Re tr(a^* b).

    Needed for skew-hermitian and gauge Lie algebra spans, which are real
    vector spaces not closed under multiplication by i.  A matrix becomes
    the real row (Re vec, Im vec), an isometry from Re tr(a^* b) to the
    real dot product, so the rows and coordinates are real.
    """

    # its own entry, not inherited: tracers look the classmethod up in vars(RealSpan)
    from_spanning = classmethod(Subspace.from_spanning.__func__)

    @staticmethod
    def _vec(m: np.ndarray) -> np.ndarray:
        v = Subspace._vec(m)
        return np.concatenate([v.real, v.imag], axis=-1)

    def _mat(self, row: np.ndarray) -> np.ndarray:
        n = row.shape[-1] // 2
        return super()._mat(row[..., :n] + 1j * row[..., n:])


def nullspace(domain_basis, images, rcond: float = 1e-9, floor: float = 0.0) -> Subspace:
    """Nullspace of a linear map given on an orthonormal basis of its domain.

    ``domain_basis`` is an orthonormal family of matrices and ``images[i]``
    is the image of ``domain_basis[i]`` (any array; it is only ravelled).
    A combination v = sum c_i e_i is kept when ||L(v)|| falls below
    ``max(rcond * s_max, floor)``, where s_max is the largest singular
    value of L: a relative threshold ||L(v)|| < rcond * ||L|| * ||v||, and
    an absolute one for a map whose natural scale is known, so that a map
    that is zero up to rounding has the whole domain as its nullspace.
    Rank plus nullity equals the domain dimension by construction.

    The coefficient nullspace is the complement of the row space R of
    a^H, where a stacks the ravelled images as rows: the rows of
    I - R^H R span it, and that matrix is a projector, so its singular
    values are 1 on the nullspace and float noise elsewhere.  Only d x d
    and r x M factors are formed, never an M x M one.
    """
    domain, images = np.asarray(domain_basis, dtype=complex), np.asarray(images, dtype=complex)
    if len(domain) != len(images):
        raise ValueError("domain basis and image list disagree in length")
    if not len(domain):
        raise ValueError("empty domain")
    r = _orthonormal_rows(images.reshape(len(images), -1).conj().T, rcond, floor)
    # the absolute floor drops the noise rows an injective map leaves
    coeffs = _orthonormal_rows(np.eye(len(domain)) - r.conj().T @ r, 0.5, floor=0.5)
    # orthonormal coefficient rows against an orthonormal domain basis
    # give orthonormal nullspace matrices, no re-orthonormalisation needed
    return Subspace(coeffs @ domain.reshape(len(domain), -1), domain.shape[1:])


def _graded_closure(seeds: list[np.ndarray], n: int,
                    left: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Orthonormal row stacks of the smallest graded span containing the seed
    that the left letters map into itself.

    ``seeds[g]`` and ``left[g]`` are stacks of n x n matrices of grade g, for
    k = len(seeds) grades; a product of grades x and y lands in grade
    (x + y) mod k.  With W_0 = span seed and W_{j+1} = W_j + L W_j, the rows
    new at step j only need multiplying on the left by the letters L (the
    orthonormalised rows L_x of each grade x), one letter at a time.  At the
    fixed point L W ⊆ W: W is the smallest L-invariant span containing the
    seed, a left module over the algebra the letters generate.  ``left``
    left out means L = S, the seed itself, and then W is the word closure:
    W is spanned by words in S, so S W ⊆ W gives W W ⊆ W, the algebra S
    generates.  That costs |L| products per new row, not one per row of W.
    A grade that already holds n^2 rows takes no more products, and the
    loop ends once no grade gains a row or every grade is full.

    Cut: the seed rows are orthonormalised with singular values kept above
    1e-9 times the largest; after that every product is of two Frobenius-
    orthonormal rows, so a new direction is kept when its singular value
    exceeds 1e-9 absolutely (and 1e-9 relative to its round's residual).
    """
    k, full = len(seeds), n * n
    stacks = fresh = [_orthonormal_rows(np.reshape(s, (-1, full)), _CLOSURE_RTOL) for s in seeds]
    letters = stacks if left is None else [
        _orthonormal_rows(np.reshape(s, (-1, full)), _CLOSURE_RTOL) for s in left]
    letters = [s.reshape(-1, n, n) for s in letters]
    while min(len(s) for s in stacks) < full and any(len(f) for f in fresh):
        words = [f.reshape(-1, n, n) for f in fresh]
        fresh = [stack[:0] for stack in stacks]
        for g in range(k):
            for x in range(k):
                for letter in letters[x]:
                    if len(stacks[g]) == full:
                        break
                    # one letter at a time: each SVD sees one letter's rows, and a
                    # letter whose products are already in the span costs no SVD
                    prods = pair_products(letter[None], words[(g - x) % k])
                    new = _extend_rows(stacks[g], prods, _CLOSURE_RTOL, _CLOSURE_RTOL)
                    if len(new):
                        stacks[g] = np.vstack([stacks[g], new])
                        fresh[g] = np.vstack([fresh[g], new])
    return stacks


def generated_algebra(generators, include_unit: bool = False) -> Subspace:
    """Smallest product- and adjoint-closed span containing the generators.

    Closure under products of an adjoint-closed spanning set is
    automatically adjoint-closed, so the seed is generators plus their
    adjoints (plus the identity when requested) and the closure only
    multiplies: the ungraded (k = 1) case of the graded closure kernel.
    """
    gens = np.asarray(generators, dtype=complex)  # mixed shapes raise here
    if gens.ndim != 3 or not len(gens) or gens.shape[1] != gens.shape[2]:
        raise ValueError("generators must be one or more square matrices of equal size")
    n = gens.shape[1]
    seed = [gens, adjoint(gens)] + ([np.eye(n, dtype=complex)[None]] if include_unit else [])
    return Subspace(_graded_closure([np.concatenate(seed)], n)[0], (n, n))


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

    @property
    def dim(self) -> int:
        return self.kernel.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.kernel @ np.conj(np.asarray(v, dtype=complex))

    def apply_inverse(self, w: np.ndarray) -> np.ndarray:
        # conj(K^-1 w) with K^-1 = K^adj for unitary kernels
        return np.conj(adjoint(self.kernel) @ np.asarray(w, dtype=complex))

    def conjugate(self, m: np.ndarray) -> np.ndarray:
        """Matrix of the linear operator J m J^-1 (of each matrix of a stack)."""
        return self.kernel @ np.conj(np.asarray(m, dtype=complex)) @ adjoint(self.kernel)

    def unitarity_residual(self) -> float:
        k = self.kernel
        return op_norm(adjoint(k) @ k - np.eye(self.dim))

    def is_isometry(self, tol: float = TOL_CONSTRUCT) -> bool:
        return self.unitarity_residual() <= tol

    def square_sign(self) -> tuple[int, float]:
        """Best sign eps and the residual of K conj(K) = eps 1."""
        kk = self.kernel @ np.conj(self.kernel)
        eye = np.eye(self.dim)
        r_plus = op_norm(kk - eye)
        r_minus = op_norm(kk + eye)
        return (1, r_plus) if r_plus <= r_minus else (-1, r_minus)

    def __repr__(self) -> str:  # pragma: no cover
        return f"AntiLinearOp(dim={self.dim})"
