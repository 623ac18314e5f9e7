"""Rational-parameter matrix fibers of the toric 3- and 4-spheres.

Base points carry the angles and a pair of unit torus coordinates; at
rational phase p/q every sphere polynomial evaluates into M_q through

    alpha -> (cos chi [cos psi]) z1 R1      beta -> (sin chi [cos psi]) z2 R2
    x     -> (sin psi) 1                    (4-sphere only)

with (R1, R2) the clock/shift pair.  The 3-sphere is the psi = 0 slice,
so both spheres share one evaluator, which fills a stack of base points
at once through :func:`~ncgauge.torus.monomial_sum`, as ``torus_rep``
does: a word S^a C^b is the phase row zeta^(b j) on the a-th cyclic
off-diagonal, and ``torus.word_layout`` keeps those rows and cells per
(p, q).  A base point's stratum is read off from which radii vanish; its
fiber is the algebra generated by the evaluated generators.  Each is a
scaled word S^a C^b, read against the same layout, and as gcd(p, q) = 1
the q^2 words are orthogonal with norm^2 q and a product of two is a
scaled word, so the fiber is spanned by the words of the subgroup H of
(Z/q)^2 that the degrees of the nonzero generators generate, and its
dimension is |H| (Rieffel, Pacific J. Math. 93, 1981): q^2 inside, q on
an edge and 1 at the pole.  The stratum scan computes |H| at two torus
points per stratum, checking on the evaluated data that each letter is a
scaled word and that the words of H are orthogonal; profile rows carry
that law.  The norm at a point
is taken at z = (1, 1), which equals the max over the q*q root-of-unity
torus coordinates (unitarily equivalent evaluations).  It thus samples one
class of irreducible representations and misses the fiber norm when net
degrees collide mod q: ``a^2 - 1`` at q = 2 reads 0 where the sup is 2.

The numbers produced here are rational shadows: the irrational-phase
fibers are infinite-dimensional algebras this module cannot represent,
and the grid statistics are continuity evidence, not proofs.  Reports
carry those scope labels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import islice, product

import numpy as np

from .linalg import op_norm
from .reporting import SCOPE_CONTINUITY, SCOPE_RATIONAL, CheckRecord, Report
from .spheres import SphereElement
from .torus import (
    BadParameters,
    ModeMismatch,
    PhasePolynomial,
    check_unit,
    clock_shift,
    monomial_sum,
    rational_mode,
    word_layout,
)

__all__ = [
    "NotAWord",
    "BasePoint3",
    "BasePoint4",
    "stratum3",
    "stratum4",
    "s3_eval",
    "s4_eval",
    "s3_fiber_dimension",
    "s4_fiber_dimension",
    "fiber_norm3",
    "fiber_norm4",
    "norm_profile",
    "jump_verdict",
    "jump_record",
    "stratum_scan",
]

_RADIUS_TOL = 1e-12
_WORD_TOL = 1e-9  # entrywise distance of a letter from its scaled word
_FLAT_JUMP = 1e-12
_JUMP_BAND = (0.3, 0.7)  # the fine/coarse jump ratios that count as continuous, around 1/2
_MAX_GRID_POINTS = 10 ** 6  # norm_profile's fine grid (step h/2) over all its angles


class NotAWord(ArithmeticError):
    """An evaluated fiber letter is no scaled clock/shift word, or H's words are not orthogonal."""


def _validate(pt, **angles: float) -> None:
    """Angles in [0, pi/2]; the torus coordinates become unit complex numbers."""
    for name, v in angles.items():
        if not 0.0 <= v <= math.pi / 2:
            raise ValueError(f"{name} = {v} outside [0, pi/2]")
    object.__setattr__(pt, "z1", check_unit(pt.z1))
    object.__setattr__(pt, "z2", check_unit(pt.z2))


@dataclass(frozen=True)
class BasePoint3:
    """Angle chi in [0, pi/2] plus torus coordinates: the psi = 0 slice of the 4-sphere."""

    chi: float
    z1: complex = 1.0
    z2: complex = 1.0

    def __post_init__(self):
        _validate(self, chi=self.chi)

    @property
    def radii(self) -> tuple[float, float]:
        return (math.cos(self.chi), math.sin(self.chi))

    @property
    def rsx(self) -> tuple[float, float, float]:
        return self.radii + (0.0,)


@dataclass(frozen=True)
class BasePoint4:
    """Angles (chi, psi) in [0, pi/2]^2 with (r, s, x) derived."""

    chi: float
    psi: float
    z1: complex = 1.0
    z2: complex = 1.0

    def __post_init__(self):
        _validate(self, chi=self.chi, psi=self.psi)

    @property
    def rsx(self) -> tuple[float, float, float]:
        return (math.cos(self.chi) * math.cos(self.psi),
                math.sin(self.chi) * math.cos(self.psi),
                math.sin(self.psi))


BasePoint = BasePoint3 | BasePoint4


def _stratum(pt: BasePoint, q: int) -> tuple[str, int]:
    """Label and fiber dimension, read off from which radii vanish.

    Both vanish only at the 4-sphere pole: cos chi and sin chi never do.
    """
    r, s, _ = pt.rsx
    r0 = abs(r) < _RADIUS_TOL
    s0 = abs(s) < _RADIUS_TOL
    if r0 and s0:
        return "Pole", 1
    if s0:
        return "EdgeAlpha", q
    if r0:
        return "EdgeBeta", q
    return "Interior", q * q


stratum3 = stratum4 = _stratum  # one law on both spheres: the 3-sphere is the psi = 0 slice


def _check_element(e: PhasePolynomial, p: int, q: int, which: str = "s4") -> None:
    if e.mode != rational_mode(p, q):
        raise ModeMismatch(f"element mode {e.mode} does not match ({p}, {q})")
    if which == "s3" and e.uses_x:
        raise BadParameters("3-sphere elements cannot contain the x letter")


def _evaluate(e: SphereElement, rsx: list[tuple[float, float, float]],
              z1: complex, z2: complex, p: int, q: int) -> np.ndarray:
    """The (m, q, q) stack of evaluations at m radii triples and one torus point.

    Per-point term scalars are Python float products (numpy's vector
    power rounds differently), so each matrix is bit for bit a stack of one.
    """
    def terms():
        for (a, ap, b, bp, c), coeff in e.terms.items():
            w, w1, w2 = coeff.value(), z1 ** (a - ap), z2 ** (b - bp)
            yield (a - ap, b - bp), [w * r ** (a + ap) * s ** (b + bp) * x ** c * w1 * w2
                                     for r, s, x in rsx]

    return monomial_sum(terms(), q, p, (len(rsx),))


def s3_eval(e: SphereElement, pt: BasePoint3, p: int, q: int) -> np.ndarray:
    """Evaluate a 3-sphere polynomial at a base point; x-letters are rejected."""
    _check_element(e, p, q, "s3")
    return _evaluate(e, [pt.rsx], pt.z1, pt.z2, p, q)[0]


def s4_eval(e: SphereElement, pt: BasePoint4, p: int, q: int) -> np.ndarray:
    _check_element(e, p, q, "s4")
    return _evaluate(e, [pt.rsx], pt.z1, pt.z2, p, q)[0]


def _fiber_dim(pt: BasePoint, p: int, q: int) -> int:
    """|H|, the order of the word group the evaluated letters generate, checked on the letters.

    The word S^a C^b carries zeta^(b j) at [j + a, j], on the a-th cyclic
    off-diagonal: the phases and cells of ``torus.word_layout``, the tables
    :func:`~ncgauge.torus.monomial_sum` writes words with.  Each letter
    (r z1 R1, s z2 R2 and x 1, with the pair from ``clock_shift``) is read as
    c S^a C^b, (a, b, c) its largest coordinate in the words, and must lie
    within ``_WORD_TOL`` of c S^a C^b in every entry.  Letters with
    |c| < ``_RADIUS_TOL`` are dropped (at chi = pi/2, r = 6e-17), and the
    degrees (a, b) of the rest and the unit's (0, 0) generate H in
    (Z/q)^2.  A product or adjoint of scaled words is a scaled word, so the
    algebra is the span of the words of H, and its dimension is |H| when
    they are orthogonal with norm^2 q.  Words on different off-diagonals
    are.  The b's of H on one off-diagonal are a coset of its b's on the
    diagonal, whose clock columns zeta^(b j) have the same Gram matrix, so
    that one (at most q x q) Gram matrix must be within q ``_WORD_TOL`` of
    q 1.  All of it is O(q^3).  Raises :class:`NotAWord` when a letter is
    not a scaled word or the Gram matrix has a defect.
    """
    r1, r2 = clock_shift(q, p)
    phases, cells = word_layout(q, p)
    r, s, x = pt.rsx
    letters = np.stack([r * pt.z1 * r1, s * pt.z2 * r2, x * np.eye(q, dtype=complex)])
    diagonals = letters.reshape(3, q * q)[:, cells]  # [l, a, j] = letters[l, j + a, j]
    coords = diagonals @ phases.T.conj() / q  # [l, a, b] = <S^a C^b, letters[l]> / q
    a, b = np.unravel_index(np.abs(coords).reshape(len(letters), -1).argmax(axis=1), (q, q))
    c = coords[range(len(letters)), a, b]
    diagonals[range(len(letters)), a] -= c[:, None] * phases[b]
    if (resid := np.abs(diagonals).max()) > _WORD_TOL:
        raise NotAWord(f"a fiber letter is {resid:.3e} from its scaled word")
    kept = (abs(c) >= _RADIUS_TOL) & ((a > 0) | (b > 0))  # the unit's (0, 0) is in H already
    group = {(0, 0)}
    for da, db in zip(a[kept].tolist(), b[kept].tolist()):  # H gains the multiples of (da, db)
        group = {((u + i * da) % q, (v + i * db) % q) for u, v in group for i in range(q)}
    clock = phases[[v for u, v in group if u == 0]]  # each off-diagonal's b's: a coset of these
    if (defect := np.abs(clock @ clock.conj().T - q * np.eye(len(clock))).max()) > q * _WORD_TOL:
        raise NotAWord(f"the words of H have a Gram defect {defect:.3e}")
    return len(group)


def s3_fiber_dimension(chi: float, p: int, q: int,
                       z1: complex = 1.0, z2: complex = 1.0) -> int:
    """Dimension of the algebra generated by the evaluated generators: |H| of their word group.

    Read from the given data, including the torus coordinates, so
    independence from z is a checkable statement rather than a baked-in
    assumption: each evaluated letter must be a scaled word and the words
    of H orthogonal (``_fiber_dim``), else :class:`NotAWord` is raised.
    """
    return _fiber_dim(BasePoint3(chi, z1, z2), p, q)


def s4_fiber_dimension(chi: float, psi: float, p: int, q: int,
                       z1: complex = 1.0, z2: complex = 1.0) -> int:
    return _fiber_dim(BasePoint4(chi, psi, z1, z2), p, q)


# (1, 1) stands for the q^2 roots of unity; (e^i, e^{i sqrt 2}) is one for no q
_CLASS_POINTS = ((1 + 0j, 1 + 0j), (cmath.exp(1j), cmath.exp(1j * math.sqrt(2))))


def fiber_norm3(e: SphereElement, chi: float, p: int, q: int) -> float:
    """Evaluation norm at z = (1, 1), which is the max over the q^2 root-of-unity points.

    Multiplying z1 or z2 by a q-th root of unity conjugates the evaluation
    by a clock/shift power, so those q^2 evaluations share one norm.
    """
    return op_norm(s3_eval(e, BasePoint3(chi), p, q))


def fiber_norm4(e: SphereElement, chi: float, psi: float, p: int, q: int) -> float:
    return op_norm(s4_eval(e, BasePoint4(chi, psi), p, q))


def _sphere(which: str):
    """(base point class, fiber dimension) of a sphere, each taking the angles."""
    if which == "s3":
        return BasePoint3, s3_fiber_dimension
    if which == "s4":
        return BasePoint4, s4_fiber_dimension
    raise ValueError("which must be 's3' or 's4'")


def _grid_count(h: float, angles: int) -> int:
    """Coarse grid intervals n per angle: the one check of a grid step.

    The fine grid has (2n + 1)^angles points; more than ``_MAX_GRID_POINTS``
    is rejected before anything is allocated.
    """
    if not (math.isfinite(h) and h > 0):
        raise BadParameters("grid step must be a positive finite number")
    n = max(1, round(min((math.pi / 2) / h, _MAX_GRID_POINTS)))
    if (2 * n + 1) ** angles > _MAX_GRID_POINTS:
        raise BadParameters(f"grid step {h:g} needs more than {_MAX_GRID_POINTS} grid points")
    return n


def _max_jump(values: np.ndarray) -> float:
    return float(max(np.abs(np.diff(values, axis=0)).max(initial=0.0),
                     np.abs(np.diff(values, axis=1)).max(initial=0.0)))


def _jump_stats(h: float, fine: np.ndarray, points: int) -> dict:
    big = _max_jump(fine[::2, ::2])
    small = _max_jump(fine)
    ratio = small / big if big > 0 else (0.0 if small == 0 else None)
    return {"h": h, "points": points, "max_jump": big,
            "max_jump_half_step": small, "jump_ratio": ratio}


def norm_profile(e: SphereElement, h: float, p: int, q: int,
                 which: str = "s3") -> tuple[list[dict], dict]:
    """Fiber norms over an angle grid, with a two-resolution jump statistic.

    Returns (rows, stats).  Rows carry the base coordinates, the norm,
    the stratum label and its fiber dimension at step h; the 3-sphere is
    the single psi = 0 column.  The norms are those of ``fiber_norm3/4``,
    one stack of evaluations and one batched SVD per fine-grid chi row
    (the whole column on the 3-sphere), so memory stays at one row at any
    h.  The fiber dimension is the stratum law of ``stratum3/4``, the
    order |H| of the word group that :func:`stratum_scan` computes and
    checks; no fiber dimension is computed here.  Stats holds the maximal
    adjacent norm jump at steps h and h/2 (the fine grid contains the
    coarse one exactly) and their ratio, ``None`` when only the coarse jump
    is 0; jumps shrinking roughly in half is continuity evidence, a ratio
    near 1 flags a discontinuity.
    """
    point, _ = _sphere(which)
    _check_element(e, p, q, which)
    names = ("chi", "psi") if which == "s4" else ("chi",)
    n = _grid_count(h, len(names))
    angles = np.linspace(0.0, math.pi / 2, 2 * n + 1)
    psis = angles if which == "s4" else angles[:1]
    # the radii exactly as BasePoint4.rsx forms them; psi = 0 gives BasePoint3's
    trig = [(math.cos(a), math.sin(a)) for a in angles.tolist()]
    radii = ((c1 * c2, s1 * c2, s2) for c1, s1 in trig for c2, s2 in trig[:len(psis)])
    fine = np.empty((len(angles), len(psis)))
    for row in fine.reshape(-1, len(angles)):  # a chi row on s4, the whole column on s3
        stack = _evaluate(e, list(islice(radii, len(angles))), 1 + 0j, 1 + 0j, p, q)
        row[:] = np.linalg.svd(stack, compute_uv=False)[:, 0]
    rows = []
    for i, j in product(range(0, 2 * n + 1, 2), range(0, len(psis), 2)):
        coords = (float(angles[i]), float(psis[j]))[:len(names)]
        pt = point(*coords)
        label, dim = _stratum(pt, q)
        rows.append({**dict(zip(names, coords)), **dict(zip("rsx", pt.rsx)),
                     "norm": float(fine[i, j]), "stratum": label, "fiber_dim": dim})
    return rows, _jump_stats(h, fine, len(rows))


def jump_verdict(stats: dict) -> tuple[bool, float]:
    """Pass flag and residual |ratio - 1/2| of a two-resolution jump statistic.

    It passes when the ratio lies in ``_JUMP_BAND``, [0.3, 0.7].  A flat
    profile jumps only by float noise and passes with residual 0.  When
    only the coarse profile is flat the ratio is undefined (``None``);
    its coarse jump is at most ``_FLAT_JUMP``, so the ratio would be at
    least ``max_jump_half_step / _FLAT_JUMP``, and that finite lower bound
    gives the (failing) residual.
    """
    if stats["max_jump"] <= _FLAT_JUMP and stats["max_jump_half_step"] <= _FLAT_JUMP:
        return True, 0.0
    ratio = stats["jump_ratio"]
    if ratio is None:
        ratio = stats["max_jump_half_step"] / _FLAT_JUMP
    lo, hi = _JUMP_BAND
    return lo <= ratio <= hi, abs(ratio - 0.5)


def jump_record(name: str, stats: dict) -> CheckRecord:
    """The jump-halving record of a two-resolution statistic, by :func:`jump_verdict`.

    Its tolerance is the largest residual the band [lo, hi] = ``_JUMP_BAND`` lets pass,
    and the record is fixed: ``--tol`` does not replace the band.
    """
    ok, resid = jump_verdict(stats)
    lo, hi = _JUMP_BAND
    return CheckRecord(name, "halving the grid step roughly halves the largest adjacent "
                       "norm jump", resid, max(hi - 0.5, 0.5 - lo), ok, SCOPE_CONTINUITY,
                       fixed=True)


def stratum_scan(p: int, q: int, which: str = "s3") -> Report:
    """Fiber dimensions per stratum from the word group, at two torus coordinates each.

    A representative angle per stratum is read at z = (1, 1) and at
    (e^i, e^{i sqrt 2}), a root of unity for no q, by
    ``s3/s4_fiber_dimension``: each evaluated letter must be a scaled
    clock/shift word and the words of the group H their degrees generate
    must be orthogonal; the dimension |H| must then match the stratum law
    at both points.  When the letters fail the word check
    (:class:`NotAWord`) the record fails and its ``dims`` entry is empty;
    nothing is closed numerically.  The two stand for every torus
    coordinate: z_i -> w z_i scales the letter z_i R_i by the unit w, which
    never changes its word.  At the q^2 roots of unity it is a unitary
    conjugation, R2 R1 R2^-1 = zeta R1 and R1^-1 R2 R1 = zeta R2
    (zeta = e^{2 pi i p/q}): those are one class.
    """
    rep = Report(f"strata[{which},p={p},q={q}]", context={
        "p": p, "q": q,
        "scope_note": "rational-parameter shadow: at irrational parameter the "
                      "interior fibers are infinite-dimensional and cannot be "
                      "represented here; only the rational dimensions are computed",
    })
    point, fiber_dimension = _sphere(which)
    interior = math.pi / 4
    cases = {
        "s3": [("EdgeAlpha", (0.0,)), ("EdgeBeta", (math.pi / 2,)), ("Interior", (interior,))],
        "s4": [("EdgeAlpha", (0.0, interior)), ("EdgeBeta", (math.pi / 2, interior)),
               ("Interior", (interior, interior)), ("Pole", (interior, math.pi / 2))],
    }[which]
    dims = {}
    for label, angles in cases:
        got_label, want = _stratum(point(*angles), q)
        try:
            seen = {fiber_dimension(*angles, p, q, z1=z1, z2=z2) for z1, z2 in _CLASS_POINTS}
        except NotAWord:  # no dimension is read: the record fails
            seen = set()
        dims[label] = sorted(seen)
        rep.add(CheckRecord.identity(
            f"stratum-{label}", f"the {label} fiber dimension is {want} at every torus coordinate",
            seen == {want} and got_label == label, True, SCOPE_RATIONAL))
    rep.context["dims"] = dims
    return rep
