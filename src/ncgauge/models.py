"""Canonical finite models and the config/preset loading layer.

Three families:

* ``hs`` -- A = M_N acting by left multiplication on H = M_N (row-major
  vec), D = L_M + R_M for a random normalized hermitian M, J = the
  adjoint flip xi -> xi*.  All axioms hold with eps = eps' = +1.
* ``ym`` -- k copies of the hs block over a k-point base, with an
  optional hopping matrix putting identity transporters between blocks.
* ``orbifold`` -- the algebra of Z/q-equivariant matrix functions on
  q*m points, conjugation-twisted by the shift; algebra-level only.

Hopping caveat, recorded here because it is easy to get wrong: a nonzero
hopping term breaks the order-one condition.  For hermitian a, b
supported on single points x != y, the off-diagonal block of
[[D, pi(a)], Jb*J^-1] is lam_xy (L_{a_y} - L_{a_x})(R_{b_y} - R_{b_x}),
which cannot vanish for all a, b unless lam_xy = 0; a left
multiplication commutes with every right multiplication, but the two
blocks of Jb*J^-1 carry DIFFERENT right factors.  A complex hopping
additionally breaks JD = DJ (the flip conjugates the transporter
coefficient), so only real symmetric hopping keeps the sign axiom.  The
default is hopping = 0 so the builders pass the axiom suite; nonzero
hopping is allowed and produces honest failure records downstream.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .linalg import AntiLinearOp, adjoint, as_cmatrix, op_norm
from .reporting import SCOPE_FINITE, CheckRecord, Report
from .staralg import FiniteStarAlgebra, block_diagonal_algebra, center, diagonal_algebra, full_matrix_algebra
from .spectral import RealSpectralTriple, SpectralInputError, transpose_permutation
from .torus import BadParameters, clock_shift

__all__ = [
    "BadHopping",
    "BadModelSpec",
    "build_hs_model",
    "build_finite_ym",
    "build_orbifold_algebra",
    "model_from_string",
    "triple_from_config",
    "load_model",
    "TRIPLE_SCHEMA_TAG",
]

TRIPLE_SCHEMA_TAG = "ncgauge.triple/1"


class BadHopping(ValueError):
    """Hopping matrix is not hermitian with zero diagonal."""


class BadModelSpec(ValueError):
    """Unparsable preset string or config document."""


def _random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = (m + adjoint(m)) / 2
    nrm = op_norm(m)
    return m / nrm if nrm > 0 else m


def build_hs_model(n: int, seed: int = 0) -> RealSpectralTriple:
    """Matrix algebra on matrix space with the two-sided Dirac operator: the one-point ym model."""
    triple = build_finite_ym(1, n, seed=seed)
    triple.label = f"hs(N={n},seed={seed})"
    return triple


def _check_hopping(hopping: np.ndarray, k: int) -> np.ndarray:
    lam = as_cmatrix(hopping)
    if lam.shape != (k, k):
        raise BadHopping(f"hopping must be {k}x{k}, got {lam.shape}")
    if not np.isfinite(lam).all():
        raise BadHopping("hopping entries must be finite")
    if op_norm(lam - adjoint(lam)) > 1e-12:
        raise BadHopping("hopping matrix must be hermitian")
    if np.max(np.abs(np.diag(lam))) > 1e-12:
        raise BadHopping("hopping diagonal must vanish")
    return lam


def build_finite_ym(k: int, n: int, hopping=None, seed: int = 0) -> RealSpectralTriple:
    """k-point base with fiber M_n; see the module docstring for hopping."""
    if k < 1 or n < 1:
        raise BadModelSpec(f"k and n must be >= 1, got ({k}, {n})")
    alg = block_diagonal_algebra([n] * k)
    lam = (np.zeros((k, k), dtype=complex) if hopping is None
           else _check_hopping(hopping, k))
    rng = np.random.default_rng(seed)
    blocks = [_random_hermitian(n, rng) for _ in range(k)]

    hdim = k * n * n
    eye = np.eye(n, dtype=complex)

    def embed(block: np.ndarray, x: int, y: int) -> np.ndarray:
        out = np.zeros((hdim, hdim), dtype=complex)
        out[x * n * n:(x + 1) * n * n, y * n * n:(y + 1) * n * n] = block
        return out

    dirac = np.zeros((hdim, hdim), dtype=complex)
    for x in range(k):
        dirac += embed(np.kron(blocks[x], eye) + np.kron(eye, blocks[x].T), x, x)
    for x in range(k):
        for y in range(k):
            if x != y and lam[x, y] != 0:
                dirac += lam[x, y] * embed(np.eye(n * n, dtype=complex), x, y)

    p = transpose_permutation(n)
    kernel = np.zeros((hdim, hdim), dtype=complex)
    for x in range(k):
        kernel += embed(p, x, x)
    # pi(a) = a (x) 1_n: on each point's block, left multiplication on M_n
    return RealSpectralTriple(alg, np.kron(alg.basis, eye), dirac, AntiLinearOp(kernel),
                              eps=1, eps_prime=1,
                              label=f"ym(k={k},N={n},seed={seed})")


def build_orbifold_algebra(q: int, p: int, m: int) -> tuple[FiniteStarAlgebra, Report]:
    """Equivariant matrix functions on a free Z/q action over m orbits.

    Points are (gamma, j) with gamma in Z/q, j in {0..m-1}; a function is
    determined by its values at gamma = 0 through
    f(gamma, j) = w^gamma f(0, j) w^-gamma with w the order-q shift, so
    the expected dimension is m q^2 and the center picks one scalar per
    orbit.
    """
    if m < 1:
        raise BadParameters(f"m must be >= 1, got {m}")
    if q < 1 or math.gcd(p, q) != 1:
        raise BadParameters(f"need q >= 1 and gcd(p, q) = 1, got ({p}, {q})")
    _, w = clock_shift(q, p)
    w_pows = np.stack([np.linalg.matrix_power(w, g) for g in range(q)])
    ambient = m * q * q
    # basis element (j, a, b) takes the value w^g e_ab w^-g / sqrt(q) at point (j, g)
    values = np.einsum("gra,gcb->abgrc", w_pows, w_pows.conj()) / np.sqrt(q)
    basis = np.zeros((m, q, q, m * q, q, m * q, q), dtype=complex)
    for j in range(m):
        for g in range(q):
            basis[j, :, :, j * q + g, :, j * q + g] = values[:, :, g]
    alg = FiniteStarAlgebra(basis.reshape(-1, ambient, ambient), np.eye(ambient, dtype=complex),
                            label=f"orbifold(q={q},p={p},m={m})")
    z = center(alg)
    rep = Report(f"orbifold[q={q},p={p},m={m}]",
                 context={"q": q, "p": p, "m": m, "dim": alg.dim, "center_dim": z.dim})
    rep.add(CheckRecord.from_residual(
        "dimension", "the equivariant function algebra has dimension m q^2",
        float(abs(alg.dim - m * q * q)), 0.5, SCOPE_FINITE))
    rep.add(CheckRecord.from_residual(
        "center-dimension", "the center carries one scalar per orbit",
        float(abs(z.dim - m)), 0.5, SCOPE_FINITE))
    return alg, rep


# -- preset strings and config documents -------------------------------------


def _parse_kv(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise BadModelSpec(f"expected key=value, got {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        val = val.strip()
        try:
            out[key] = int(val)
        except ValueError:
            try:
                out[key] = float(val)
            except ValueError:
                raise BadModelSpec(f"non-numeric value {val!r} for {key!r}") from None
            if not math.isfinite(out[key]):
                raise BadModelSpec(f"non-finite value {val!r} for {key!r}")
    return out


def take_int(params: dict, *names: str, default: int) -> int:
    """Pop the integer parameter known by any of ``names``, or return the default."""
    hits = [params.pop(nm) for nm in names if nm in params]
    if len(hits) > 1:
        raise BadModelSpec(f"duplicate parameter among {names}")
    val = hits[0] if hits else default
    if not isinstance(val, int):
        raise BadModelSpec(f"parameter {names[0]!r} must be an integer, got {val!r}")
    return val


def _config_int(value, name: str) -> int:
    """An integer config field, checked like a preset parameter (see :func:`take_int`)."""
    return take_int({name: value}, name, default=0)


def model_from_string(spec: str, default_seed: int = 0):
    """Build a model from a preset string like ``hs:N=3`` or ``ym:k=2,N=2``.

    Returns a :class:`~ncgauge.spectral.RealSpectralTriple` for hs/ym and
    an ``(algebra, report)`` pair for orbifold.  The ym preset accepts
    ``lam=<float>`` to fill every off-diagonal hopping entry with one
    real value.
    """
    head, _, tail = spec.partition(":")
    head = head.strip().lower()
    if head not in ("hs", "ym", "orbifold"):
        raise BadModelSpec(f"unknown preset {head!r} (known: hs, ym, orbifold)")
    params = _parse_kv(tail)
    try:
        if head == "hs":
            out = build_hs_model(take_int(params, "N", "n", default=2),
                                 seed=take_int(params, "seed", default=default_seed))
        elif head == "ym":
            k = take_int(params, "k", default=2)
            n = take_int(params, "N", "n", default=2)
            seed = take_int(params, "seed", default=default_seed)
            lam_val = params.pop("lam", None)
            hopping = None
            if lam_val is not None:
                hopping = float(lam_val) * (np.ones((k, k)) - np.eye(k))
            out = build_finite_ym(k, n, hopping=hopping, seed=seed)
        else:
            out = build_orbifold_algebra(take_int(params, "q", default=2),
                                         take_int(params, "p", default=1),
                                         take_int(params, "m", default=1))
    except (BadParameters, BadHopping) as exc:
        raise BadModelSpec(str(exc)) from exc
    if params:
        unknown = ", ".join(sorted(params))
        raise BadModelSpec(f"unknown parameters for {head!r}: {unknown}")
    return out


def _matrix_from_entries(doc, n: int, what: str) -> np.ndarray:
    if not isinstance(doc, dict) or "re" not in doc:
        raise BadModelSpec(f"{what} entries must be a dict with 're' (and optional 'im')")
    try:
        re_part = np.asarray(doc["re"], dtype=float)
        im_part = np.asarray(doc.get("im", np.zeros_like(re_part)), dtype=float)
    except (TypeError, ValueError) as exc:  # text, nested objects or ragged rows
        raise BadModelSpec(f"{what} entries must be arrays of numbers: {exc}") from None
    for part in (re_part, im_part):
        if part.shape != (n, n):
            raise BadModelSpec(f"{what} must be {n}x{n}, got {part.shape}")
    mat = re_part + 1j * im_part
    if not np.isfinite(mat).all():
        raise BadModelSpec(f"{what} entries must be finite")
    return mat


def _build_algebra(doc) -> FiniteStarAlgebra:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in ("full", "diagonal", "blocks"):
        raise BadModelSpec(f"unknown algebra kind {kind!r} (known: full, diagonal, blocks)")
    if kind == "blocks":
        if not isinstance(doc.get("sizes", []), list):
            raise BadModelSpec("'sizes' must be a list of block sizes")
        sizes = [_config_int(s, "sizes") for s in doc.get("sizes", [])]
    else:
        sizes = [_config_int(doc.get("n"), "n")]
    if not sizes or min(sizes) < 1:
        raise BadModelSpec(f"an algebra needs at least one block, each of size at least 1, "
                           f"got {sizes}")
    if kind == "full":
        return full_matrix_algebra(sizes[0])
    return diagonal_algebra(sizes[0]) if kind == "diagonal" else block_diagonal_algebra(sizes)


def triple_from_config(cfg: dict) -> RealSpectralTriple:
    """Build a triple from a config document (see schema/triple.schema.json).

    Presets delegate to the builders above; custom documents assemble the
    representation, D, and K from presets or explicit entries.  Custom
    triples are not validated against the axioms here: feed them to
    check_axioms and read the report.
    """
    if not isinstance(cfg, dict):
        raise BadModelSpec("config root must be an object")
    tag = cfg.get("schema", TRIPLE_SCHEMA_TAG)
    if tag != TRIPLE_SCHEMA_TAG:
        raise BadModelSpec(f"unsupported schema tag {tag!r}")
    if "preset" in cfg:
        params = cfg.get("params", {})
        if not isinstance(params, dict):
            raise BadModelSpec("'params' must be an object")
        pieces = ",".join(f"{k}={v}" for k, v in params.items())
        return model_from_string(f"{cfg['preset']}:{pieces}")

    for key in ("algebra", "representation", "dirac", "real_structure"):
        if key not in cfg:
            raise BadModelSpec(f"custom config needs {key!r}")
    alg = _build_algebra(cfg["algebra"])
    rep_kind = cfg["representation"]
    amb = alg.ambient
    if rep_kind in ("defining", "left-multiplication"):
        left = rep_kind == "left-multiplication"
        hdim = amb * amb if left else amb
        pi_images = np.kron(alg.basis, np.eye(amb if left else 1, dtype=complex))
    else:
        raise BadModelSpec(f"unknown representation {rep_kind!r} "
                           "(known: defining, left-multiplication)")

    ddoc = cfg["dirac"]
    if isinstance(ddoc, dict) and "preset" in ddoc:
        preset = ddoc["preset"]
        seed = _config_int(ddoc.get("seed", 0), "seed")
        rng = np.random.default_rng(seed)
        if preset == "zero":
            dirac = np.zeros((hdim, hdim), dtype=complex)
        elif preset == "random-selfadjoint":
            dirac = _random_hermitian(hdim, rng)
        elif preset == "real-symmetric-random":
            s = rng.standard_normal((hdim, hdim))
            dirac = ((s + s.T) / 2).astype(complex)
            nrm = op_norm(dirac)
            if nrm > 0:
                dirac = dirac / nrm
        elif preset == "left-right-random":
            if rep_kind != "left-multiplication":
                raise BadModelSpec("left-right-random needs the left-multiplication representation")
            m = _random_hermitian(amb, rng)
            eye = np.eye(amb, dtype=complex)
            dirac = np.kron(m, eye) + np.kron(eye, m.T)
        else:
            raise BadModelSpec(f"unknown dirac preset {preset!r}")
    else:
        dirac = _matrix_from_entries(ddoc, hdim, "dirac")

    jdoc = cfg["real_structure"]
    if isinstance(jdoc, dict) and "preset" in jdoc:
        preset = jdoc["preset"]
        if preset == "conjugation":
            kernel = np.eye(hdim, dtype=complex)
        elif preset == "adjoint-flip":
            if rep_kind != "left-multiplication":
                raise BadModelSpec("adjoint-flip needs the left-multiplication representation")
            kernel = transpose_permutation(amb)
        else:
            raise BadModelSpec(f"unknown real structure preset {preset!r}")
    elif isinstance(jdoc, dict) and "kernel" in jdoc:
        kernel = _matrix_from_entries(jdoc["kernel"], hdim, "real structure kernel")
    else:
        raise BadModelSpec("real_structure needs a 'preset' or a 'kernel'")

    signs = cfg.get("signs", {})
    eps = _config_int(signs.get("j_squared", 1), "j_squared")
    eps_prime = _config_int(signs.get("dirac_commute", 1), "dirac_commute")
    try:
        return RealSpectralTriple(alg, pi_images, dirac, AntiLinearOp(kernel),
                                  eps=eps, eps_prime=eps_prime,
                                  label=cfg.get("label", "custom"))
    except SpectralInputError as exc:
        raise BadModelSpec(str(exc)) from exc


def load_model(spec: str, default_seed: int = 0):
    """Dispatch: an existing ``.json`` path loads a config, else a preset string."""
    if os.path.exists(spec) or spec.endswith(".json"):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise BadModelSpec(f"cannot read config file {spec!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise BadModelSpec(f"config file {spec!r} is not valid JSON: {exc}") from exc
        return triple_from_config(cfg)
    return model_from_string(spec, default_seed=default_seed)
