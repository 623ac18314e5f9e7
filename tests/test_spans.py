"""The span core in stack form, against the per-element loops it replaced.

Every basis, set of pi images and spanning set is one (d, n, n) array.  Each
test keeps the list-of-matrices loop that computed the same thing before as
its oracle.
"""

import numpy as np
import pytest

from ncgauge.gauge import gauge_lie_algebra, gauge_span
from ncgauge.linalg import (RealSpan, Subspace, adjoint, commutator, commutator_map_norm,
                            frobenius, nullspace, op_norm)
from ncgauge.localize import localize, omega_bundle
from ncgauge.models import build_finite_ym, build_orbifold_algebra, model_from_string, \
    triple_from_config
from ncgauge.spectral import (RealSpectralTriple, SpectralInputError, c_d_algebra, check_axioms,
                              compute_aj, one_form_space, verify_aj_properties)
from ncgauge.staralg import block_diagonal_algebra, center, skew_hermitian_basis
from ncgauge.torus import clock_shift
from test_spectral import CONFIG_FIXTURES

SPECS = ["hs:N=3", "ym:k=2,N=2", "ym:k=2,N=2,lam=0.1"]


def rng_stack(k, r, c, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, r, c)) + 1j * rng.standard_normal((k, r, c))


def close(value, oracle):
    return abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle))


# -- linalg ---------------------------------------------------------------------


@pytest.mark.parametrize("field", [Subspace, RealSpan])
def test_basis_is_one_stack(field):
    span = field.from_spanning(rng_stack(3, 2, 4, 0))
    assert isinstance(span.basis, np.ndarray) and not span.basis.flags.writeable
    assert span.basis.shape == (span.dim, 2, 4) == (3, 2, 4)
    assert np.array_equal(span.basis, [span.combine(np.eye(span.dim)[i]) for i in range(span.dim)])


@pytest.mark.parametrize("field", [Subspace, RealSpan])
def test_from_spanning_gives_identical_rows_for_a_list_and_a_stack(field):
    stack = rng_stack(5, 3, 3, 1)
    stack[4] = stack[0] - 2j * stack[1]
    from_list = field.from_spanning(list(stack))
    from_stack = field.from_spanning(stack)
    assert np.array_equal(from_list._stack, from_stack._stack)
    assert from_list.shape == from_stack.shape == (3, 3)


def test_from_spanning_still_rejects_mixed_shapes_and_a_shapeless_empty_set():
    with pytest.raises(ValueError, match="mixed"):
        Subspace.from_spanning([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match="mixed"):
        Subspace.from_spanning(np.zeros((2, 3, 3)), shape=(2, 2))
    with pytest.raises(ValueError, match="infer"):
        Subspace.from_spanning([])
    empty = RealSpan.from_spanning(np.zeros((0, 2, 2)), shape=(2, 2))
    assert empty.dim == 0 and empty.basis.shape == (0, 2, 2)


def test_batched_residual_and_adjoint_equal_the_per_matrix_loop():
    span = Subspace.from_spanning(rng_stack(4, 3, 3, 2))
    mats = rng_stack(6, 3, 3, 3)
    loop = [frobenius(m - span.project(m)) for m in mats]
    assert np.allclose(span.residual(mats), loop, rtol=1e-12, atol=0)
    assert span.residual(mats[0]) == pytest.approx(loop[0], rel=1e-12)
    assert np.array_equal(adjoint(mats), [np.conj(m).T for m in mats])
    assert np.array_equal(adjoint(mats[0]), np.conj(mats[0]).T)


def test_nullspace_takes_stacks_and_lists_alike():
    alg = block_diagonal_algebra([2, 1])
    images = [np.stack([commutator(a, b) for b in alg.basis]) for a in alg.basis]
    from_lists = nullspace(list(alg.basis), images, floor=1e-9)
    from_stacks = nullspace(alg.basis, np.stack(images), floor=1e-9)
    assert np.array_equal(from_lists._stack, from_stacks._stack)
    assert from_stacks.dim == 2


@pytest.mark.parametrize("images", [[np.eye(2), np.eye(3)], np.zeros((2, 2, 3)), np.zeros((3, 2, 2))])
def test_pi_images_of_mixed_shape_or_count_are_rejected(images):
    alg = block_diagonal_algebra([1, 1])
    with pytest.raises(SpectralInputError):
        RealSpectralTriple(alg, images, np.zeros((2, 2)), np.eye(2))


# -- staralg and models: stacks built at once equal the old loops bit for bit ---------


def test_block_diagonal_basis_equals_the_matrix_unit_loop():
    sizes, total = [2, 1, 3], 6
    loop, off = [], 0
    for sz in sizes:
        for i in range(sz):
            for j in range(sz):
                e = np.zeros((total, total), dtype=complex)
                e[off + i, off + j] = 1.0
                loop.append(e)
        off += sz
    assert np.array_equal(block_diagonal_algebra(sizes).basis, loop)


@pytest.mark.parametrize("sizes", [[2], [1, 1, 1], [2, 1]])
def test_skew_basis_keeps_the_interleaved_candidate_order(sizes):
    alg = block_diagonal_algebra(sizes)
    cands = []
    for b in list(alg.basis):
        cands.append((b - np.conj(b).T) / 2)
        cands.append(1j * (b + np.conj(b).T) / 2)
    want = RealSpan.from_spanning(cands, alg.shape).basis
    assert np.array_equal(skew_hermitian_basis(alg), want)


@pytest.mark.parametrize("k, n", [(1, 3), (2, 2), (3, 1)])
def test_ym_pi_images_equal_the_embedding_loop(k, n):
    triple = build_finite_ym(k, n)
    hdim, eye = k * n * n, np.eye(n, dtype=complex)
    loop = []
    for x in range(k):
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1.0
                out = np.zeros((hdim, hdim), dtype=complex)
                out[x * n * n:(x + 1) * n * n, x * n * n:(x + 1) * n * n] = np.kron(e, eye)
                loop.append(out)
    assert np.array_equal(triple.pi_images, loop)


@pytest.mark.parametrize("name", sorted(CONFIG_FIXTURES))
def test_config_pi_images_equal_the_per_element_loop(name):
    triple = triple_from_config(CONFIG_FIXTURES[name])
    basis = triple.algebra.basis
    if CONFIG_FIXTURES[name]["representation"] == "defining":
        loop = [b.copy() for b in basis]
    else:
        loop = [np.kron(b, np.eye(triple.algebra.ambient, dtype=complex)) for b in basis]
    assert np.array_equal(triple.pi_images, loop)


@pytest.mark.parametrize("q, p, m", [(2, 1, 1), (3, 1, 2), (4, 3, 2)])
def test_orbifold_basis_equals_the_equivariant_loop(q, p, m):
    _, w = clock_shift(q, p)
    ambient = q * m * q
    loop = []
    for j in range(m):
        for a in range(q):
            for b in range(q):
                e = np.zeros((q, q), dtype=complex)
                e[a, b] = 1.0
                out = np.zeros((ambient, ambient), dtype=complex)
                for g in range(q):
                    wg = np.linalg.matrix_power(w, g)
                    y = j * q + g
                    out[y * q:(y + 1) * q, y * q:(y + 1) * q] = wg @ e @ adjoint(wg)
                loop.append(out / np.sqrt(q))
    assert np.allclose(build_orbifold_algebra(q, p, m)[0].basis, loop, rtol=0, atol=1e-15)


# -- records that were loops over a basis ------------------------------------------


def broken(spec):
    """The preset, and a copy whose pi images carry noise, so residuals are not rounding."""
    t = model_from_string(spec)
    noise = 1e-3 * rng_stack(*t.pi_images.shape, 7)
    return [t, RealSpectralTriple(t.algebra, t.pi_images + noise, t.dirac, t.real_structure,
                                  label="noisy")]


@pytest.mark.parametrize("spec", SPECS)
def test_representation_star_equals_its_loop(spec):
    for t in broken(spec):
        loop = max(op_norm(t.pi(adjoint(b)) - adjoint(t.pi_images[i]))
                   for i, b in enumerate(list(t.algebra.basis)))
        assert close(check_axioms(t).record("representation-star").residual, loop)


@pytest.mark.parametrize("spec", SPECS)
def test_aj_records_equal_their_loops(spec):
    t = model_from_string(spec)
    k, aj, z = t.real_structure.kernel, compute_aj(t), center(t.algebra)
    rep = verify_aj_properties(t)
    members = list(aj.basis)
    loops = {
        "defining-condition": max(op_norm(t.pi(a) @ k - k @ t.pi(a).T) for a in members),
        "inside-center": max(frobenius(a - z.project(a)) for a in members),
        "star-closed": max(frobenius(adjoint(a) - aj.project(adjoint(a))) for a in members),
    }
    for name, loop in loops.items():
        assert close(rep.record(name).residual, loop), name


@pytest.mark.parametrize("spec", SPECS)
def test_skew_images_equal_their_loop(spec):
    t = model_from_string(spec)
    ts = gauge_span(t)[2]
    loop = max(op_norm(x + adjoint(x)) for x in ts)
    assert close(gauge_lie_algebra(t).report.record("skew-images").residual, loop)


@pytest.mark.parametrize("spec", SPECS)
def test_localize_records_equal_their_loops(spec):
    t = model_from_string(spec)
    dec = localize(t)
    basis, base = list(t.algebra.basis), dec.base
    loops = {
        "base-central-in-A": max(commutator_map_norm(p, t.algebra.basis) for _, p in base),
        "section-reconstruction": max(op_norm(sum(p @ b for _, p in base) - b) for b in basis),
    }
    for name, loop in loops.items():
        assert close(dec.report.record(name).residual, loop), name
    # the map norm on A is at least the worst commutator with one unit basis element
    assert dec.report.record("base-central-in-A").residual >= max(
        op_norm(commutator(p, b)) for _, p in base for b in basis)
    # one-forms-localize is the distance of each one-form from C_D, one at a time
    cd = c_d_algebra(t)[0]
    loop = max((frobenius(w - cd.project(w)) for w in one_form_space(t).basis), default=0.0)
    assert close(omega_bundle(dec).record("one-forms-localize").residual, loop)
