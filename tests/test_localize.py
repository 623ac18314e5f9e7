"""Localization over the spectrum of A_J and the bundle bookkeeping."""

import importlib

import numpy as np
import pytest

from ncgauge import (
    FiniteStarAlgebra,
    build_finite_ym,
    build_hs_model,
    fiber_gauge_action,
    group_bundle_dims,
    localize,
    norm_is_sup,
    omega_bundle,
    op_norm,
    random_unitary,
)
from ncgauge.models import load_model

localize_module = importlib.import_module("ncgauge.localize")


def test_hs_gives_a_single_fiber():
    t = build_hs_model(2)
    dec = localize(t)
    assert dec.report.passed
    assert len(dec) == 1
    assert dec.fibers[0].dim == 4
    assert dec.report.context["fiber_dims"] == [4]
    assert dec.report.context["omega_fiber_dims"] == [4]
    assert dec.report.context["aj_dim"] == 1


@pytest.mark.parametrize("k,n", [(2, 2), (3, 2)])
def test_ym_fiber_dims(k, n):
    t = build_finite_ym(k, n)
    dec = localize(t)
    assert dec.report.passed
    assert len(dec) == k
    assert [f.dim for f in dec.fibers] == [n * n] * k
    assert sum(f.dim for f in dec.fibers) == t.algebra.dim


def test_commutative_algebra_has_scalar_fibers():
    t = build_finite_ym(3, 1)
    dec = localize(t)
    assert dec.report.passed
    assert [f.dim for f in dec.fibers] == [1, 1, 1]
    assert dec.report.context["aj_dim"] == 3


def test_localize_is_deterministic():
    t = build_finite_ym(2, 2)
    d1 = localize(t, seed=5)
    d2 = localize(t, seed=5)
    assert d1.points == d2.points
    for (_, p), (_, q) in zip(d1.base, d2.base):
        assert np.allclose(p, q)


def test_norm_is_sup_against_block_oracle():
    k, n = 2, 2
    t = build_finite_ym(k, n)
    dec = localize(t)
    for seed in range(5):
        a = t.algebra.random_element(seed=seed)
        rep = norm_is_sup(dec, a)
        assert rep.passed
        block_norms = [op_norm(a[x * n:(x + 1) * n, x * n:(x + 1) * n])
                       for x in range(k)]
        assert abs(rep.context["norm"] - max(block_norms)) < 1e-10
        assert np.allclose(sorted(rep.context["fiber_norms"]),
                           sorted(block_norms), atol=1e-10)


def test_fiber_gauge_action():
    for t in (build_hs_model(2), build_finite_ym(2, 2)):
        dec = localize(t)
        for seed in range(3):
            u = random_unitary(t.algebra, seed=seed)
            a = t.algebra.random_element(seed=seed + 50)
            assert fiber_gauge_action(dec, u, a).passed


@pytest.mark.parametrize("k,n,cd", [(2, 2, 8), (3, 2, 12)])
def test_omega_bundle_sums(k, n, cd):
    t = build_finite_ym(k, n)
    dec = localize(t)
    rep = omega_bundle(dec)
    assert rep.passed
    assert rep.context["cd_dim"] == cd
    assert rep.context["omega_fiber_dims"] == [cd // k] * k
    assert sum(rep.context["omega_fiber_dims"]) == cd


def test_group_bundle_rows():
    t = build_finite_ym(3, 2)
    dec = localize(t)
    rows, rep = group_bundle_dims(dec)
    assert rep.passed
    assert len(rows) == 3
    for row in rows:
        assert row["fiber_dim"] == 4
        assert row["unitary_dim"] == 4
        assert row["gauge_fiber_dim"] == 3
    assert rep.context["u_A_dim"] == 12
    assert rep.context["gauge_dim"] == 9


def test_group_bundle_hs():
    dec = localize(build_hs_model(2))
    rows, rep = group_bundle_dims(dec)
    assert rep.passed
    assert rows == [{"point": rows[0]["point"], "fiber_dim": 4,
                     "unitary_dim": 4, "gauge_fiber_dim": 3}]


def test_hopping_breaks_cd_centrality_but_localizes():
    lam = 0.3 * (np.ones((2, 2)) - np.eye(2))
    t = build_finite_ym(2, 2, hopping=lam)
    dec = localize(t)
    # the algebra side still cuts cleanly
    assert dec.report.record("partition-of-unity").passed
    assert dec.report.record("base-central-in-A").passed
    assert dec.report.record("fiber-dimension-sum").passed
    assert dec.report.record("section-multiplicative").passed
    # but the transporters stop the base from being central on the D side
    assert not dec.report.record("base-central-in-CD").passed
    assert not dec.report.passed
    # the dimension bookkeeping stays exact regardless
    rep = omega_bundle(dec)
    assert rep.passed
    assert rep.context["cd_dim"] == 16
    assert rep.context["omega_fiber_dims"] == [8, 8]


def serve_rotated_cd(monkeypatch, seed):
    """Make localize see C_D through its orthonormal basis mixed by a random unitary."""
    real = localize_module.c_d_algebra

    def rotated(triple):
        cd, rep = real(triple)
        m = len(cd.basis)
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        mixed = np.einsum("ij,jkl->ikl", u, np.stack(cd.basis))
        return FiniteStarAlgebra(list(mixed), cd.unit), rep

    monkeypatch.setattr(localize_module, "c_d_algebra", rotated)


@pytest.mark.parametrize("spec", ["ym:k=2,N=2,lam=0.1", "ym:k=3,N=2,lam=0.05"])
def test_base_central_in_cd_does_not_depend_on_the_cd_basis(monkeypatch, spec):
    want = localize(load_model(spec)).report.record("base-central-in-CD")
    assert not want.passed
    for seed in range(3):
        with monkeypatch.context() as m:
            serve_rotated_cd(m, seed)
            got = localize(load_model(spec)).report.record("base-central-in-CD")
        assert not got.passed
        assert abs(got.residual - want.residual) <= 1e-12 * want.residual


@pytest.mark.parametrize("spec", ["hs:N=3", "hs:N=4", "ym:k=2,N=1", "ym:k=2,N=3"])
def test_base_central_in_cd_passes_on_presets(monkeypatch, spec):
    assert localize(load_model(spec)).report.record("base-central-in-CD").passed
    serve_rotated_cd(monkeypatch, 0)
    assert localize(load_model(spec)).report.record("base-central-in-CD").passed
