"""Identity checks: conversion relation, volume (magic) formula, surface
closure, planar lossless limit, vacuum correlation spectrum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenmodes import (
    CavityGeometry,
    ConstantScalar,
    IdentityReport,
    QuadratureSpec,
    build_pec_box_modes,
    check_appendix_lossless_limit,
    check_conversion_p1,
    check_magic_formula,
    check_surface_term,
)
from greenmodes.greens import _bulk_green_batch, _green_factors
from greenmodes.identities import (
    _far_gg_dagger_sum,
    _far_region_nodes,
    _gg_dagger_sum,
    _lorentzian_weights,
)

SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9, max_subdivisions=4000)

R_IN = np.array([0.31, 0.52, 0.47])
R0_IN = np.array([0.55, 0.40, 0.62])


def test_report_residual_definitions():
    rep = IdentityReport(lhs=np.eye(3, dtype=complex),
                         rhs=1.25 * np.eye(3, dtype=complex),
                         abs_residual=0.25, rel_residual=0.2,
                         metadata={})
    assert rep.abs_residual >= 0.0
    assert abs(rep.rel_residual - rep.abs_residual / 1.25) < 1e-15


# -- conversion relation ---------------------------------------------------


def test_conversion_analytic_path_is_exact(cube_modeset):
    rep = check_conversion_p1(cube_modeset, R_IN, R0_IN, spec=SPEC,
                              lhs_path="analytic")
    assert rep.rel_residual < 1e-12


def test_conversion_softened_converges_in_eta(cube_modeset):
    w1 = cube_modeset.omegas[0]
    res = []
    for eta in (1e-3 * w1, 1e-4 * w1):
        rep = check_conversion_p1(cube_modeset, R_IN, R_IN, spec=SPEC,
                                  eta=eta, lhs_path="softened")
        res.append(rep.rel_residual)
    assert res[0] < 1e-3
    # one decade down in eta: residual must decrease (10% slack on monotone)
    assert res[1] < 1.1 * res[0]


def test_conversion_swap_transposes_sides(cube_modeset):
    a = check_conversion_p1(cube_modeset, R_IN, R0_IN, spec=SPEC,
                            lhs_path="analytic")
    b = check_conversion_p1(cube_modeset, R0_IN, R_IN, spec=SPEC,
                            lhs_path="analytic")
    scale = max(np.max(np.abs(a.lhs)), 1e-30)
    assert np.max(np.abs(a.lhs - b.lhs.T)) < 1e-10 * scale
    assert np.max(np.abs(a.rhs - b.rhs.T)) < 1e-10 * scale
    assert abs(a.rel_residual - b.rel_residual) < 1e-10


def _closed_form_weights(omegas, eta, omega_max):
    # x = w^2 turns the weight into (eta/2pi) int x / ((x - p)^2 + q^2) dx
    a = omegas**2
    p = a - eta**2 / 2.0
    q = eta * np.sqrt(4.0 * a - eta**2) / 2.0

    def prim(x):
        return 0.5 * np.log(x * x - 2.0 * p * x + a * a) \
            + (p / q) * np.arctan((x - p) / q)

    return eta / (2.0 * np.pi) * (prim(omega_max**2) - prim(0.0))


@pytest.mark.parametrize("n_max", [6, 10])
def test_conversion_weights_match_closed_form(n_max):
    modes = build_pec_box_modes(CavityGeometry(1.0, 1.0, 1.0), n_max)
    omegas = np.unique(np.round(modes.omegas, 9))
    eta = 1e-3 * omegas[0]
    omega_max = 1.3 * modes.omega_top
    got, err = _lorentzian_weights(omegas, eta, omega_max, QuadratureSpec())
    want = _closed_form_weights(omegas, eta, omega_max)
    assert np.max(np.abs(got - want) / want) <= 1e-10
    assert 0.0 <= err < 1e-8


def test_conversion_rejects_omega_max_below_band(cube_modeset):
    with pytest.raises(ValueError):
        check_conversion_p1(cube_modeset, R_IN, R0_IN, spec=SPEC,
                            omega_max=0.5 * cube_modeset.omega_top)


# -- magic formula ---------------------------------------------------------


def test_magic_formula_lossy_bulk():
    omega = 1.0
    eps = ConstantScalar(1.0 + 1e-2j)
    # kd = 2 at eps ~ 1
    d = 2.0 / omega
    rep = check_magic_formula(eps, np.array([d, 0.0, 0.0]),
                              np.zeros(3), omega, spec=SPEC)
    assert rep.rel_residual < 2e-2
    assert rep.metadata["path"] == "generic"


def test_magic_formula_coincidence_is_psd():
    # the excluded ball around the pole costs a residual linear in the
    # absorption, so keep Im eps small here
    omega = 1.0
    eps = ConstantScalar(1.0 + 1e-3j)
    r = np.array([0.3, -0.1, 0.2])
    rep = check_magic_formula(eps, r, r, omega, spec=SPEC)
    assert rep.metadata["lhs_psd"]
    lhs = np.asarray(rep.lhs)
    assert np.max(np.abs(lhs - lhs.T.conj())) < 1e-10 * np.max(np.abs(lhs))
    assert rep.rel_residual < 2e-2


def test_magic_formula_needs_absorption():
    eps = ConstantScalar(2.0)
    with pytest.raises(ValueError):
        check_magic_formula(eps, np.array([1.0, 0, 0]), np.zeros(3),
                            1.0, spec=SPEC)


@pytest.mark.parametrize("radius", [0.0, -0.1])
def test_magic_formula_rejects_non_positive_exclusion_radius(radius,
                                                             monkeypatch):
    # the coincidence core of G G^dagger goes as 1/rho^4: a ball of zero
    # radius leaves it non-integrable, so the check refuses before any
    # quadrature instead of reporting a ~1e48 lhs
    from greenmodes import identities

    calls = []
    monkeypatch.setattr(identities, "integrate_adaptive",
                        lambda *args, **kw: calls.append(1))
    r = np.array([0.3, 0.2, 0.1])
    with pytest.raises(ValueError, match="exclusion_radius"):
        check_magic_formula(ConstantScalar(1.0 + 0.1j), r, r, 1.0,
                            spec=SPEC, exclusion_radius=radius)
    assert calls == []


def test_magic_formula_swap_transposes_sides():
    omega = 1.0
    eps = ConstantScalar(1.0 + 5e-2j)
    r = np.array([1.6, 0.7, -0.4])
    r0 = np.array([-0.2, 0.1, 0.3])
    a = check_magic_formula(eps, r, r0, omega, spec=SPEC)
    b = check_magic_formula(eps, r0, r, omega, spec=SPEC)
    scale = max(np.max(np.abs(a.lhs)), 1e-30)
    assert np.max(np.abs(np.asarray(a.rhs) - np.asarray(b.rhs).T)) < 1e-10 * scale
    # swapping the arguments conjugate-transposes the product under the
    # integral, and the node set maps onto itself, so the computed volume
    # term is the dagger of the original to machine precision; the plain
    # transpose differs by twice the (spurious) imaginary quadrature error
    assert np.max(np.abs(np.asarray(b.lhs) - np.asarray(a.lhs).conj().T)) \
        < 1e-12 * scale
    assert abs(a.rel_residual - b.rel_residual) < 1e-10


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.integers(1, 300),
    re_k=st.floats(0.05, 6.0),
    im_k=st.floats(1e-4, 3.0),
    spread=st.sampled_from([0.01, 1.0, 8.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_volume_sum_matches_dense_product(n, re_k, im_k, spread,
                                                   seed):
    # the ball around s = 0 pairs G(d - s) with G(s), the ball around
    # s = d pairs G(u) with G(d + u); both must equal the dense sum of
    # w G_a G_b^dagger over the full tensors, to rounding of the terms
    rng = np.random.default_rng(seed)
    pts = spread * rng.normal(size=(n, 3))
    w = rng.uniform(0.0, 1.0, n)
    d_vec = rng.normal(size=3)
    k = complex(re_k, im_k)
    for disp_a, disp_b in ((d_vec - pts, pts), (pts, d_vec + pts)):
        g_a = _bulk_green_batch(disp_a, k)
        g_b = _bulk_green_batch(disp_b, k)
        dense = np.einsum("n,nij,nkj->ik", w, g_a, np.conj(g_b))
        got = _gg_dagger_sum(_green_factors(disp_a, k),
                             _green_factors(disp_b, k), w)
        scale = np.sum(w * np.max(np.abs(g_a), axis=(1, 2))
                       * np.max(np.abs(g_b), axis=(1, 2)))
        assert np.max(np.abs(got - dense)) <= 1e-13 * scale


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    re_k=st.floats(0.05, 6.0),
    im_k=st.floats(0.02, 3.0),
    ball=st.floats(0.01, 0.45),
    cap=st.one_of(st.none(), st.floats(0.0, 1.2)),
    seed=st.integers(0, 2**32 - 1),
)
def test_far_sum_closed_form_matches_node_sum(re_k, im_k, ball, cap, seed):
    # the reference turns each ring's (s_axis, s_perp) through the 8
    # azimuth nodes about d_vec and sums w G(d - s) G(s)^dagger node by
    # node; the closed-form azimuth sum must agree to rounding of the terms
    rng = np.random.default_rng(seed)
    d_vec = rng.normal(size=3) * rng.uniform(0.2, 3.0)
    d = float(np.linalg.norm(d_vec))
    a = ball * d
    k = complex(re_k, im_k)
    u_cap = None if cap is None else d + 2.0 * a + cap * 18.42 / im_k
    got, n_nodes = _far_gg_dagger_sum(d_vec, a, k, u_cap)

    s_axis, s_perp, rho1, rho2, w = _far_region_nodes(d, a, im_k, u_cap)
    dhat = d_vec / d
    e1 = np.cross(dhat, rng.normal(size=3))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(dhat, e1)
    phi = 2.0 * np.pi * np.arange(8) / 8
    ring = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
    pts = (s_axis[:, None, None] * dhat
           + s_perp[:, None, None] * ring[None]).reshape(-1, 3)
    wts = np.repeat(w / 8, 8)
    assert n_nodes == wts.size
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1),
                               np.repeat(rho1, 8), rtol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(d_vec - pts, axis=1),
                               np.repeat(rho2, 8), rtol=1e-12)
    ref = _gg_dagger_sum(_green_factors(d_vec - pts, k),
                         _green_factors(pts, k), wts)
    scale = np.sum(wts
                   * np.max(np.abs(_bulk_green_batch(d_vec - pts, k)),
                            axis=(1, 2))
                   * np.max(np.abs(_bulk_green_batch(pts, k)), axis=(1, 2)))
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale


# -- surface closure -------------------------------------------------------


def test_surface_closure_lossless():
    omega = 1.0
    eps = ConstantScalar(1.0)
    rep = check_surface_term(eps, 25.0, np.array([0.9, 0.2, -0.3]),
                             np.array([-0.4, 0.1, 0.5]), omega)
    assert rep.rel_residual < 5e-2


def test_surface_term_vanishes_with_loss():
    omega = 1.0
    delta = 0.5
    # Im k R >= 5
    k_im = np.sqrt(complex(1.0, delta)).imag * omega
    radius = 5.0 / k_im
    eps = ConstantScalar(1.0 + 1j * delta)
    rep = check_surface_term(eps, radius, np.array([0.45, 0.0, 0.0]),
                             np.array([-0.45, 0.0, 0.0]), omega)
    surf = np.max(np.abs(np.asarray(rep.extras["surface_term"])))
    scale = np.max(np.abs(np.asarray(rep.rhs)))
    assert surf <= 1e-3 * scale
    # the closure itself is still limited by the volume quadrature at this
    # strong absorption
    assert rep.rel_residual < 5e-2


def test_surface_radius_margin_enforced():
    with pytest.raises(ValueError):
        check_surface_term(ConstantScalar(1.0), 1.0, np.array([0.9, 0, 0]),
                           np.array([-0.9, 0, 0]), 1.0)


def test_surface_lossy_coincidence_rejected_before_any_flux(monkeypatch):
    # the rejection reads only eps and the separation, so no sphere flux
    # may be evaluated first
    from greenmodes import identities

    calls = []
    monkeypatch.setattr(identities, "_surface_flux",
                        lambda *args: calls.append(1))
    r = np.array([0.2, 0.1, 0.0])
    with pytest.raises(ValueError, match="lossy coincidence"):
        check_surface_term(ConstantScalar(1.0 + 0.5j), 30.0, r, r, 1.0)
    assert calls == []


# -- planar lossless limit -------------------------------------------------


@pytest.mark.parametrize("krho", [1.0, 2.0, 5.0])
def test_appendix_axial_and_oblique(krho):
    omega = 1.0
    r0 = np.zeros(3)
    for direction in (np.array([0.0, 0.0, 1.0]),
                      np.array([0.6, 0.3, 0.74])):
        d = direction / np.linalg.norm(direction) * krho / omega
        rep = check_appendix_lossless_limit(r0 + d, r0, omega, spec=SPEC)
        assert rep.rel_residual < 1e-3, (krho, direction, rep.rel_residual)


def test_appendix_evanescent_sector_vanishes():
    rep = check_appendix_lossless_limit(np.array([0.4, 0.2, 1.1]),
                                        np.zeros(3), 1.0, spec=SPEC)
    ev = np.max(np.abs(np.asarray(rep.extras["evanescent_term"])))
    assert ev < 1e-14


def test_appendix_tail_cutoff_non_increasing():
    # enlarging the evanescent window cannot worsen the residual beyond
    # the quadrature floor (it is analytically zero term by term)
    r = np.array([0.0, 0.0, 2.0])
    res = [check_appendix_lossless_limit(r, np.zeros(3), 1.0, spec=SPEC,
                                         mu_max=m).rel_residual
           for m in (2.0, 3.0, 4.0)]
    floor = 1e-12
    assert res[1] <= res[0] + floor
    assert res[2] <= res[1] + floor


def test_appendix_in_plane_separation():
    # purely lateral displacement exercises the Bessel factors with no
    # axial phase at all
    rep = check_appendix_lossless_limit(np.array([1.0, 0.7, 0.0]),
                                        np.array([0.0, 0.7, 0.0]), 2.0,
                                        spec=SPEC)
    assert rep.rel_residual < 1e-3


def test_appendix_rejects_coincidence():
    with pytest.raises(ValueError):
        check_appendix_lossless_limit(np.zeros(3), np.zeros(3), 1.0,
                                      spec=SPEC)


# -- quadrature error estimates in the reports -----------------------------


@pytest.mark.parametrize("check", ["conversion_softened",
                                   "conversion_analytic",
                                   "magic_coincidence", "appendix"])
def test_identity_reports_carry_quad_error(check, cube_modeset):
    eps = ConstantScalar(1.0 + 1e-3j)
    r = np.array([0.3, -0.1, 0.2])
    if check == "conversion_softened":
        rep = check_conversion_p1(cube_modeset, R_IN, R0_IN, spec=SPEC)
    elif check == "conversion_analytic":
        rep = check_conversion_p1(cube_modeset, R_IN, R0_IN, spec=SPEC,
                                  lhs_path="analytic")
    elif check == "magic_coincidence":
        rep = check_magic_formula(eps, r, r, 1.0, spec=SPEC)
    else:
        rep = check_appendix_lossless_limit(np.array([0.4, 0.2, 1.1]),
                                            np.zeros(3), 1.0, spec=SPEC)
    err = rep.metadata["quad_error"]
    assert np.isfinite(err) and err >= 0.0
    if check != "conversion_analytic":
        assert err > 0.0
