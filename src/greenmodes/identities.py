"""Numerical checks of the structural identities linking the mode-sum and
noise-current quantization routes.

Every check returns an IdentityReport holding both tensors and scalar
residuals; nothing is asserted here, so callers (tests, CLI) decide what
tolerance to enforce.

The volume-integral identity (absorption-weighted G G^dagger over all
space equals Im G) is evaluated in three pieces chosen around its
geometry: small balls around the two integrable singular points, where a
spherical product rule kills the (I - 3ee)/rho^3 contribution exactly by
angular symmetry, and the remainder in prolate spheroidal coordinates
with the two points as foci.  In those coordinates the integrand's
oscillation lives purely in the "ellipse difference" variable v =
rho1 - rho2 (bounded by the separation) while the exponential decay lives
purely in u = rho1 + rho2, so fixed-order panel Gauss rules converge fast
and the cutoff in u is set by the absorption depth alone.  The weighted
sum of G G^dagger over those nodes is never formed tensor by tensor:
with G = a I + b e e^T it reduces to one scalar sum and three
outer-product sums (_gg_dagger_sum).  In the far region the azimuth
about the separation axis is summed in closed form: on each ring of
azimuthal nodes the two focal distances, so a, b and e_a . e_b, are
fixed, and the outer products left are trigonometric polynomials of
degree 2 in the azimuth, which the ring's 8-point trapezoid rule
integrates exactly.  The far term is therefore three scalar sums over
rings (_far_gg_dagger_sum), equal to the node-by-node sum to rounding.
The volume check and the lossy surface check share one assembly of
balls, far region and contact cross term (_volume_terms).
"""

from dataclasses import dataclass, field

import numpy as np

from .greens import (
    _bessel_dyad,
    _bulk_green_batch,
    _green_coefficients,
    _green_factors,
    _z_rotation,
    bulk_green,
    im_green_coincidence,
    wavenumber,
)
from .numerics import gauss_legendre, integrate_adaptive
from .tensors import I3, dagger, is_psd, max_abs, r3


@dataclass
class IdentityReport:
    """lhs/rhs tensors, residuals, and the knobs that produced them."""

    lhs: np.ndarray
    rhs: np.ndarray
    abs_residual: float
    rel_residual: float
    metadata: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def make_report(lhs, rhs, metadata=None, extras=None):
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    abs_res = max_abs(lhs - rhs)
    rel_res = abs_res / max(max_abs(lhs), max_abs(rhs), 1e-300)
    return IdentityReport(lhs, rhs, abs_res, rel_res,
                          dict(metadata or {}), dict(extras or {}))


# ---------------------------------------------------------------------------
# conversion relation: frequency integral of the softened mode-sum Im G
# versus the direct half-frequency-weighted mode sum


def _lorentzian_weights(omegas, eta, omega_max, spec):
    """(1/pi) int_0^W  w^3 eta / ((w_k^2 - w^2)^2 + eta^2 w^2) dw for
    each w_k in omegas, with the G7-K15 error estimate of the pieces.

    This is the per-mode scalar left after pulling the mode dyad out of
    the frequency integral; its eta -> 0 limit is w_k / 2.  Each w_k's
    range is cut at 0, w_k -+ 50 eta, w_k -+ 5 eta, w_k and W; every
    piece [lo, hi] is mapped onto t in [0, 1], and all pieces are the
    components of one vector integrand, so one adaptive call covers them
    all.  The pieces are summed back per frequency.
    """
    owner, lo, hi = [], [], []
    for k, w in enumerate(omegas):
        edges = [0.0]
        for e in (w - 50 * eta, w - 5 * eta, w, w + 5 * eta, w + 50 * eta):
            if edges[-1] < e < omega_max:
                edges.append(e)
        edges.append(omega_max)
        owner += [k] * (len(edges) - 1)
        lo += edges[:-1]
        hi += edges[1:]
    lo = np.array(lo)
    width = np.array(hi) - lo
    wk2 = np.asarray(omegas, dtype=float)[owner] ** 2

    def f(t):
        w = lo + t[:, None] * width
        # where eta^2 w^2 is beyond float range the integrand, about
        # w / eta, is far below rounding of the w_k / 2 it is compared
        # with; the overflow to inf flushes it to 0 without a warning
        with np.errstate(over="ignore"):
            soft = eta * eta * w**2
        return width * w**3 * eta / ((wk2 - w**2) ** 2 + soft)

    pieces, err = integrate_adaptive(f, 0.0, 1.0, spec)
    per_omega = np.bincount(owner, weights=pieces, minlength=len(omegas))
    return per_omega / np.pi, err / np.pi


# pole softening of the conversion check unless a caller sets one
CONVERSION_ETA = 1e-3


def check_conversion_p1(modeset, r, r0, spec=None, eta=CONVERSION_ETA,
                        omega_max=None, lhs_path="softened"):
    """Frequency-integrated softened mode-sum Im G against the direct sum.

    lhs = (1/pi) int_0^omega_max dw w^2 Im G_modes(r, r0, w; eta),
    rhs = sum_k (w_k/2) E_k(r) E_k(r0)^T over the same truncation.
    lhs_path 'analytic' replaces each per-mode frequency integral by its
    exact eta -> 0 limit w_k/2, making lhs equal rhs to rounding; the
    default 'softened' path integrates numerically, so the residual
    measures softening plus truncation error (linear in eta).  The
    softened path integrates one scalar weight per line of the mode set
    (ModeSet.lines), all in one adaptive call (see _lorentzian_weights),
    and gives each mode its line's weight; metadata quad_error is that
    call's G7-K15 error estimate over pi (0.0 on the analytic path,
    which has no quadrature).
    """
    if omega_max is None:
        omega_max = 1.3 * modeset.omega_top
    if lhs_path not in ("softened", "analytic"):
        raise ValueError("lhs_path must be 'softened' or 'analytic'")
    if omega_max <= modeset.omega_top:
        raise ValueError("omega_max must exceed the highest mode frequency")

    fr = modeset.eval_all(r)
    f0 = modeset.eval_all(r0)
    omegas = modeset.omegas
    rhs = np.einsum("m,mi,mj->ij", omegas / 2.0, fr, f0)

    if lhs_path == "analytic":
        weights = omegas / 2.0
        quad_error = 0.0
    else:
        if eta <= 0.0:
            raise ValueError("softened path needs eta > 0")
        per_line, quad_error = _lorentzian_weights(modeset.lines, eta,
                                                   omega_max, spec)
        weights = per_line[modeset.line_of]
    lhs = np.einsum("m,mi,mj->ij", weights, fr, f0)

    meta = {
        "eta": float(eta),
        "omega_max": float(omega_max),
        "n_modes": len(modeset),
        "omega_top": modeset.omega_top,
        "lhs_path": lhs_path,
        "quad_error": quad_error,
    }
    return make_report(lhs, rhs, meta)


# ---------------------------------------------------------------------------
# volume identity machinery


# fixed rule orders: ball (radius, cos(theta), phi), far region (mu, chi,
# phi), and the first sphere rule's polar nodes with its most doublings
_BALL_ORDERS = (32, 16, 8)
_FAR_ORDERS = (24, 24, 8)
_SURFACE_N_THETA = 16
_SURFACE_DOUBLINGS = 3


def _sphere_directions(n_theta, n_phi):
    """Unit vectors on the Gauss cos(theta) x trapezoid phi grid, shape
    (n_theta, n_phi, 3), with the cos(theta) weights and the phi step."""
    ct, wt = gauss_legendre(n_theta)
    st = np.sqrt(1.0 - ct**2)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    dirs = np.empty((n_theta, n_phi, 3))
    dirs[..., 0] = st[:, None] * np.cos(phi)[None, :]
    dirs[..., 1] = st[:, None] * np.sin(phi)[None, :]
    dirs[..., 2] = ct[:, None]
    return dirs, wt, 2.0 * np.pi / n_phi


def _ball_rule(radius):
    """Product rule for a ball at the origin: Gauss radial x Gauss cos(theta)
    x trapezoid phi.  Angular symmetry integrates direction dyads exactly,
    which is what tames the 1/rho^3 core of the integrand."""
    n_r, n_t, n_p = _BALL_ORDERS
    xr, wr = gauss_legendre(n_r)
    rho = 0.5 * radius * (xr + 1.0)
    w_rho = 0.5 * radius * wr * rho**2
    dirs, wt, w_phi = _sphere_directions(n_t, n_p)
    pts = rho[:, None, None, None] * dirs[None, :, :, :]
    wts = np.broadcast_to(
        w_rho[:, None, None] * wt[None, :, None] * w_phi, (n_r, n_t, n_p))
    return pts.reshape(-1, 3), wts.reshape(-1).copy()


def _u_panel_edges(d, a, im_k, u_cap=None):
    """u = rho1 + rho2 panel edges: geometric growth from the ball scale,
    then linear steps of 4 / Im k out to the absorption cutoff."""
    if im_k <= 0.0:
        raise ValueError("far-region cutoff needs Im k > 0")
    u_max = d + 18.42 / im_k
    if u_cap is not None:
        u_max = min(u_max, u_cap)
    step_cap = 4.0 / im_k
    edges = [d + 2.0 * a]
    inc = 2.0 * a
    while edges[-1] + inc < u_max and inc < step_cap:
        edges.append(edges[-1] + inc)
        inc *= 2.0
    while edges[-1] + step_cap < u_max:
        edges.append(edges[-1] + step_cap)
    if u_max > edges[-1]:
        edges.append(u_max)
    return np.array(edges)


def _far_region_nodes(d, a, im_k, u_cap=None):
    """Rings of the quadrature for the region outside both balls, for
    foci at 0 and d_vec with d = |d_vec| (orders _FAR_ORDERS).

    Prolate spheroidal parametrization: rho1 = (d/2)(cosh mu + sin chi),
    rho2 = (d/2)(cosh mu - sin chi); the corner panel mu in [0, mu_a]
    carries the chi limit |sin chi| <= cosh mu - 2a/d that excises the
    two balls.  Each (mu, chi) node is a ring of n_phi azimuthal nodes
    about d_vec, s = s_axis dhat + s_perp (cos phi e1 + sin phi e2) for
    any orthonormal e1, e2 across dhat, on which neither distance
    depends; no point is built.  Returns
    (s_axis, s_perp, rho1, rho2, w) per ring, w the weight of the whole
    ring (2 pi times the (mu, chi) weight).
    """
    n_mu, n_chi, _ = _FAR_ORDERS
    t = 2.0 * a / d
    mu_a = float(np.arccosh(1.0 + t))
    xg, wg = gauss_legendre(n_mu)
    xgc, wgc = gauss_legendre(n_chi)

    # mu panels: two corner panels on [0, mu_a], whose chi range the balls
    # limit, then decay panels over the full chi range at u-spaced edges
    u_edges = _u_panel_edges(d, a, im_k, u_cap)
    edges = np.concatenate(([0.0, 0.5 * mu_a, mu_a],
                            np.arccosh(u_edges[1:] / d)))
    half = 0.5 * np.diff(edges)[:, None]
    mu = (edges[:-1, None] + half * (xg + 1.0)).ravel()
    wmu = (half * wg).ravel()
    chi_max = np.full(mu.size, 0.5 * np.pi)
    corner = slice(0, 2 * n_mu)
    chi_max[corner] = np.arcsin(np.clip(np.cosh(mu[corner]) - t, -1.0, 1.0))

    # chi nodes per mu node, symmetric about 0: shape (mu.size, n_chi)
    chi = chi_max[:, None] * xgc
    wchi = chi_max[:, None] * wgc

    ch = np.cosh(mu)[:, None]
    sh = np.sinh(mu)[:, None]
    sc = np.sin(chi)
    cc = np.cos(chi)
    rho1 = 0.5 * d * (ch + sc)
    rho2 = 0.5 * d * (ch - sc)
    s_axis = 0.5 * d * (1.0 + ch * sc)
    s_perp = 0.5 * d * sh * cc
    jac = 0.5 * d * rho1 * rho2 * sh * cc
    w = 2.0 * np.pi * wmu[:, None] * wchi * jac
    return tuple(x.ravel() for x in (s_axis, s_perp, rho1, rho2, w))


def _far_gg_dagger_sum(d_vec, a, k, u_cap=None):
    """sum_i w_i G(d_vec - s_i) G(s_i)^dagger over the far-region rule of
    _far_region_nodes, and the rule's node count, with the azimuth summed
    in closed form.

    On a ring, G(d - s) and G(s) have fixed coefficients (a2, b2) and
    (a1, b1), e_a . e_b = (d s_axis - rho1^2) / (rho1 rho2) is fixed, and
    with P = dhat dhat^T, Q = I - P the trapezoid mean over phi gives
    s s^T -> s_axis^2 P + s_perp^2 Q / 2,
    (d - s)(d - s)^T -> (d - s_axis)^2 P + s_perp^2 Q / 2 and
    (d - s) s^T -> (d - s_axis) s_axis P - s_perp^2 Q / 2 exactly, these
    being degree-2 trigonometric polynomials in phi.  The four terms of
    _gg_dagger_sum then add up to S_0 I + S_P P + S_Q Q.
    """
    d = float(np.linalg.norm(d_vec))
    s_axis, s_perp, rho1, rho2, w = _far_region_nodes(d, a, k.imag, u_cap)
    a1, b1 = (np.conj(x) for x in _green_coefficients(rho1, k))
    a2, b2 = _green_coefficients(rho2, k)
    s_rest = d - s_axis
    t_b = w * a2 * b1 / rho1**2
    t_a = w * b2 * a1 / rho2**2
    t_ab = w * b2 * b1 * (d * s_axis - rho1**2) / (rho1 * rho2) ** 2
    s_0 = np.sum(w * a2 * a1)
    s_p = np.sum(t_b * s_axis**2 + t_a * s_rest**2 + t_ab * s_rest * s_axis)
    s_q = 0.5 * np.sum(s_perp**2 * (t_b + t_a - t_ab))
    proj = np.outer(d_vec, d_vec) / d**2
    return (s_0 * I3 + s_p * proj + s_q * (I3 - proj),
            w.size * _FAR_ORDERS[2])


def _outer_sum(u, c, v):
    """sum_i c_i u_i v_i^T for real rows u, v (N, 3) and complex c (N,),
    as two real (3, N) @ (N, 3) products."""
    return (u.T * c.real) @ v + 1j * ((u.T * c.imag) @ v)


def _gg_dagger_sum(factors_a, factors_b, weights):
    """sum_i w_i G_a,i G_b,i^dagger from the factors (a, b, e) of each
    side (see _green_factors), without forming any G.

    With G = a I + b e e^T and real unit vectors e, each term is
    a_a conj(a_b) I + a_a conj(b_b) e_b e_b^T + b_a conj(a_b) e_a e_a^T
    + b_a conj(b_b) (e_a . e_b) e_a e_b^T, so the sum is one scalar times
    I plus three outer-product sums.
    """
    a_a, b_a, e_a = factors_a
    a_b, b_b, e_b = factors_b
    wa = weights * a_a
    wb = weights * b_a
    a_b = np.conj(a_b)
    b_b = np.conj(b_b)
    dots = np.einsum("ni,ni->n", e_a, e_b)
    return (np.sum(wa * a_b) * I3
            + _outer_sum(e_b, wa * b_b, e_b)
            + _outer_sum(e_a, wb * a_b, e_a)
            + _outer_sum(e_a, wb * b_b * dots, e_b))


def _volume_terms(r, r0, omega, eps, u_cap=None):
    """int G(r, s) G(s, r0)^dagger d^3s for r != r0, before the absorption
    weight, in pieces: (volume, cross, g_d, ball_radius, n_far_nodes).

    volume is the regular part over all space: a ball around each of
    the two singular points plus the prolate-spheroidal far region,
    truncated at u = rho1 + rho2 <= u_cap when given.  The balls are
    summed node by node; the far region's azimuth is summed in closed
    form, which is exact for its trapezoid rule (_far_gg_dagger_sum), and
    n_far_nodes counts the nodes of that rule.  cross is the closed-form
    cross term between the regular part and the symbolic contact delta,
    and g_d = G(r, r0).  The identity's lhs is
    (w^2 Im eps) (volume + cross).
    """
    k = wavenumber(omega, eps)
    d_vec = r - r0
    a = min(0.45 * float(np.linalg.norm(d_vec)), 2.0 / abs(k))
    ball_pts, ball_wts = _ball_rule(a)
    g_u = _green_factors(ball_pts, k)
    # ball around s = r0 (second factor singular): s - r0 = u
    near0 = _gg_dagger_sum(_green_factors(d_vec - ball_pts, k), g_u, ball_wts)
    # ball around s = r: s - r0 = d + u, and G(-u) = G(u)
    near_d = _gg_dagger_sum(g_u, _green_factors(d_vec + ball_pts, k), ball_wts)
    far, n_far = _far_gg_dagger_sum(d_vec, a, k, u_cap)
    g_d = bulk_green(r, r0, omega, eps)
    cross = -dagger(g_d) / (3.0 * k**2) - g_d / (3.0 * np.conj(k**2))
    return near0 + near_d + far, cross, g_d, a, n_far


def check_magic_formula(eps_model, r, r0, omega, spec=None,
                        exclusion_radius=None):
    """Absorption-weighted volume integral of G G^dagger against Im G.

    The bulk medium is the scalar eps_model, which must absorb at omega
    (Im eps > 0); G is its closed form, so no backend is taken.  Generic
    separation: two exclusion balls + prolate-spheroidal far region + the
    closed-form cross terms between the regular part and the symbolic
    contact delta.  Coincidence (r == r0): the angular integral
    collapses analytically, an exclusion ball of radius exclusion_radius
    (default 0.5 / Re k) removes the divergent core, and the reference
    value is the lossless coincidence limit, which the excluded lhs
    approaches as the loss goes to zero.  That path integrates the
    radial profile adaptively and reports its G7-K15 error estimate,
    times the lhs prefactor, as metadata quad_error; the generic path
    uses fixed product rules and has no such estimate.
    """
    eps = complex(eps_model.eval(omega))
    im_eps = eps.imag
    if im_eps <= 0.0:
        raise ValueError(
            "the volume identity needs absorption: some level of loss "
            "must be present (Im eps > 0)"
        )
    if exclusion_radius is not None and not exclusion_radius > 0.0:
        raise ValueError("exclusion_radius must be positive: the core of "
                         "G G^dagger is not integrable at the source")
    k = wavenumber(omega, eps)
    r = r3(r)
    r0 = r3(r0)
    d = float(np.linalg.norm(r - r0))
    pref = omega**2 * im_eps

    if d == 0.0:
        b = exclusion_radius if exclusion_radius is not None else 0.5 / abs(k.real)
        r_cut = b + 9.21 / k.imag

        def radial(rho):
            a_c, b_c = _green_coefficients(rho, k)
            return 4.0 * np.pi * rho**2 * (
                np.abs(a_c) ** 2
                + (2.0 * np.real(a_c * np.conj(b_c)) + np.abs(b_c) ** 2) / 3.0
            )

        val, err = integrate_adaptive(radial, b, r_cut, spec)
        lhs = pref * float(val) * I3
        rhs = im_green_coincidence(omega, eps.real)
        meta = {
            "path": "coincidence",
            "exclusion_radius": float(b),
            "r_cut": float(r_cut),
            "im_eps": im_eps,
            "lhs_psd": is_psd(lhs),
            "quad_error": pref * err,
        }
        return make_report(lhs, rhs, meta)

    volume, cross, g_d, a, n_far = _volume_terms(r, r0, omega, eps)
    lhs = pref * (volume + cross)
    rhs = g_d.imag
    meta = {
        "path": "generic",
        "ball_radius": float(a),
        "n_far_nodes": int(n_far),
        "im_eps": im_eps,
        "separation": d,
    }
    extras = {
        "volume_term": pref * volume,
        "cross_term": pref * cross,
    }
    return make_report(lhs, rhs, meta, extras)


# ---------------------------------------------------------------------------
# bounding-surface closure


def _sphere_rule(center, radius, n_theta):
    n_phi = 2 * n_theta
    dirs, wt, w_phi = _sphere_directions(n_theta, n_phi)
    dirs = dirs.reshape(-1, 3)
    wts = (wt[:, None] * np.full((1, n_phi), w_phi)).reshape(-1) * radius**2
    return np.asarray(center) + radius * dirs, dirs, wts


def _surface_flux(center, radius, r, r0, omega, eps, n_theta):
    pts, normals, wts = _sphere_rule(center, radius, n_theta)
    k = wavenumber(omega, eps)
    g_r = _bulk_green_batch(pts - np.asarray(r)[None, :], k)
    g_r0 = _bulk_green_batch(pts - np.asarray(r0)[None, :], k)
    # transverse projector I - nn on the sphere
    proj = I3[None, :, :] - normals[:, :, None] * normals[:, None, :]
    inner = np.einsum("nji,njk,nkl->nil", g_r, proj, np.conj(g_r0))
    return omega * np.sqrt(eps) * np.einsum("n,nil->il", wts, inner)


def sphere_clears_points(radius, r, r0, k):
    """Whether r and r0 lie 2/|k| or more inside the sphere of radius
    centered at their midpoint, the one check_surface_term integrates
    over."""
    return radius - 0.5 * np.linalg.norm(r3(r) - r3(r0)) >= 2.0 / abs(k)


def check_surface_term(eps_model, sphere_radius, r, r0, omega):
    """Closure of the volume identity on a finite ball plus its boundary.

    The bulk medium is the scalar eps_model and G its closed form.
    lhs = volume term over the ball (zero for a lossless medium) plus the
    transverse surface flux of G^T (I - nn) G* over the bounding sphere;
    rhs = Im G(r, r0).  The sphere rule starts at _SURFACE_N_THETA polar
    nodes and is doubled, at most _SURFACE_DOUBLINGS times, until the
    surface term is self-consistent to 1 percent.  The surface term
    alone is reported in extras.
    """
    eps = complex(eps_model.eval(omega))
    k = wavenumber(omega, eps)
    r = r3(r)
    r0 = r3(r0)
    d = float(np.linalg.norm(r - r0))
    if eps.imag > 0.0 and d == 0.0:
        raise ValueError(
            "lossy coincidence has no finite Im G; separate the points")
    center = 0.5 * (r + r0)
    radius = float(sphere_radius)
    if not sphere_clears_points(radius, r, r0, k):
        raise ValueError(
            "sphere too small: atom points within two wavenumber depths "
            "of the bounding surface"
        )

    n_used = _SURFACE_N_THETA
    surf = _surface_flux(center, radius, r, r0, omega, eps, n_used)
    for _ in range(_SURFACE_DOUBLINGS):
        finer = _surface_flux(center, radius, r, r0, omega, eps, 2 * n_used)
        change = max_abs(finer - surf) / max(max_abs(finer), 1e-300)
        surf = finer
        n_used *= 2
        if change <= 1e-2:
            break

    if eps.imag > 0.0:
        # far region truncated at the ellipsoid inscribed by the sphere;
        # the residual shell is exponentially suppressed by Im k * R
        vol_sum, cross, g_d, _, _ = _volume_terms(
            r, r0, omega, eps, u_cap=2.0 * radius - d)
        volume = (omega**2 * eps.imag) * (vol_sum + cross)
        rhs = g_d.imag
    else:
        volume = np.zeros((3, 3), dtype=complex)
        if d == 0.0:
            rhs = im_green_coincidence(omega, eps.real)
        else:
            rhs = bulk_green(r, r0, omega, eps).imag

    lhs = volume + surf
    meta = {
        "radius": radius,
        "n_theta": n_used,
        "im_eps": eps.imag,
        "im_k_times_R": k.imag * radius,
        "separation": d,
    }
    extras = {"surface_term": surf, "volume_term": volume}
    return make_report(lhs, rhs, meta, extras)


# ---------------------------------------------------------------------------
# planar-decomposition lossless limit


def _planar_im_integrand_pieces(k, lateral, dz):
    s_z = float(np.sign(dz))
    dz = abs(dz)

    def propagating(theta):
        kperp = k * np.cos(theta)
        phase = np.cos(kperp * dz) + 1j * np.sin(kperp * dz)
        # Im(i dyad e^{i k_perp dz}) = Re(dyad e^{i k_perp dz});
        # k_par dk_par / k_perp = k sin(theta) d(theta) absorbs the
        # branch-point factor
        full = _bessel_dyad(k * np.sin(theta), kperp, k, lateral, s_z) \
            * phase[:, None, None]
        return k * np.sin(theta)[:, None, None] * full.real

    def evanescent(mu):
        kappa = k * np.sinh(mu)
        m = _bessel_dyad(k * np.cosh(mu), 1j * kappa, k, lateral, s_z)
        damp = np.exp(-kappa * dz)
        # i k_par dk_par / k_perp = i k cosh(mu) d(mu) / i = k cosh(mu) d(mu):
        # the overall i of the decomposition cancels against 1/k_perp = -i/kappa
        full = damp[:, None, None] * m * (k * np.cosh(mu))[:, None, None]
        return full.imag

    return propagating, evanescent


def check_appendix_lossless_limit(r, r0, omega, spec=None, mu_max=None):
    """Propagating/evanescent split of Im G in vacuum against the closed
    form.

    The propagating sector is integrated in the incidence angle, which
    removes the branch-point singularity; the evanescent sector is
    evaluated literally and is analytically zero entry by entry (the
    imaginary part of a lossless Green tensor is purely propagating), so
    it is reported in extras rather than fought over numerically.
    metadata quad_error is the sum of both sectors' G7-K15 error
    estimates over 8 pi^2, the scale of lhs.
    """
    disp = r3(r) - r3(r0)
    dx, dy, dz = disp
    lateral = float(np.hypot(dx, dy))
    if lateral == 0.0 and dz == 0.0:
        raise ValueError("coincidence limit: use im_green_coincidence")
    k = float(omega)
    prop, evan = _planar_im_integrand_pieces(k, lateral, dz)

    val, err = integrate_adaptive(prop, 0.0, 0.5 * np.pi, spec)
    lhs_local = val / (8.0 * np.pi**2)

    if mu_max is None:
        scale = max(abs(dz), lateral if lateral > 0.0 else abs(dz))
        mu_max = float(np.arccosh((30.0 * k + 40.0 / scale) / k))
    evan_val, evan_err = integrate_adaptive(evan, 0.0, mu_max, spec)
    evan_local = evan_val / (8.0 * np.pi**2)

    rot = _z_rotation(dx, dy)
    lhs = rot @ (lhs_local + evan_local) @ rot.T
    rhs = bulk_green(r, r0, omega, 1.0).imag
    meta = {
        "mu_max": float(mu_max),
        "lateral": lateral,
        "dz": float(dz),
        "evanescent_max_abs": max_abs(evan_local),
        "quad_error": (err + evan_err) / (8.0 * np.pi**2),
    }
    extras = {"evanescent_term": rot @ evan_local @ rot.T}
    return make_report(lhs, rhs, meta, extras)
