"""Dyadic Green tensor of the vector Helmholtz equation in a scalar
medium, three ways: closed-form homogeneous bulk, a (2+1)-dimensional
radial spectral integral over lateral wavenumber, and a truncated cavity
mode sum.

Conventions: natural units (c = 1, so k = sqrt(eps) w); G propagates a
point dipole source, so for vacuum the far field is
e^{ik rho}(I - ee)/(4 pi rho) and the coincidence limit of Im G in a
lossless medium is (sqrt(eps) w / 6 pi) I.  Wavenumbers take
the Im k >= 0 branch (outgoing, decaying), which also makes every backend
satisfy the reflection G(-w) = G*(w) on the real axis.  The contact
delta-function term is excluded everywhere; the volume identity writes
its cross term in closed form (identities._volume_terms).

The backends are plain classes: all three have evaluate(r, r0, omega),
where an array of frequencies gives omega.shape + (3, 3) from one call;
the closed form and the mode sum also have im_coincidence(r), which
returns the function omega -> Im G(r, r, omega), so the mode sum builds
its point's line spectrum once however often that function is sampled.
"""

import numpy as np

from .numerics import sommerfeld_radial
from .tensors import I3, r3


def wavenumber(omega, eps):
    """k = sqrt(eps) w on the Im k >= 0 branch."""
    k = np.sqrt(complex(eps)) * omega
    if k.imag < 0.0:
        k = -k
    return k


def _green_coefficients(rho, k):
    """a, b of the closed form G = a I + b ee at distance rho > 0."""
    x = k * rho
    phase = np.exp(1j * x)
    denom = 4.0 * np.pi * k**2 * rho**3
    a = -phase * (1.0 - 1j * x - x**2) / denom
    b = phase * (3.0 - 3j * x - x**2) / denom
    return a, b


def _green_factors(disp, k):
    """(a, b, ehat) with G = a I + b ehat ehat^T for displacement rows
    disp (N, 3); a and b are (N,), ehat is (N, 3)."""
    disp = np.atleast_2d(np.asarray(disp, dtype=float))
    rho = np.linalg.norm(disp, axis=1)
    if np.any(rho == 0.0):
        raise ValueError("coincidence limit: use im_green_coincidence")
    a, b = _green_coefficients(rho, k)
    return a, b, disp / rho[:, None]


def _bulk_green_batch(disp, k):
    """Closed-form G for displacement rows disp (N, 3), N-batched."""
    a, b, ehat = _green_factors(disp, k)
    ee = ehat[:, :, None] * ehat[:, None, :]
    return a[:, None, None] * I3 + b[:, None, None] * ee


def bulk_green(r, r0, omega, eps):
    """Closed-form bulk Green tensor at r != r0 (delta term excluded)."""
    k = wavenumber(omega, eps)
    return _bulk_green_batch((r3(r) - r3(r0))[None, :], k)[0]


def im_green_coincidence(omega, eps):
    """Coincidence limit of Im G for a lossless medium: (sqrt(eps) w/6 pi) I.

    omega and eps broadcast; a scalar pair gives (3, 3), arrays give
    (..., 3, 3).  In a lossy medium Im G diverges at coincidence, so
    Im eps > 0 raises.
    """
    omega = np.asarray(omega, dtype=float)
    eps = np.asarray(eps, dtype=complex)
    if np.any(eps.imag != 0.0):
        raise ValueError(
            "Im G diverges at coincidence inside a lossy medium; "
            "only the lossless limit is finite"
        )
    if np.any(eps.real <= 0.0):
        raise ValueError("need eps > 0 for a propagating coincidence limit")
    if np.any(omega <= 0.0):
        raise ValueError("need omega > 0")
    scale = np.sqrt(eps.real) * omega / (6.0 * np.pi)
    return scale[..., None, None] * I3


def _bessel_dyad(kpar, kperp, k, lateral, sign_z):
    """Azimuth-integrated plane-wave dyad of the planar decomposition,
    shape kpar.shape + (3, 3), in the frame whose x axis lies along the
    lateral separation.

    Built from J0, J1, J2 of k_par times the lateral distance; sign_z is
    the sign of z - z0.  Callers multiply by their own measure and by
    e^{i k_perp |dz|}.
    """
    from scipy import special

    q = kperp / k
    pp = kpar / k
    alpha = kpar * lateral
    j0 = special.j0(alpha)
    j1 = special.j1(alpha)
    # J2 by the recurrence 2 J1(x)/x - J0(x), several times cheaper than
    # jv(2, x); 2 J1(x)/x -> 1 as x -> 0 (zero lateral separation)
    j2 = np.divide(2.0 * j1, alpha, out=np.ones_like(j1),
                   where=alpha != 0.0) - j0
    out = np.zeros(kpar.shape + (3, 3), dtype=complex)
    out[:, 0, 0] = np.pi * ((j0 + j2) + q**2 * (j0 - j2))
    out[:, 1, 1] = np.pi * ((j0 - j2) + q**2 * (j0 + j2))
    out[:, 2, 2] = 2.0 * np.pi * pp**2 * j0
    xz = -sign_z * 2j * np.pi * q * pp * j1
    out[:, 0, 2] = xz
    out[:, 2, 0] = xz
    return out


def _sommerfeld_integrand(kpar, k, lateral, dz_abs, sign_z):
    kperp = np.sqrt(k * k - kpar * kpar + 0j)
    flip = kperp.imag < 0.0
    kperp = np.where(flip, -kperp, kperp)
    pref = (1j / (8.0 * np.pi**2)) * (kpar / kperp) * np.exp(1j * kperp * dz_abs)
    return pref[:, None, None] * _bessel_dyad(kpar, kperp, k, lateral, sign_z)


def bulk_green_sommerfeld(r, r0, omega, eps, spec=None, k_max_multiplier=30.0):
    """Bulk Green tensor from the radial lateral-wavenumber integral.

    The 2-d spectral integral is reduced to Bessel kernels J0, J1, J2 in a
    frame whose x axis lies along the lateral separation, then rotated
    back.  Decay along k_par comes from e^{i k_perp |dz|}, so accuracy
    degrades when z = z0 (no exponential cutoff; the tail warning fires).
    The radial cutoff is k_max_multiplier |k| (oscillation scale) plus
    40 over the smallest positive separation (evanescent depth), capped
    at 500 |k| so pathological geometries cannot explode the range.
    Delta term excluded, as in the closed form.
    """
    disp = r3(r) - r3(r0)
    dx, dy, dz = disp
    lateral = float(np.hypot(dx, dy))
    if lateral == 0.0 and dz == 0.0:
        raise ValueError("coincidence limit: use im_green_coincidence")
    k = wavenumber(omega, eps)
    scale = min(s for s in (abs(dz), lateral) if s > 0.0)
    k_max = min(k_max_multiplier * abs(k) + 40.0 / scale, 500.0 * abs(k))
    sign_z = float(np.sign(dz))

    def f(kpar):
        return _sommerfeld_integrand(kpar, k, lateral, abs(dz), sign_z)

    g_local, _err = sommerfeld_radial(f, k, k_max, spec)
    rot = _z_rotation(dx, dy)
    return rot @ g_local @ rot.T


def _z_rotation(dx, dy):
    """Rotation about z taking the x axis to the direction (dx, dy)."""
    phi = np.arctan2(dy, dx)
    cp, sp = np.cos(phi), np.sin(phi)
    return np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])


def _each_frequency(green_at, omega):
    """green_at(w) for every w in omega, shaped omega.shape + (3, 3)."""
    omega = np.asarray(omega, dtype=float)
    return np.reshape([green_at(w) for w in omega.ravel().tolist()],
                      omega.shape + (3, 3))


class ResonanceError(RuntimeError):
    """An unsoftened mode sum was evaluated on one of its poles."""


def cavity_green(r, r0, omega, modeset, eta=0.0):
    """Truncated mode-sum Green tensor with optional pole softening.

    G = sum_k E_k(r) E_k(r0)^T / (w_k^2 - w^2 - i eta w).  Real mode
    fields make each term symmetric under (r, r0) exchange + transpose.
    omega may be an array: the mode fields are evaluated once and the
    result has shape omega.shape + (3, 3).  With eta = 0 a frequency on
    a mode line raises ResonanceError.  Truncation is bounded by
    modeset.omega_top; callers should keep |omega| well below it.
    """
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    lines, pairs = _mode_pairs(modeset, r, r0)
    omega = np.asarray(omega, dtype=float)
    w = omega[..., None]
    denom = lines**2 - w**2 - 1j * eta * w
    if eta == 0.0 and np.any(
            np.min(np.abs(denom), axis=-1) <= 1e-12 * omega**2):
        raise ResonanceError(
            "frequency hits a cavity resonance; use eta > 0 to soften the pole"
        )
    return ((1.0 / denom) @ pairs).reshape(omega.shape + (3, 3))


def _mode_pairs(modeset, r, r0):
    """(lines, pairs): the mode set's lines and the sum of
    E_k(r) E_k(r0)^T over the modes of each, flattened to (len(lines), 9);
    degenerate modes share one resonance denominator (ModeSet.lines)."""
    geom = modeset.geometry
    if not (geom.contains(r) and geom.contains(r0)):
        raise ValueError("points must lie inside the cavity")
    fr = modeset.eval_all(r)
    f0 = fr if np.array_equal(r3(r), r3(r0)) else modeset.eval_all(r0)
    return modeset.lines, modeset.line_sums(
        (fr[:, :, None] * f0[:, None, :]).reshape(len(fr), 9))


class BulkClosedForm:
    def __init__(self, eps_model):
        self.eps_model = eps_model

    def evaluate(self, r, r0, omega):
        return _each_frequency(
            lambda w: bulk_green(r, r0, w, self.eps_model.eval(w)), omega)

    def im_coincidence(self, r):
        """omega -> Im G(r, r, omega), finite in a lossless medium only.

        A scalar omega gives (3, 3); a 1-d array of n frequencies gives
        (n, 3, 3) from one batched evaluation, equal to the stacked
        scalar calls.  A homogeneous medium's value does not depend on r.
        """
        return lambda omega: im_green_coincidence(
            omega, self.eps_model.eval(omega))


class BulkSommerfeld:
    def __init__(self, eps_model, spec=None, k_max_multiplier=30.0):
        self.eps_model = eps_model
        self.spec = spec
        self.k_max_multiplier = float(k_max_multiplier)

    def evaluate(self, r, r0, omega):
        return _each_frequency(lambda w: bulk_green_sommerfeld(
            r, r0, w, self.eps_model.eval(w), self.spec,
            self.k_max_multiplier), omega)


class CavityModeSum:
    def __init__(self, modeset, eta=0.0):
        if eta < 0.0:
            raise ValueError("eta must be >= 0")
        self.modeset = modeset
        self.eta = float(eta)

    def evaluate(self, r, r0, omega):
        return cavity_green(r, r0, omega, self.modeset, self.eta)

    def im_coincidence(self, r):
        """omega -> L @ (E E^T), L = eta w / ((w_k^2 - w^2)^2 + eta^2 w^2),
        one Lorentzian row per line; the point's line spectrum (lines and
        summed dyads) is built here, once."""
        if self.eta == 0.0:
            raise ValueError(
                "mode-sum Im G at coincidence needs eta > 0 (discrete poles)"
            )
        lines, pairs = _mode_pairs(self.modeset, r, r)

        def im_g(omega):
            w = np.asarray(omega, dtype=float)[..., None]
            x = self.eta * w
            x2 = x * x
            if not np.all(np.isfinite(x2)):
                raise ValueError(
                    "eta = %g too large: (eta omega)^2 overflows" % self.eta)
            lor = x / ((lines**2 - w**2) ** 2 + x2)
            return (lor @ pairs).reshape(w.shape[:-1] + (3, 3))

        return im_g
