"""Shared numerical kernels: adaptive quadrature, principal values by
singularity subtraction, cached Gauss-Legendre rules, the delay-frequency
phase sum, and the Volterra history march as a divide-and-conquer
Toeplitz solve.

All routines are deterministic: fixed node sets, fixed subdivision order,
no randomness and no environment-dependent branching, so repeated runs
produce bitwise identical results.  Integrands are evaluated vectorized:
f(x) receives a 1-d array of nodes and must return an array whose leading
axis matches x; trailing axes (tensor components) are integrated
componentwise with the error taken as the max over components.  The
adaptive rule refines level by level: each bisection round evaluates all
of its new panels in one call to f, and its tolerance scales with the
running global estimate.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available estimate and the error bound so callers can
    decide whether to degrade gracefully or abort.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class TailTruncationWarning(UserWarning):
    """A half-infinite integral was cut at finite range and the integrand
    was not yet negligible there."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the adaptive quadrature, shared by every routine
    built on integrate_adaptive: a panel is accepted when its G7-K15
    error estimate is within its share of abs_tol + rel_tol |estimate|,
    and a call fails past max_subdivisions panels."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


# 15-point Kronrod pair (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# sorted nodes on [-1, 1] and matching weight vectors
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[:7][::-1]])
_W15 = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[:7][::-1]])
_W7 = np.zeros(15)
_W7[1:7:2] = _WG[:3]
_W7[7] = _WG[3]
_W7[9:15:2] = _WG[:3][::-1]


# both rules as the two columns of one weight matrix
_W = np.stack([_W15, _W7], axis=1)

# panels per integrand call; a wider round is evaluated in slices
_ROUND_PANELS = 64


def _gk15(f, lo, hi):
    """K15 values and G7-K15 error estimates of f on the panels [lo, hi].

    All nodes go to f in one call per _ROUND_PANELS panels; the error of
    a panel is the max over the integrand's components.  A non-finite
    value raises ConvergenceError naming its node.
    """
    hw = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi)[:, None] + hw[:, None] * _NODES).ravel()
    step = 15 * _ROUND_PANELS
    fx = np.concatenate([np.asarray(f(x[i:i + step]))
                         for i in range(0, x.size, step)])
    bad = ~np.isfinite(fx.reshape(x.size, -1)).all(axis=1)
    if bad.any():
        raise ConvergenceError("integrand is not finite at x = %.17g"
                               % x[np.argmax(bad)])
    fx = fx.reshape((lo.size, 15) + fx.shape[1:])
    rules = np.tensordot(fx, _W, axes=(1, 0))
    rules *= hw.reshape((-1,) + (1,) * (rules.ndim - 1))
    gk = rules[..., 0]
    err = np.abs(gk - rules[..., 1]).reshape(lo.size, -1).max(axis=1)
    return gk, err


def integrate_adaptive(f, a, b, spec=None):
    """Adaptive Gauss-Kronrod 15(7) integration of f over [a, b].

    Level-synchronous bisection.  Each round accepts every panel whose
    G7-K15 error estimate is within its share of the tolerance,
    tol * width / (b - a), or whose width has reached the rounding floor,
    bisects all the others, and evaluates their children in one call to
    f.  tol = abs_tol + rel_tol * |estimate|, where the estimate is the
    running global one (accepted plus active panels).  Returns
    (value, error_bound); error_bound is the sum of the accepted panels'
    G7-K15 estimates, an estimate rather than a rigorous bound.  Raises
    ConvergenceError (with .estimate / .error_bound attached) when the
    next round would exceed max_subdivisions panels, and (without them)
    in the first round whose integrand value is not finite.
    """
    spec = spec or QuadratureSpec()
    a = float(a)
    b = float(b)
    if b <= a:
        raise ValueError("integrate_adaptive needs b > a")
    span = b - a
    lo = np.array([a])
    hi = np.array([b])
    val, err = _gk15(f, lo, hi)
    n_panels = 1
    total = 0.0
    total_err = 0.0
    while True:
        estimate = total + val.sum(axis=0)
        scale = max(float(np.max(np.abs(estimate))), 1e-300)
        tol = spec.abs_tol + spec.rel_tol * scale
        width = hi - lo
        done = (err <= tol * width / span) | (
            width <= 1e-14 * (np.abs(lo) + np.abs(hi) + 1.0))
        total = total + val[done].sum(axis=0)
        total_err += float(err[done].sum())
        if done.all():
            return total, total_err
        active = ~done
        lo, hi, val, err = lo[active], hi[active], val[active], err[active]
        if n_panels + 2 * lo.size > spec.max_subdivisions:
            bound = total_err + float(err.sum())
            raise ConvergenceError(
                "quadrature did not converge in %d panels (err ~ %.3e)"
                % (n_panels, bound),
                estimate=total + val.sum(axis=0),
                error_bound=bound,
            )
        mid = 0.5 * (lo + hi)
        lo, hi = (np.stack([lo, mid], axis=1).ravel(),
                  np.stack([mid, hi], axis=1).ravel())
        val, err = _gk15(f, lo, hi)
        n_panels += lo.size


def integrate_pv(g, pole, a, b, spec=None):
    """Cauchy principal value of g(x) / (x - pole) over [a, b], with
    a < pole < b.

    g is the numerator alone, vectorized like an integrate_adaptive
    integrand, and is sampled once at the pole.  Subtracting the pole
    (Davis & Rabinowitz, Methods of Numerical Integration, 2nd ed., 1984)
    leaves the regular integrand (g(x) - g(pole)) / (x - pole),
    integrated adaptively on [a, pole] and [pole, b], and the singular part
    in closed form, g(pole) ln((b - pole) / (pole - a)).  A node that
    rounds onto the pole (possible at the width floor) contributes 0,
    not 0/0.  Returns (value, error_bound); error_bound is the sum of
    the two adaptive calls' G7-K15 estimates.
    """
    pole = float(pole)
    if not (a < pole < b):
        raise ValueError("pole must lie strictly inside (a, b)")
    g_pole = np.asarray(g(np.array([pole])))[0]

    def regular(x):
        d = (x - pole).reshape((-1,) + (1,) * np.ndim(g_pole))
        on_pole = d == 0.0
        return (np.where(on_pole, 0.0, np.asarray(g(x)) - g_pole)
                / np.where(on_pole, 1.0, d))

    left, e_left = integrate_adaptive(regular, a, pole, spec)
    right, e_right = integrate_adaptive(regular, pole, b, spec)
    value = left + right + g_pole * np.log((b - pole) / (pole - a))
    return value, e_left + e_right


def sommerfeld_radial(f, k, k_max, spec=None):
    """Integrate a radial spectral integrand over k_par in [0, k_max].

    Splits at Re(k), the branch point of k_perp = sqrt(k^2 - k_par^2), so
    the inverse-square-root behavior there is an endpoint singularity the
    adaptive rule resolves.  Warns when the integrand has not decayed at
    the cutoff.  Returns (value, error_bound).
    """
    spec = spec or QuadratureSpec()
    k = complex(k)
    if k.imag < 0.0:
        raise ValueError("need Im k >= 0")
    k_max = float(k_max)
    if not k_max > abs(k.real):
        raise ValueError("k_max must exceed |Re k|")
    split = abs(k.real)
    value = np.array(0.0, dtype=complex)
    err = 0.0
    edges = [0.0] + ([split] if split > 0.0 else []) + [k_max]
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = integrate_adaptive(f, lo, hi, spec)
        value = value + v
        err += e
    tail = float(np.max(np.abs(f(np.array([k_max]))))) * k_max
    scale = max(float(np.max(np.abs(value))), 1e-300)
    if tail > max(spec.rel_tol * scale, spec.abs_tol):
        warnings.warn(
            "integrand not negligible at k_max (tail estimate %.2e "
            "vs result scale %.2e); increase k_max" % (tail, scale),
            TailTruncationWarning,
            stacklevel=2,
        )
    return value, err


@functools.lru_cache(maxsize=None)
def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    computed once per order and returned read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# fourier_table: Gauss nodes per panel, most phase (rad) per panel
_FT_GAUSS = 24
_FT_MAX_PHASE = 18.0


def fourier_table(weight, a, b, taus, rotation=0.0, edge_hints=None):
    """int_a^b w(omega) exp(-i (omega - rotation) tau) d(omega) for every tau.

    Panel Gauss (_FT_GAUSS nodes) with the panel width chosen so the
    largest |tau| sees at most _FT_MAX_PHASE radians of phase per panel,
    which keeps the fixed rule accurate for all rows at once.  edge_hints
    inserts extra panel edges where the weight has sharp features (narrow
    resonances) that the uniform phase-bounded layout would step over.
    weight may return shape (nodes, k) for k channels sharing one phase
    matrix; the table then has shape (len(taus), k).  The weight is
    sampled once, on the whole node array; the transform is phase_sum,
    which factors it on a uniform delay grid.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if b <= a:
        raise ValueError("need b > a")
    tau_scale = float(np.max(np.abs(taus)))
    width = (b - a) if tau_scale == 0.0 else _FT_MAX_PHASE / tau_scale
    n_panels = max(int(np.ceil((b - a) / width)), 4)
    edges = np.linspace(a, b, n_panels + 1)
    if edge_hints is not None:
        hints = np.asarray(edge_hints, dtype=float)
        hints = hints[(hints > a) & (hints < b)]
        edges = np.unique(np.concatenate([edges, hints]))
        # collapse near-duplicate edges so panel widths stay positive
        keep = np.concatenate([[True], np.diff(edges) > 1e-13 * (b - a)])
        edges = edges[keep]
    x, w = gauss_legendre(_FT_GAUSS)
    lo = edges[:-1][:, None]
    hw = 0.5 * np.diff(edges)[:, None]
    nodes = (lo + hw * (x[None, :] + 1.0)).ravel()
    wts = (hw * w[None, :]).ravel()
    fw = (wts * np.asarray(weight(nodes), dtype=complex).T).T
    return phase_sum(taus, nodes - rotation, fw)


def phase_sum(taus, nu, weights, block=4096):
    """exp(-i outer(taus, nu)) @ weights, factored on uniform delay grids.

    weights holds one value per frequency in nu, or one row of a few
    columns (e.g. two bath channels sharing the phase matrix).  Every
    frequency gets its own exponential row; callers with degenerate
    lines pass one entry per line (ModeSet.lines).

    The delays are split as tau_{qB+r} = base_q + off_r + delta_{qB+r}
    with base_q = tau_{qB}, off_r = tau_r - tau_0 and B = ceil(sqrt(n)),
    so the transform is the product (exp(-i base nu)) @ (exp(-i off nu)
    * weights)^T: one complex GEMM over O(sqrt(n) len(nu)) exponentials
    instead of n len(nu).  Each phase product t nu is formed exactly as
    p + e (Veltkamp's split) and enters as exp(-i p)(1 - i e), and the
    residual delta enters to first order, -i delta sum(... nu weights),
    through the same GEMM.  B > 1 is used only when max|delta| max|nu|
    <= 2^-26, where the dropped (delta nu)^2 / 2 is below the unit
    roundoff; otherwise (a non-uniform grid) B = 1, base = taus, and
    the product is the plain dense one, which needs no error-free split:
    its phases carry the same rounding as the dense exponential.  block
    bounds the base rows transformed at once, so the phase matrix has
    at most block x len(nu) entries.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    nu = np.asarray(nu, dtype=float)
    cols = np.asarray(weights, dtype=complex).reshape(nu.size, -1)
    k = cols.shape[1]
    base, off, delta = _delay_split(taus.ravel(), nu)
    n_off = off.size
    exact = n_off > 1
    # weights and nu * weights for each offset row, laid out (nu, off, col)
    w_off = _phases(off, nu, exact).T[:, :, None] * np.concatenate(
        [cols, nu[:, None] * cols], axis=1)[:, None, :]
    w_off = w_off.reshape(nu.size, 2 * n_off * k)
    out = np.empty((base.size * n_off, 2 * k), dtype=complex)
    for i in range(0, base.size, block):
        rows = slice(i * n_off, (i + block) * n_off)
        out[rows] = (_phases(base[i:i + block], nu, exact)
                     @ w_off).reshape(-1, 2 * k)
    out = out[:taus.size]
    out = out[:, :k] - 1j * delta[:, None] * out[:, k:]
    return out.reshape(taus.shape + np.shape(weights)[1:])


def _delay_split(taus, nu):
    """(base, off, delta) with taus[q B + r] = base[q] + off[r] + delta,
    B > 1 when the first-order delta term is exact to rounding."""
    b = int(np.ceil(np.sqrt(taus.size)))
    if b > 1:
        idx = np.arange(taus.size)
        base = taus[::b]
        off = taus[:b] - taus[0]
        delta = (taus - base[idx // b]) - off[idx % b]
        if np.max(np.abs(delta)) * np.max(np.abs(nu), initial=0.0) <= 2.0**-26:
            return base, off, delta
    return taus, np.zeros(1), np.zeros(taus.size)


def _split(x):
    """Veltkamp split x = hi + lo with 26-bit halves, so products of
    halves are exact in double precision."""
    t = 134217729.0 * x  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _phases(t, nu, exact):
    """exp(-i outer(t, nu)); with exact, to rounding: outer(t, nu) = p + e
    exactly (Dekker's product) and the rounding error e is applied to
    first order, exp(-i p) (1 - i e)."""
    p = np.multiply.outer(t, nu)
    if not exact:
        return np.exp(-1j * p)
    th, tl = _split(t)
    nh, nl = _split(nu)
    e = np.multiply.outer(th, nh)
    e -= p
    e += np.multiply.outer(th, nl)
    e += np.multiply.outer(tl, nh)
    e += np.multiply.outer(tl, nl)
    out = np.exp(-1j * p)
    out *= 1.0 - 1j * e
    return out


# rows per dense leaf of the Toeplitz solve in volterra_march, and the
# |y| past which the march counts as diverged
_LEAF = 128
_BLOWUP = 10.0


def volterra_march(kernel, h):
    """March y'(t) = int_0^t K(t - s) y(s) ds, y0 = y(0) = 1, uniform grid.

    kernel holds K(i h) for i = 0..N; returns y at the same nodes.  The
    product-trapezoid predictor-corrector (second order in h) is linear
    and shift-invariant: y_m = sum_{0<j<m} a_{m-j} y_j + y0 a_m / 2 for
    m >= 2, y_1 from the explicit first step, a_1 = 1 + O(h^2) and
    a_p = (h/2 + h^3 K_0/4) h K_{p-1} + (h^2/2) K_p: a unit lower-
    triangular Toeplitz system, solved by divide and conquer (Hairer,
    Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 532 (1985)).  The
    first half's FFT convolution with a_{p>=2} joins the second half's
    right-hand side; leaves of _LEAF rows share one inverse and carry
    y_{lo-1} in increments, so a_1 stays out of the FFT and rounding
    does not build up step by step.  Raises RuntimeError at the first
    step whose |y| exceeds _BLOWUP or is not finite.
    """
    k = np.ascontiguousarray(kernel, dtype=complex)
    if k.ndim != 1 or k.size < 2:
        raise ValueError("kernel must be a 1-d array with >= 2 samples")
    h = float(h)
    n = k.size - 1
    bad = np.flatnonzero(~np.isfinite(k))
    if bad.size:
        raise RuntimeError("volterra march diverged at step %d (kernel "
                           "sample %d is not finite)" % (max(bad[0], 1), bad[0]))
    beta = 0.5 * h + 0.25 * h**3 * k[0]
    a = np.zeros(n + 1, dtype=complex)
    a[1:] = beta * h * k[:n] + 0.5 * h * h * k[1:]
    a[1] += 0.25 * h * h * k[0] - 0.5 * beta * h * k[0]  # a_1 - 1
    d1 = a[1]
    y = np.ones(n + 1, dtype=complex)
    rhs = 0.5 * y[0] * a
    rhs[1] = y[0] * (0.25 * h * h * (k[0] + k[1]) - d1)  # y_1 = a_1 y_0 + rhs_1
    # c = b - 1 for the leaf inverse's first column b, in increments
    m = min(_LEAF, n)
    c = np.zeros(m, dtype=complex)
    for q in range(1, m):
        c[q] = c[q - 1] + np.dot(a[1:q + 1], 1.0 + c[q - 1::-1])
    lag = np.subtract.outer(np.arange(m), np.arange(m))
    inv = np.where(lag >= 0, 1.0 + c[np.maximum(lag, 0)], 0.0)
    a[1] = 0.0

    @np.errstate(over="ignore", invalid="ignore")
    def solve(lo, hi):
        size = hi - lo
        if size <= _LEAF:
            carry = y[lo - 1]
            rhs[lo] += d1 * carry
            y[lo:hi] = carry + (c[:size] * carry + inv[:size, :size] @ rhs[lo:hi])
            bad = ~(np.abs(y[lo:hi]) <= _BLOWUP)
            if bad.any():
                i = lo + int(np.argmax(bad))
                raise RuntimeError(
                    "volterra march diverged at step %d (|y| = %.3g); "
                    "reduce the time step" % (i, abs(y[i])))
            return
        mid = lo + _LEAF * -(-size // (2 * _LEAF))
        solve(lo, mid)
        nf = 1 << (size - 1).bit_length()
        rhs[mid:hi] += np.fft.ifft(np.fft.fft(y[lo:mid], nf)
                                   * np.fft.fft(a[:size], nf))[mid - lo:size]
        solve(mid, hi)

    solve(1, n + 1)
    return y
