"""Excited-state decay with memory.

The amplitude of an initially excited atom obeys
dc/dt = int_0^t D(t - s) c(s) ds with a stationary kernel
D(tau) = -int J(omega) exp(-i (omega - omega0) tau) d(omega),
where J >= 0 is a zero-temperature SpectralDensity from the master
module: discrete mode lines or a continuous density built from the
coincidence Im G.  So D(tau) is -C_up(tau) rotated at omega0, and the
Markov limit (rate plus shift) is the decay reading of its half-line
coefficient k1.  The Volterra march solves the dynamics.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .master import bath_correlations, markov_coefficients
from .numerics import volterra_march


def _check_decay(density, omega0):
    """A decay kernel is the zero-temperature density rotated at omega0."""
    if omega0 <= 0.0:
        raise ValueError("omega0 must be positive")
    if density.temperature != 0.0:
        raise ValueError("decay needs a zero-temperature density")


@dataclass
class DecayResult:
    times: np.ndarray
    c_es: np.ndarray
    population: np.ndarray
    markov_fit: Optional[tuple] = None
    march_error: Optional[float] = None
    march_error_reason: Optional[str] = None  # why march_error is None


def fit_rate_and_shift(times, c_es, lo_frac=0.35, hi_frac=0.95):
    """Least-squares exponential fit on a window of the trajectory.

    Returns (rate, shift): population ~ exp(-rate t), phase ~ shift t.
    A zero population in the window is a numerical failure (RuntimeError).
    """
    times = np.asarray(times)
    n = times.size
    lo = int(lo_frac * (n - 1))
    hi = max(int(hi_frac * (n - 1)), lo + 2)
    t = times[lo:hi]
    pop = np.abs(c_es[lo:hi]) ** 2
    if np.any(pop <= 0.0):
        raise RuntimeError("population touches zero inside the fit window")
    slope, _ = np.polyfit(t, np.log(pop), 1)
    phase = np.unwrap(np.angle(c_es[lo:hi]))
    dslope, _ = np.polyfit(t, phase, 1)
    return -slope, dslope


def solve_volterra(density, omega0, t_max, n_steps, fit_window=None):
    """March the memory equation of a zero-temperature density at
    transition frequency omega0 from c(0) = 1 on a uniform grid.

    volterra_march raises RuntimeError at the first divergent step.
    march_error is max |c_h - c_2h| / 3 over the nodes shared with a
    march on every other kernel sample (the scheme is second order); if
    only that 2h march diverges it is None, and march_error_reason says
    why.  fit_window, optional (lo_frac, hi_frac), attaches an
    exponential fit over that fraction of the trajectory as markov_fit.
    """
    _check_decay(density, omega0)
    if n_steps < 10:
        raise ValueError("n_steps must be >= 10")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    times = np.linspace(0.0, float(t_max), int(n_steps) + 1)
    h = float(t_max) / int(n_steps)
    ktab = -bath_correlations(density, omega0, times).c_up
    try:
        y = volterra_march(ktab, h)
    except RuntimeError as exc:
        raise RuntimeError(
            "volterra march unstable (%s); reduce the step t_max/n_steps"
            % exc) from None
    try:
        coarse = volterra_march(ktab[::2], 2.0 * h)
        err, reason = float(np.max(np.abs(y[::2] - coarse))) / 3.0, None
    except RuntimeError as exc:
        err, reason = None, "no step-halving estimate: the 2h %s" % exc
    fit = None
    if fit_window is not None:
        fit = fit_rate_and_shift(times, y, *fit_window)
    return DecayResult(times, y, np.abs(y) ** 2, fit, err, reason)


def markov_rate_and_shift(density, omega0, spec=None):
    """(Gamma, delta) of the Markov limit c(t) = exp(-Gamma t / 2 + i delta t).

    (2 Re k1, -Im k1) of the zero-temperature density at omega0:
    Gamma = 2 pi J(omega0), delta = PV int J(omega) / (omega - omega0).
    Discrete densities have Gamma = 0, and a line exactly at omega0 with
    finite weight has no Markov limit.
    """
    _check_decay(density, omega0)
    k1, _ = markov_coefficients(density, omega0, spec)
    # + 0.0 turns the -0.0 real part of a line density's k1 into 0.0
    return 2.0 * k1.real + 0.0, -k1.imag
