"""Excited-state decay with memory.

The amplitude of an initially excited atom obeys
dc/dt = int_0^t D(t - s) c(s) ds with a stationary kernel
D(tau) = -int w(omega) exp(-i (omega - omega0) tau) d(omega),
where the weight w >= 0 is either a discrete set of mode lines or a
continuous density built from the coincidence Im G.  The weight is the
master module's zero-temperature SpectralDensity, so D(tau) is -C_up(tau)
rotated at omega0 and the Markov limit (rate plus shift) is the decay
reading of its half-line coefficient k1.  The Volterra march solves the
dynamics.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .master import (
    SpectralDensity,
    bath_correlations,
    markov_coefficients,
    spectral_density_lna,
    spectral_density_nmqed,
)
from .numerics import Grid1D, QuadratureSpec, integrate_adaptive, volterra_march


@dataclass
class MemoryKernel:
    """Stationary decay kernel D(tau) with its frequency-domain origin.

    Discrete: weights[i] at omegas[i] (units of rate squared), stored
    sorted by frequency.  Continuous: weight(omega) density on
    [0, omega_max].  Exactly one of the two representations is
    populated; density holds it as a zero-temperature SpectralDensity,
    which does the validation.  provenance records which construction
    route produced it ('nmqed', 'lna', 'custom').
    """

    omega0: float
    provenance: str = "custom"
    omegas: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    weight: Optional[object] = None  # callable w(omega), vectorized
    omega_max: float = 0.0
    edge_hints: Optional[np.ndarray] = None  # sharp features of w(omega)
    metadata: dict = field(default_factory=dict)
    density: SpectralDensity = field(init=False, repr=False)

    def __post_init__(self):
        if self.omega0 <= 0.0:
            raise ValueError("omega0 must be positive")
        if self.weights is not None and np.ndim(self.omegas) == 1 \
                and np.shape(self.omegas) == np.shape(self.weights):
            order = np.argsort(self.omegas, kind="stable")
            self.omegas = np.asarray(self.omegas, dtype=float)[order]
            self.weights = np.asarray(self.weights, dtype=float)[order]
        self.density = SpectralDensity(
            provenance=self.provenance,
            omegas=self.omegas,
            values=self.weights,
            sampler=self.weight,
            omega_max=self.omega_max,
            edge_hints=self.edge_hints,
            metadata=self.metadata,
        )
        self.omegas = self.density.omegas
        self.weights = self.density.values

    @property
    def is_discrete(self):
        return self.density.is_discrete

    def total_weight(self, spec=None):
        """Sum or integral of w; this is -D(0) and the short-time
        curvature of the population."""
        if self.is_discrete:
            return float(np.sum(self.weights))
        spec = spec or QuadratureSpec()
        val, _ = integrate_adaptive(
            self.density.value, 0.0, self.omega_max, spec)
        return float(val)

    def table(self, taus):
        """D on an array of delays, vectorized over the whole grid."""
        taus = np.asarray(taus, dtype=float)
        corr = bath_correlations(self.density, self.omega0, taus.ravel())
        return -corr.c_up.reshape(taus.shape)


def _kernel(density, atom):
    return MemoryKernel(
        omega0=atom.omega0,
        provenance=density.provenance,
        omegas=density.omegas,
        weights=density.values,
        weight=density.sampler,
        omega_max=density.omega_max,
        edge_hints=density.edge_hints,
        metadata=density.metadata,
    )


def kernel_nmqed(modeset, atom):
    """Discrete kernel from a closed-cavity mode set: one line per mode
    at weight |g|^2 / hbar^2."""
    return _kernel(spectral_density_nmqed(modeset, atom), atom)


def kernel_lna(green, atom, spec=None, omega_max=None, analytic_limit=False):
    """Kernel from the coincidence Im G of a Green backend.

    w(omega) = (1 / hbar pi eps0) (omega^2 / c^2) gamma . Im G(r0, r0) . gamma.

    analytic_limit=True requires a cavity mode-sum backend and collapses
    each softened line onto its vanishing-width mass, producing a
    discrete kernel through noise-current arithmetic; this is the path
    that must match kernel_nmqed line by line.  Otherwise the kernel is
    continuous, tabulated from im_coincidence, and a lossy medium at the
    atom position raises through the backend.
    """
    return _kernel(spectral_density_lna(green, atom, spec=spec,
                                        omega_max=omega_max,
                                        analytic_limit=analytic_limit), atom)


@dataclass
class DecayResult:
    grid: Grid1D
    c_es: np.ndarray
    population: np.ndarray
    markov_fit: Optional[tuple] = None
    march_error: Optional[float] = None
    march_error_reason: Optional[str] = None  # why march_error is None

    @property
    def times(self):
        return self.grid.points


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


def solve_volterra(kernel, t_max, n_steps, fit_window=None):
    """March the memory equation from c(0) = 1 on a uniform grid.

    volterra_march raises RuntimeError at the first divergent step.
    march_error is max |c_h - c_2h| / 3 over the nodes shared with a
    march on every other kernel sample (the scheme is second order); if
    only that 2h march diverges it is None, and march_error_reason says
    why.  fit_window, optional (lo_frac, hi_frac), attaches an
    exponential fit over that fraction of the trajectory as markov_fit.
    """
    if n_steps < 10:
        raise ValueError("n_steps must be >= 10")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    grid = Grid1D(0.0, float(t_max), int(n_steps) + 1)
    ktab = kernel.table(grid.points)
    try:
        y = volterra_march(ktab, grid.h)
    except RuntimeError as exc:
        raise RuntimeError(
            "volterra march unstable (%s); reduce the step t_max/n_steps"
            % exc) from None
    try:
        coarse = volterra_march(ktab[::2], 2.0 * grid.h)
        err, reason = float(np.max(np.abs(y[::2] - coarse))) / 3.0, None
    except RuntimeError as exc:
        err, reason = None, "no step-halving estimate: the 2h %s" % exc
    fit = None
    if fit_window is not None:
        fit = fit_rate_and_shift(grid.points, y, *fit_window)
    return DecayResult(grid, y, np.abs(y) ** 2, fit, err, reason)


def markov_rate_and_shift(kernel, atom=None, spec=None):
    """(Gamma, delta) of the Markov limit c(t) = exp(-Gamma t / 2 + i delta t).

    (2 Re k1, -Im k1) of the kernel's zero-temperature density at omega0:
    Gamma = 2 pi w(omega0), delta = PV int w(omega) / (omega - omega0).
    Discrete kernels have Gamma = 0, and a line exactly at omega0 with
    finite weight has no Markov limit.  atom, when given, only
    cross-checks omega0.
    """
    if atom is not None and abs(atom.omega0 - kernel.omega0) > 1e-12 * kernel.omega0:
        raise ValueError("atom and kernel disagree on omega0")
    k1, _ = markov_coefficients(kernel.density, kernel.omega0, spec)
    # + 0.0 turns the -0.0 real part of a line kernel's k1 into 0.0
    return 2.0 * k1.real + 0.0, -k1.imag
