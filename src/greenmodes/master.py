"""Driven two-level dynamics in a structured thermal bath.

The reduced density operator evolves under a memory-integral equation
whose coefficients are time integrals of two bath correlators,

    C_up(tau) = S[ J(w) (n(w)+1) exp(-i (w - w_d) tau) ],
    C_dn(tau) = S[ J(w)  n(w)    exp(-i (w - w_d) tau) ],

with S either a sum over lines (discrete density: one entry per line of
the cavity's ModeSet, degenerate modes summed into it) or a frequency
integral (continuous density) and w_d the transition frequency.  A
SpectralDensity is the one spectral weight of the package: at T = 0 it
is also what the decay module marches, with memory kernel
D(tau) = -C_up(tau) at w_d = omega0.

Both shipped modes act through one real generator A(k1, k2) on the
Bloch vector x = (rho_ee, Re rho_eg, Im rho_eg, 1), so every step map is
an affine 4x4 matrix, applied by a sqrt(n)-blocked scan.
'finite_memory' keeps the literal int_0^t coefficients, as trapezoid
sums of the correlator tables, and marches fixed RK4 steps built from
A, halving the step until rho_ee settles; the trapezoid makes the march
second order.  'markov' extends the coefficients to infinity, which
gives a constant-rate Lindblad form with rates 2 pi J(w_d)(n+1),
2 pi J(w_d) n and a principal-value level shift; it propagates exactly
with exp(h A) on the requested grid.

Basis convention: index 0 is the excited state, index 1 the ground state.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .modes import coupling_strengths
from .numerics import fourier_table, integrate_pv, phase_sum


def thermal_occupation(omega, temperature):
    """Bose-Einstein occupation n(omega, T).

    Vectorized over omega.  T = 0 returns exact zeros, no 1/0 warnings.
    Negative omega is not meaningful here and raises.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise ValueError("thermal_occupation needs omega > 0")
    if temperature < 0.0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0.0:
        return np.zeros_like(omega) if omega.ndim else 0.0
    # past omega / T ~ 710 expm1 overflows to inf, and 1 / inf = 0 is
    # the occupation to double precision: not a failure
    with np.errstate(over="ignore"):
        out = 1.0 / np.expm1(omega / temperature)
    return out if omega.ndim else float(out)


@dataclass
class SpectralDensity:
    """Frequency-resolved coupling J, discrete lines or continuous density.

    temperature is the bath temperature T >= 0 of the thermal occupation
    n(omega, T) that the bath correlators weight J with.
    """

    provenance: str = "custom"
    omegas: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    sampler: Optional[object] = None  # callable J(omega), vectorized
    omega_max: float = 0.0
    temperature: float = 0.0
    edge_hints: Optional[np.ndarray] = None  # sharp features of J(omega)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.sampler is None) == (self.values is None):
            raise ValueError("exactly one of values / sampler must be given")
        if self.values is not None:
            self.omegas = np.asarray(self.omegas, dtype=float)
            self.values = np.asarray(self.values, dtype=float)
            if self.omegas.shape != self.values.shape or self.omegas.ndim != 1:
                raise ValueError("omegas and values must be matching 1-d arrays")
            if self.omegas.size == 0:
                raise ValueError("empty line list")
            if np.any(self.omegas <= 0.0):
                raise ValueError("line frequencies must be positive")
            if np.any(np.diff(self.omegas) <= 0.0):
                raise ValueError("line frequencies must be strictly increasing")
            if np.any(self.values < 0.0):
                raise ValueError("negative spectral density")
        else:
            if self.omega_max <= 0.0:
                raise ValueError("continuous density needs omega_max > 0")

    @property
    def is_discrete(self):
        return self.values is not None

    def value(self, omega):
        if self.is_discrete:
            raise ValueError("discrete density has no pointwise value")
        return np.asarray(self.sampler(np.atleast_1d(omega)), dtype=float)

    def occupation(self, omega):
        return thermal_occupation(omega, self.temperature)


def resonance_edge_hints(lines, eta, omega_max):
    """Panel edges bracketing softened lines (ModeSet.lines) with half
    width ~eta, geometric on both sides so a fixed Gauss rule resolves
    the core and the algebraic tails."""
    offs = eta * np.array(
        [-1000.0, -200.0, -50.0, -10.0, -3.0, 0.0, 3.0, 10.0, 50.0, 200.0, 1000.0])
    edges = (np.asarray(lines)[:, None] + offs[None, :]).ravel()
    return edges[(edges > 0.0) & (edges < omega_max)]


def spectral_density_nmqed(modeset, atom, temperature=0.0):
    """One entry per line of the mode set (ModeSet.lines, ascending),
    J the sum of |g_k|^2 / hbar^2 over the line's modes."""
    return SpectralDensity(
        provenance="nmqed",
        omegas=modeset.lines,
        values=modeset.line_sums(coupling_strengths(modeset, atom)),
        temperature=temperature,
        metadata={"n_modes": len(modeset)},
    )


def _lna_line_masses(modeset, atom):
    """Noise-current arithmetic for the frequency-integrated mass of each
    softened line in the vanishing-width limit,
    w_k^2 (gamma . E_k)^2 pi / (2 w_k pi).  The
    factors are kept in this order on purpose: the route stays a distinct
    chain from the |g|^2/hbar^2 one it must agree with."""
    fields = modeset.eval_all(atom.position)
    proj = (fields @ atom.dipole) ** 2
    om = modeset.omegas
    return om**2 * proj * np.pi / (2.0 * om * np.pi)


# upper end of the lna route's frequency window unless a caller sets one
LNA_OMEGA_MAX = 20.0


def spectral_density_lna(green, atom, omega_max=LNA_OMEGA_MAX,
                         temperature=0.0, analytic_limit=False):
    """J(omega) = omega^2 gamma . Im G(r0, r0, omega) . gamma / pi.

    Continuous on (0, omega_max) by default, sampled through the
    backend's coincidence Im G, one batched call per node array; a
    backend without im_coincidence (the Sommerfeld integral) raises
    ValueError here, before any sampling.  A softened mode-sum backend
    gets panel edges at its lines so tabulations do not step over them,
    and a lossy medium at the atom position raises through the backend.
    The backend's im_coincidence(r0) is called once, here, and the
    sampler reuses the function it returns.  analytic_limit=True needs a
    cavity mode-sum backend and returns the discrete line masses instead
    (the vanishing-softening limit taken analytically, line by line),
    one entry per line of its ModeSet.
    """
    modeset = getattr(green, "modeset", None)

    if analytic_limit:
        if modeset is None:
            raise ValueError("analytic_limit needs a cavity mode-sum backend")
        return SpectralDensity(
            provenance="lna",
            omegas=modeset.lines,
            values=modeset.line_sums(_lna_line_masses(modeset, atom)),
            temperature=temperature,
            metadata={"n_modes": len(modeset), "path": "analytic-limit"},
        )

    if not hasattr(green, "im_coincidence"):
        raise ValueError(
            "the %s backend has no coincidence Im G; the lna route needs "
            "a closed-form or mode-sum backend" % type(green).__name__)
    gamma = atom.dipole
    im_g = green.im_coincidence(atom.position)
    pref = 1.0 / np.pi

    def sampler(omega):
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        return pref * omega**2 * (gamma @ im_g(omega) @ gamma)

    hints = None
    eta = getattr(green, "eta", 0.0)
    if modeset is not None and eta > 0.0:
        hints = resonance_edge_hints(modeset.lines, eta, float(omega_max))

    return SpectralDensity(
        provenance="lna",
        sampler=sampler,
        omega_max=float(omega_max),
        temperature=temperature,
        edge_hints=hints,
    )


def kernel_equivalence_check(discrete, continuous, taus):
    """max_tau | sum_k J_k e^{-i w_k tau} - int J(w) e^{-i w tau} dw |.

    The discrete side must be a line density; the continuous side may
    itself be discrete when it was built through the analytic
    vanishing-softening path, in which case both transforms are plain
    sums over the same line positions.  Each side is transformed by
    bath_correlations at zero temperature and zero rotation.
    """
    if not discrete.is_discrete:
        raise ValueError("first argument must be a discrete density")
    if continuous.is_discrete:
        if not np.array_equal(continuous.omegas, discrete.omegas):
            raise ValueError("densities come from different mode data")
    elif continuous.omega_max <= discrete.omegas[-1]:
        raise ValueError(
            "continuous window ends below the highest discrete line")
    s_disc, s_cont = (
        bath_correlations(replace(d, temperature=0.0), 0.0, taus).c_up
        for d in (discrete, continuous))
    return float(np.max(np.abs(s_disc - s_cont)))


# ---------------------------------------------------------------------------
# bath correlators and the time march


@dataclass
class BathCorrelations:
    """C_up / C_dn sampled on a uniform tau grid (step h/2 of the solver)."""

    taus: np.ndarray
    c_up: np.ndarray
    c_dn: np.ndarray
    omega_d: float

    def cumulative(self):
        """k1(t), k2(t) = int_0^t C(tau) d(tau), trapezoid on the grid."""
        h = self.taus[1] - self.taus[0]

        def cum(c):
            out = np.empty_like(c)
            out[0] = 0.0
            np.cumsum(0.5 * h * (c[1:] + c[:-1]), out=out[1:])
            return out

        return cum(self.c_up), cum(self.c_dn)


def bath_correlations(density, omega_d, taus):
    """Correlator tables for a density at transition frequency omega_d.

    Both channels go through one phase sum, one exponential row per
    line of a discrete density.  At T = 0 the downward channel is
    identically zero and is not transformed.
    """
    taus = np.asarray(taus, dtype=float)
    thermal = density.temperature != 0.0

    def channels(w, j):
        nbar = density.occupation(w)
        if not thermal:
            return j * (nbar + 1.0)
        return np.stack([j * (nbar + 1.0), j * nbar], axis=-1)

    if density.is_discrete:
        c = phase_sum(taus, density.omegas - omega_d,
                      channels(density.omegas, density.values))
    else:
        c = fourier_table(lambda w: channels(w, density.value(w)),
                          0.0, density.omega_max, taus, rotation=omega_d,
                          edge_hints=density.edge_hints)
    if thermal:
        return BathCorrelations(taus, c[:, 0], c[:, 1], float(omega_d))
    return BathCorrelations(taus, c, np.zeros_like(c), float(omega_d))


def markov_coefficients(density, omega_d, spec=None):
    """Half-line tau integrals of the correlators: (k1, k2) constants.

    k1 = pi J(w_d)(n(w_d)+1) - i PV int J(w)(n(w)+1)/(w - w_d) dw, and the
    same with n alone for k2.  A continuous density's two principal
    values are one integrate_pv call over (0, omega_max) on the
    numerator J(w)(n(w)+1, n(w)), the pole subtracted there; its error
    estimate is dropped.  Discrete densities get zero delta-part unless
    a line sits exactly at omega_d with finite weight (error).
    """
    if density.is_discrete:
        detun = density.omegas - omega_d
        resonant = np.abs(detun) <= 1e-12 * omega_d
        if np.any(density.values[resonant] > 0.0):
            raise ValueError(
                "discrete line with finite weight exactly at omega_d; "
                "the Markov limit does not exist")
        keep = ~resonant
        nbar = density.occupation(density.omegas)
        up = density.values * (nbar + 1.0)
        dn = density.values * nbar
        s_up = float(np.sum(up[keep] / detun[keep]))
        s_dn = float(np.sum(dn[keep] / detun[keep]))
        return -1j * s_up, -1j * s_dn

    if not (0.0 < omega_d < density.omega_max):
        raise ValueError("omega_d must lie inside (0, omega_max)")
    j_d = float(density.value(omega_d)[0])
    n_d = float(density.occupation(omega_d))

    # up and down share the density samples: one two-component PV (at
    # T = 0 the occupation is 0 and the down component is 0.0 exactly)
    def g_updn(w):
        n = density.occupation(w)
        return density.value(w)[:, None] * np.stack([n + 1.0, n], axis=1)

    (s_up, s_dn), _ = integrate_pv(g_updn, omega_d, 0.0, density.omega_max,
                                   spec)

    k1 = np.pi * j_d * (n_d + 1.0) - 1j * float(s_up)
    k2 = np.pi * j_d * n_d - 1j * float(s_dn)
    return complex(k1), complex(k2)


def check_density_matrix(rho):
    """Validate a 2x2 state: Hermitian, unit trace, nonnegative spectrum.

    Returns the offending description or None.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        return "shape %r is not (2, 2)" % (rho.shape,)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        return "not Hermitian"
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        return "trace differs from 1"
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -1e-8:
        return "negative eigenvalue"
    return None


def _hamiltonian_over_hbar(atom):
    """Rotating-frame coherent part divided by hbar: detuning on the
    excited level plus the drive in the off-diagonals.  No drive means
    the atom's own frame: both entries zero."""
    if atom.drive is None:
        det = 0.0
        rabi = 0.0
    else:
        det = atom.omega0 - atom.drive.omega_L
        rabi = atom.drive.rabi
    return np.array([[det, 0.5 * rabi], [0.5 * rabi, 0.0]], dtype=complex)


def _bloch_generator(hmat, k1, k2):
    """Generator of dx/dt = A x on the real Bloch vector x = (rho_ee,
    Re rho_eg, Im rho_eg, 1), batched over the broadcast shape of the
    coefficient arrays: rates 2 Re k1 (down) and 2 Re k2 (up), coherence
    damping and rotation from k1 + conj(k2).  rho_gg = 1 - rho_ee and
    rho_ge = conj(rho_eg) hold exactly; the last row is zero (affine)."""
    k1 = np.asarray(k1, dtype=complex)
    k2 = np.asarray(k2, dtype=complex)
    rabi = 2.0 * hmat[0, 1].real
    g2 = 2.0 * k2.real
    damp = k1.real + k2.real
    w = k1.imag - k2.imag + hmat[0, 0].real
    amat = np.zeros(np.broadcast_shapes(k1.shape, k2.shape) + (4, 4))
    amat[..., 0, 0] = -(2.0 * k1.real + g2)
    amat[..., 0, 2] = -rabi
    amat[..., 0, 3] = g2
    amat[..., 1, 1] = -damp
    amat[..., 1, 2] = w
    amat[..., 2, 0] = rabi
    amat[..., 2, 1] = -w
    amat[..., 2, 2] = -damp
    amat[..., 2, 3] = -0.5 * rabi
    return amat


def _rk4_propagators(hmat, k1_tab, k2_tab, h):
    """Classical fourth-order step of dx/dt = A(t) x as one real 4x4
    matrix per step, returned minus the identity; the coefficient tables
    sit on the half-step grid (indices 2i, 2i + 1, 2i + 2 are a step's
    start, middle, end)."""
    amat = h * _bloch_generator(hmat, k1_tab, k2_tab)
    a, b, c = amat[:-1:2], amat[1::2], amat[2::2]
    s2 = b + 0.5 * (b @ a)
    s3 = b + 0.5 * (b @ s2)
    s4 = c + c @ s3
    return (a + 2.0 * s2 + 2.0 * s3 + s4) / 6.0


def _density_matrices(x):
    """2x2 states from Bloch vectors (rho_ee, Re rho_eg, Im rho_eg, ...)
    stacked along the first axis."""
    eg = x[:, 1] + 1j * x[:, 2]
    return np.stack([x[:, 0], eg, eg.conj(), 1.0 - x[:, 0]],
                    axis=-1).reshape(-1, 2, 2)


def _propagate(rho0, deltas):
    """Apply the step maps I + deltas[i] in order; returns every state.
    Blocks of ~sqrt(n) steps (the last padded with zeros) get prefix
    products by one stacked matmul per in-block position, kept minus the
    identity, (I + D)(I + Q) - I = D + Q + DQ, so near-identity steps are
    not rounded at 1; the state is carried across the block ends and one
    einsum applies the prefixes."""
    n = len(deltas)
    size = int(np.ceil(np.sqrt(n)))
    n_blocks = -(-n // size)
    blocks = np.concatenate([deltas, np.zeros((n_blocks * size - n, 4, 4))]
                            ).reshape(n_blocks, size, 4, 4)
    prefix = np.empty((size, n_blocks, 4, 4))
    prefix[0] = blocks[:, 0]
    for j in range(1, size):
        d = blocks[:, j]
        prefix[j] = d @ prefix[j - 1] + d + prefix[j - 1]
    starts = np.empty((n_blocks, 4))
    starts[0] = (rho0[0, 0].real, rho0[0, 1].real, rho0[0, 1].imag, 1.0)
    for k in range(1, n_blocks):
        starts[k] = starts[k - 1] + prefix[-1, k - 1] @ starts[k - 1]
    x = starts[:, None] + np.einsum("jkab,kb->kja", prefix, starts)
    return _density_matrices(np.vstack([starts[:1], x.reshape(-1, 4)[:n]]))


@dataclass
class MasterTrajectory:
    times: np.ndarray
    rhos: np.ndarray
    mode: str
    k1: complex = 0.0 + 0.0j
    k2: complex = 0.0 + 0.0j
    n_steps_used: int = 0
    warnings: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def rho_ee(self):
        return self.rhos[:, 0, 0].real

    @property
    def rho_eg(self):
        return self.rhos[:, 0, 1]

    @property
    def decay_rate(self):
        """Downward Lindblad rate 2 Re k1 (markov mode)."""
        return 2.0 * self.k1.real

    def steady_state(self):
        """Null state of the constant generator (markov mode only)."""
        if self.mode != "markov":
            raise ValueError("steady state defined for markov mode")
        amat = _bloch_generator(self.metadata["hmat"], self.k1, self.k2)
        # A y = -A x_mix - b for y = x - x_mix, x_mix = (1/2, 0, 0): with
        # vanishing rates the minimum-norm answer is the maximally mixed state
        rhs = -amat[:3, 3] - 0.5 * amat[:3, 0]
        y, *_ = np.linalg.lstsq(amat[:3, :3], rhs, rcond=None)
        return _density_matrices(y[None] + [0.5, 0.0, 0.0])[0]


def evolve_master_equation(atom, density, rho0, t_max, n_steps,
                           mode="markov", spec=None, tol=1e-8,
                           max_refinements=6):
    """Evolve the reduced state under the memory-integral equation.

    mode 'markov': coefficients frozen at their half-line values
    (constant-rate Lindblad form), propagated exactly with exp(h A) on
    the requested grid; trace or positivity violation raises
    RuntimeError with the offending time.  mode 'finite_memory': literal
    int_0^t coefficients as trapezoid sums of correlator tables, RK4
    steps (second order overall, from the trapezoid); violations are
    recorded as warnings, since equations of this type may transiently
    leave the state space.  The step is halved until
    rho_ee changes by <= tol between refinements; tol and
    max_refinements apply to this mode only.
    """
    if mode not in ("markov", "finite_memory"):
        raise ValueError("mode must be 'markov' or 'finite_memory'")
    if n_steps < 10:
        raise ValueError("n_steps must be >= 10")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    rho0 = np.asarray(rho0, dtype=complex)
    bad = check_density_matrix(rho0)
    if bad is not None:
        raise ValueError("initial state invalid: %s" % bad)
    omega_d = atom.omega0
    hmat = _hamiltonian_over_hbar(atom)
    warnings = []
    n = int(n_steps)

    if mode == "markov":
        from scipy.linalg import expm

        k1c, k2c = markov_coefficients(density, omega_d, spec)
        # exp(hA) - I without rounding at 1: hA phi1(hA), with phi1 the
        # corner of exp([[hA, I], [0, 0]]) = [[exp(hA), phi1(hA)], [0, I]]
        aug = np.zeros((8, 8))
        aug[:4, :4] = (t_max / n) * _bloch_generator(hmat, k1c, k2c)
        aug[:4, 4:] = np.eye(4)
        delta = aug[:4, :4] @ expm(aug)[:4, 4:]
        rhos = _propagate(rho0, np.broadcast_to(delta, (n, 4, 4)))
    else:
        k1c = k2c = 0.0 + 0.0j

        def run(n):
            half_taus = np.linspace(0.0, t_max, 2 * n + 1)
            k1_tab, k2_tab = bath_correlations(
                density, omega_d, half_taus).cumulative()
            return _propagate(
                rho0, _rk4_propagators(hmat, k1_tab, k2_tab, t_max / n))

        rhos = run(n)
        converged = max_refinements == 0
        for _ in range(max_refinements):
            finer = run(2 * n)
            change = np.max(np.abs(finer[::2, 0, 0].real - rhos[:, 0, 0].real))
            rhos, n = finer, 2 * n
            if change <= tol:
                converged = True
                break
        if not converged:
            warnings.append(
                "step refinement stopped at n=%d with rho_ee change %.3e > %.3e"
                % (n, change, tol))

    times = np.linspace(0.0, float(t_max), n + 1)
    tr = np.einsum("nii->n", rhos).real
    drift = np.max(np.abs(tr - 1.0))
    herm = np.max(np.abs(rhos - np.conj(np.transpose(rhos, (0, 2, 1)))))
    # eigenvalues of a unit-trace Hermitian 2x2 state: 1/2 +- |Bloch vector|
    eigs = 0.5 - np.hypot(rhos[:, 0, 0].real - 0.5, np.abs(rhos[:, 0, 1]))
    min_eig = float(np.min(eigs))
    worst_t = times[int(np.argmin(eigs))]
    if drift > 1e-6:
        msg = "trace drift %.3e at t <= %g" % (drift, t_max)
        if mode == "markov":
            raise RuntimeError(msg)
        warnings.append(msg)
    if min_eig < -1e-6:
        msg = "negative eigenvalue %.3e at t = %g" % (min_eig, worst_t)
        if mode == "markov":
            raise RuntimeError(msg)
        warnings.append(msg)

    return MasterTrajectory(
        times=times,
        rhos=rhos,
        mode=mode,
        k1=complex(k1c),
        k2=complex(k2c),
        n_steps_used=n,
        warnings=warnings,
        metadata={
            "hmat": hmat,
            "trace_drift": float(drift),
            "hermiticity_defect": float(herm),
            "min_eigenvalue": min_eig,
        },
    )
