"""Spectral densities, bath correlators, Markov coefficients and the
driven master equation."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_atom

from greenmodes import (
    BulkClosedForm,
    BulkSommerfeld,
    CavityModeSum,
    ConstantScalar,
    Drive,
    ModeSet,
    SpectralDensity,
    bath_correlations,
    coupling_strengths,
    evolve_master_equation,
    integrate_adaptive,
    kernel_equivalence_check,
    markov_coefficients,
    markov_rate_and_shift,
    spectral_density_lna,
    spectral_density_nmqed,
)
from greenmodes.cli import main as cli_main
from greenmodes.master import _hamiltonian_over_hbar, resonance_edge_hints

# PV integral of (w^3 / 6 pi^2) / (w - 1) on [0, 2]
# frozen reference: scipy.integrate.quad, weight='cauchy'
PV_CUBIC_SHIFT = 1.125790929359309e-01
# same integrand dressed with (nbar + 1) and nbar at T = 2 (kB = 1), gsq 0.36
# frozen the same way
PV_UP_T2 = 7.157151355123439e-02
PV_DN_T2 = 3.104304009429928e-02

GSQ = 0.36


def vacuum_sampler(w):
    return GSQ * np.asarray(w, dtype=float) ** 3 / (6.0 * np.pi**2)


EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
GROUND = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


# -- density construction and validation -------------------------------------


def test_density_requires_exactly_one_representation():
    with pytest.raises(ValueError):
        SpectralDensity()
    with pytest.raises(ValueError):
        SpectralDensity(omegas=np.array([1.0]), values=np.array([0.1]),
                        sampler=lambda w: w, omega_max=2.0)


def test_density_validation():
    with pytest.raises(ValueError):
        SpectralDensity(omegas=np.array([1.0, 2.0]), values=np.array([0.1]))
    with pytest.raises(ValueError):
        SpectralDensity(omegas=np.array([]), values=np.array([]))
    with pytest.raises(ValueError):
        SpectralDensity(omegas=np.array([0.0]), values=np.array([0.1]))
    with pytest.raises(ValueError):
        SpectralDensity(omegas=np.array([2.0, 1.0]),
                        values=np.array([0.1, 0.1]))
    # one entry per line: a repeated frequency is refused
    with pytest.raises(ValueError, match="strictly increasing"):
        SpectralDensity(omegas=np.array([1.0, 1.0]),
                        values=np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        SpectralDensity(omegas=np.array([1.0]), values=np.array([-0.1]))
    with pytest.raises(ValueError):
        SpectralDensity(sampler=lambda w: w, omega_max=0.0)


def test_density_defaults_to_zero_temperature():
    dens = SpectralDensity(omegas=np.array([1.0]), values=np.array([0.1]))
    assert dens.temperature == 0.0
    assert dens.occupation(1.0) == 0.0
    with pytest.raises(ValueError):
        dens.value(1.0)


def test_density_nmqed_lines(cube_modeset):
    atom = make_atom()
    dens = spectral_density_nmqed(cube_modeset, atom)
    assert dens.provenance == "nmqed"
    assert dens.is_discrete
    assert np.all(np.diff(dens.omegas) > 0.0)
    assert np.all(dens.values >= 0.0)
    assert dens.metadata["n_modes"] == len(cube_modeset)
    assert np.array_equal(dens.omegas, cube_modeset.lines)
    assert np.array_equal(dens.values, cube_modeset.line_sums(
        coupling_strengths(cube_modeset, atom)))


def test_density_lna_continuous_is_vacuum_cubic():
    green = BulkClosedForm(ConstantScalar(1.0))
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6))
    dens = spectral_density_lna(green, atom, omega_max=2.0)
    assert not dens.is_discrete
    w = np.array([0.3, 1.0, 1.7])
    assert np.max(np.abs(dens.value(w) - vacuum_sampler(w))) < 1e-12
    assert np.all(dens.value(w) >= 0.0)


def test_density_lna_analytic_limit_needs_mode_sum():
    with pytest.raises(ValueError):
        spectral_density_lna(BulkClosedForm(ConstantScalar(1.0)),
                             make_atom(), analytic_limit=True)


def test_density_lna_needs_coincidence_im_g():
    # the Sommerfeld backend has no coincidence limit: the density is
    # refused when it is built, naming the backend, before any sampling
    with pytest.raises(ValueError, match="BulkSommerfeld"):
        spectral_density_lna(BulkSommerfeld(ConstantScalar(1.0)), make_atom())


def test_cavity_lna_density_evaluates_modes_once(cube_modeset,
                                                 monkeypatch):
    # the point's line spectrum is built with the density: tabulating
    # it and taking its Markov limit reuse it
    calls = []
    eval_all = ModeSet.eval_all
    monkeypatch.setattr(ModeSet, "eval_all",
                        lambda self, r: calls.append(r) or eval_all(self, r))
    atom = make_atom(omega0=4.0)
    dens = spectral_density_lna(CavityModeSum(cube_modeset, eta=5e-2), atom,
                                omega_max=8.0)
    bath_correlations(dens, atom.omega0, np.linspace(0.0, 5.0, 201))
    markov_rate_and_shift(dens, atom.omega0)
    assert len(calls) == 1


def test_density_routes_agree_line_by_line(cube_modeset):
    atom = make_atom()
    d_nm = spectral_density_nmqed(cube_modeset, atom)
    d_ln = spectral_density_lna(CavityModeSum(cube_modeset, eta=1e-3), atom,
                                analytic_limit=True)
    assert d_ln.provenance == "lna"
    assert np.array_equal(d_nm.omegas, d_ln.omegas)
    scale = np.max(d_nm.values)
    assert np.max(np.abs(d_nm.values - d_ln.values)) < 1e-12 * scale


# -- kernel equivalence check -------------------------------------------------


def test_kernel_equivalence_discrete_routes(cube_modeset):
    atom = make_atom()
    d_nm = spectral_density_nmqed(cube_modeset, atom)
    d_ln = spectral_density_lna(CavityModeSum(cube_modeset, eta=1e-3), atom,
                                analytic_limit=True)
    taus = np.linspace(0.0, 10.0, 25)
    dev = kernel_equivalence_check(d_nm, d_ln, taus)
    scale = float(np.sum(d_nm.values))
    assert dev <= 1e-10 * scale


def test_kernel_equivalence_softened_line_converges():
    line_w, line_j = 3.0, 0.2
    disc = SpectralDensity(omegas=np.array([line_w]),
                           values=np.array([line_j]))
    taus = np.array([0.0, 0.5, 1.7])
    errs = []
    for eta in (1e-3, 1e-4):
        def lor(w, e=eta):
            w = np.asarray(w, dtype=float)
            return line_j * (e / np.pi) / ((w - line_w) ** 2 + e**2)

        cont = SpectralDensity(
            sampler=lor, omega_max=6.0,
            edge_hints=resonance_edge_hints([line_w], eta, 6.0))
        errs.append(kernel_equivalence_check(disc, cont, taus))
    assert errs[0] < 1e-3
    assert errs[1] < 0.6 * errs[0]


def test_kernel_equivalence_validation(cube_modeset):
    atom = make_atom()
    d_nm = spectral_density_nmqed(cube_modeset, atom)
    cont = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0)
    with pytest.raises(ValueError):
        kernel_equivalence_check(cont, d_nm, np.array([0.0]))
    # window ends below the top line of the cavity
    with pytest.raises(ValueError):
        kernel_equivalence_check(d_nm, cont, np.array([0.0]))
    other = SpectralDensity(omegas=np.array([1.0]), values=np.array([0.1]))
    with pytest.raises(ValueError):
        kernel_equivalence_check(d_nm, other, np.array([0.0]))


# -- bath correlators ---------------------------------------------------------


def test_bath_correlations_single_line():
    dens = SpectralDensity(omegas=np.array([1.4]), values=np.array([0.25]),
                           temperature=2.0)
    taus = np.linspace(0.0, 3.0, 31)
    corr = bath_correlations(dens, 1.0, taus)
    nbar = 1.0 / np.expm1(1.4 / 2.0)
    phase = np.exp(-1j * 0.4 * taus)
    assert np.max(np.abs(corr.c_up - 0.25 * (nbar + 1.0) * phase)) < 1e-14
    assert np.max(np.abs(corr.c_dn - 0.25 * nbar * phase)) < 1e-14


def test_bath_correlations_zero_temperature_has_no_upward_channel():
    dens = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0)
    taus = np.linspace(0.0, 2.0, 21)
    corr = bath_correlations(dens, 1.0, taus)
    assert np.all(corr.c_dn == 0.0)
    # tau = 0 reduces to the integrated density
    spec_mass = GSQ * 2.0**4 / 4.0 / (6.0 * np.pi**2)
    assert abs(corr.c_up[0] - spec_mass) < 1e-10


def test_cumulative_correlator_matches_analytic_line():
    dens = SpectralDensity(omegas=np.array([1.4]), values=np.array([0.25]))
    taus = np.linspace(0.0, 0.5, 501)
    corr = bath_correlations(dens, 1.0, taus)
    k1, k2 = corr.cumulative()
    det = 0.4
    exact = 0.25 * (1.0 - np.exp(-1j * det * taus)) / (1j * det)
    assert np.max(np.abs(k1 - exact)) < 1e-5
    assert np.all(k2 == 0.0)


# -- Markov coefficients ------------------------------------------------------


def test_markov_coefficients_zero_temperature():
    dens = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0)
    k1, k2 = markov_coefficients(dens, 1.0)
    assert abs(k1.real - np.pi * float(vacuum_sampler(1.0))) < 1e-14
    assert abs(k1.imag + GSQ * PV_CUBIC_SHIFT) < 1e-9
    assert k2 == 0.0


def test_markov_coefficients_thermal():
    dens = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0,
                           temperature=2.0)
    k1, k2 = markov_coefficients(dens, 1.0)
    j1 = np.pi * float(vacuum_sampler(1.0))
    nbar = 1.0 / np.expm1(0.5)
    assert abs(k1 - (j1 * (nbar + 1.0) - 1j * PV_UP_T2)) < 1e-9
    assert abs(k2 - (j1 * nbar - 1j * PV_DN_T2)) < 1e-9


def test_markov_shift_matches_cauchy_weight_quadrature_on_the_cube(
        cube_modeset):
    # independent reference: QUADPACK's QAWC (quad with weight='cauchy');
    # the softened line at pi sqrt(2) sits 0.44 above omega0
    from scipy import integrate

    atom = make_atom(omega0=4.0, dipole=(0.0, 0.06, 0.08))
    dens = spectral_density_lna(CavityModeSum(cube_modeset, eta=1e-2), atom,
                                omega_max=8.0)
    k1, _ = markov_coefficients(dens, 4.0)
    ref = integrate.quad(lambda w: float(dens.value(w)[0]), 0.0, 8.0,
                         weight="cauchy", wvar=4.0, epsabs=0.0, epsrel=1e-13,
                         limit=5000)[0]
    assert abs(-k1.imag - ref) <= 1e-12 * abs(ref)


def test_markov_coefficients_discrete_and_resonant_guard():
    dens = SpectralDensity(omegas=np.array([0.5, 1.5]),
                           values=np.array([0.2, 0.1]))
    k1, k2 = markov_coefficients(dens, 1.0)
    assert abs(k1 - (-1j * (0.2 / (-0.5) + 0.1 / 0.5))) < 1e-14
    assert k2 == 0.0
    bad = SpectralDensity(omegas=np.array([1.0]), values=np.array([0.1]))
    with pytest.raises(ValueError):
        markov_coefficients(bad, 1.0)
    outside = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0)
    with pytest.raises(ValueError):
        markov_coefficients(outside, 3.0)


# -- master equation: markov mode ---------------------------------------------


def test_lindblad_decay_from_excited_state():
    dens = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0)
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6))
    gamma = 2.0 * np.pi * float(vacuum_sampler(1.0))
    traj = evolve_master_equation(atom, dens, EXCITED, 3.0 / gamma, 1000,
                                  mode="markov")
    assert traj.decay_rate == pytest.approx(gamma, rel=1e-12)
    expect = np.exp(-gamma * traj.times)
    assert np.max(np.abs(traj.rho_ee - expect)) < 1e-3
    assert traj.metadata["trace_drift"] < 1e-12
    assert traj.metadata["hermiticity_defect"] < 1e-10
    assert traj.metadata["min_eigenvalue"] >= -1e-8


def test_coherence_decay_carries_level_shift():
    dens = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0)
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6))
    rho0 = np.array([[0.5, 0.35], [0.35, 0.5]], dtype=complex)
    traj = evolve_master_equation(atom, dens, rho0, 40.0, 2000, mode="markov")
    k1 = complex(traj.k1)
    # rho_eg evolves as exp(-k1 t): modulus pi J, phase the PV shift
    expect = 0.35 * np.exp(-k1 * traj.times)
    assert np.max(np.abs(traj.rho_eg - expect)) < 1e-6
    assert abs(-k1.imag - GSQ * PV_CUBIC_SHIFT) < 1e-9


def test_detailed_balance_at_finite_temperature():
    dens = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0,
                           temperature=2.0)
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6))
    traj = evolve_master_equation(atom, dens, GROUND, 90.0, 2000,
                                  mode="markov")
    ree = traj.rho_ee[-1]
    ratio = ree / (1.0 - ree)
    assert abs(ratio - np.exp(-0.5)) / np.exp(-0.5) < 1e-3
    nbar = 1.0 / np.expm1(0.5)
    ss = traj.steady_state()
    assert abs(ss[0, 0].real - nbar / (2.0 * nbar + 1.0)) < 1e-12


@settings(derandomize=True, database=None, deadline=None)
@given(omega=st.floats(0.2, 1.8), temperature=st.floats(0.05, 10.0))
def test_detailed_balance_on_random_inputs(omega, temperature):
    # downward over upward weight is the Boltzmann factor exp(-w / T):
    # in the Markov rates of a continuous density at w_d = w and in the
    # correlators of a single line at w
    boltzmann = np.exp(-omega / temperature)
    dens = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0,
                           temperature=temperature)
    k1, k2 = markov_coefficients(dens, omega)
    assert abs(k2.real / k1.real - boltzmann) <= 1e-12 * boltzmann
    line = SpectralDensity(omegas=np.array([omega]), values=np.array([0.25]),
                           temperature=temperature)
    corr = bath_correlations(line, 1.0, np.linspace(0.0, 3.0, 7))
    assert np.max(np.abs(corr.c_dn / corr.c_up - boltzmann)) \
        <= 1e-12 * boltzmann


def test_driven_steady_state_includes_shift():
    dens = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0)
    rabi, delta = 0.3, 0.1
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6),
                     drive=Drive(omega_L=1.0 - delta, rabi=rabi))
    traj = evolve_master_equation(atom, dens, GROUND, 740.0, 2000,
                                  mode="markov", tol=1e-7)
    gamma = traj.decay_rate
    d_eff = delta - (-traj.k1.imag)
    expect = (rabi**2 / 4.0) / (d_eff**2 + gamma**2 / 4.0 + rabi**2 / 2.0)
    naive = (rabi**2 / 4.0) / (delta**2 + gamma**2 / 4.0 + rabi**2 / 2.0)
    ss = traj.steady_state()[0, 0].real
    assert abs(ss - expect) < 1e-10
    assert abs(traj.rho_ee[-1] - expect) < 1e-6
    # ignoring the radiative line shift lands visibly elsewhere
    assert abs(naive - expect) > 5e-2
    assert traj.metadata["min_eigenvalue"] >= -1e-8


def test_markov_mode_is_exact_on_the_requested_grid():
    dens = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0)
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6))
    gamma = 2.0 * np.pi * float(vacuum_sampler(1.0))
    traj = evolve_master_equation(atom, dens, EXCITED, 3.0 / gamma, 400,
                                  mode="markov")
    # no step refinement: the propagator exp(h L) is exact
    assert traj.n_steps_used == 400
    assert traj.rhos.shape == (401, 2, 2)
    assert traj.warnings == []
    assert np.max(np.abs(traj.rho_ee - np.exp(-gamma * traj.times))) <= 1e-10


def test_markov_steady_state_is_the_propagated_limit():
    dens = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0)
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6),
                     drive=Drive(omega_L=0.9, rabi=0.3))
    # transient decays at ~Gamma / 2 ~ 0.02: below 1e-13 well before t = 2000
    traj = evolve_master_equation(atom, dens, GROUND, 2000.0, 1000,
                                  mode="markov")
    assert np.max(np.abs(traj.steady_state() - traj.rhos[-1])) <= 1e-10


# -- master equation: finite-memory mode --------------------------------------


def test_finite_memory_routes_agree(cube_modeset):
    atom = make_atom()
    d_nm = spectral_density_nmqed(cube_modeset, atom)
    d_ln = spectral_density_lna(CavityModeSum(cube_modeset, eta=1e-3), atom,
                                analytic_limit=True)
    # fixed step: this compares the two construction routes, not the
    # discretization, so refinement is switched off
    ta = evolve_master_equation(atom, d_nm, EXCITED, 5.0, 2000,
                                mode="finite_memory", max_refinements=0)
    tb = evolve_master_equation(atom, d_ln, EXCITED, 5.0, 2000,
                                mode="finite_memory", max_refinements=0)
    assert np.max(np.abs(ta.rho_ee - tb.rho_ee)) < 1e-6
    assert ta.metadata["hermiticity_defect"] < 1e-10
    assert ta.warnings == []
    # memory keeps some population in the detuned cavity
    assert ta.rho_ee[-1] > 0.5


def test_refinement_cap_is_reported_not_fatal():
    dens = SpectralDensity(omegas=np.array([1.4]), values=np.array([0.25]))
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6))
    traj = evolve_master_equation(atom, dens, EXCITED, 4.0, 20,
                                  mode="finite_memory", tol=1e-14,
                                  max_refinements=1)
    assert any("refinement stopped" in w for w in traj.warnings)


# -- validation and bookkeeping ------------------------------------------------


def test_evolve_validation():
    dens = SpectralDensity(sampler=vacuum_sampler, omega_max=2.0)
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6))
    with pytest.raises(ValueError):
        evolve_master_equation(atom, dens, EXCITED, 1.0, 100, mode="exact")
    with pytest.raises(ValueError):
        evolve_master_equation(atom, dens, EXCITED, 1.0, 5)
    with pytest.raises(ValueError):
        evolve_master_equation(atom, dens, 2.0 * EXCITED, 1.0, 100)
    skew = np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        evolve_master_equation(atom, dens, skew, 1.0, 100)


@pytest.mark.parametrize("mode", ["markov", "finite_memory"])
def test_evolve_rejects_non_positive_t_max_before_marching(mode):
    calls = []

    def sampler(w):
        calls.append(1)
        return vacuum_sampler(w)

    dens = SpectralDensity(sampler=sampler, omega_max=2.0)
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6))
    for t_max in (0.0, -1.0):
        with pytest.raises(ValueError, match="t_max must be positive"):
            evolve_master_equation(atom, dens, EXCITED, t_max, 100, mode=mode)
    assert calls == []


def test_steady_state_requires_markov_mode():
    dens = SpectralDensity(omegas=np.array([1.4]), values=np.array([0.25]))
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6))
    traj = evolve_master_equation(atom, dens, EXCITED, 1.0, 50,
                                  mode="finite_memory", max_refinements=0)
    with pytest.raises(ValueError):
        traj.steady_state()


# -- the Bloch-vector march against the complex vec(rho) reference -------------
#
# Reference: the generator on the row-major vec(rho) = (ee, eg, ge, gg) as a
# complex 4x4 Liouvillian, the same RK4 formula and one matrix-vector
# product per step, all in long double: the double-precision loop itself
# errs by up to ~1e-13 of max|rho| over 2 000 Markov steps, as much as the
# bound below.

LD = np.clongdouble


def _ref_liouvillian(hmat, k1, k2):
    hmat = np.asarray(hmat, dtype=LD)
    k1 = np.asarray(k1, dtype=LD)
    k2 = np.asarray(k2, dtype=LD)
    eye = np.eye(2, dtype=LD)
    lmat = np.empty(np.broadcast_shapes(k1.shape, k2.shape) + (4, 4),
                    dtype=LD)
    lmat[...] = -1j * (np.kron(hmat, eye) - np.kron(eye, hmat.T))
    g1 = 2.0 * k1.real
    g2 = 2.0 * k2.real
    lmat[..., 0, 0] -= g1
    lmat[..., 0, 3] += g2
    lmat[..., 3, 0] += g1
    lmat[..., 3, 3] -= g2
    lmat[..., 1, 1] -= k1 + np.conj(k2)
    lmat[..., 2, 2] -= np.conj(k1) + k2
    return lmat


def _ref_rk4_propagators(hmat, k1_tab, k2_tab, h):
    lmat = h * _ref_liouvillian(hmat, k1_tab, k2_tab)
    a, b, c = lmat[:-1:2], lmat[1::2], lmat[2::2]
    s2 = b + 0.5 * (b @ a)
    s3 = b + 0.5 * (b @ s2)
    s4 = c + c @ s3
    return np.eye(4, dtype=LD) + (a + 2.0 * s2 + 2.0 * s3 + s4) / 6.0


def _ref_expm(lmat):
    """Taylor series with scaling and squaring, in long double."""
    squarings = max(0, int(np.ceil(np.log2(np.abs(lmat).sum(0).max()))) + 1)
    lmat = lmat / 2.0**squarings
    out = term = np.eye(4, dtype=LD)
    for k in range(1, 30):
        term = term @ lmat / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _ref_propagate(rho0, steps):
    vecs = np.empty((len(steps) + 1, 4), dtype=LD)
    vecs[0] = rho0.reshape(4)
    for i, step in enumerate(steps):
        vecs[i + 1] = step @ vecs[i]
    return vecs.reshape(-1, 2, 2)


def _reference_rhos(atom, density, rho0, t_max, n, traj):
    hmat = _hamiltonian_over_hbar(atom)
    if traj.mode == "markov":
        step = _ref_expm((t_max / n) * _ref_liouvillian(hmat, traj.k1,
                                                        traj.k2))
        return _ref_propagate(rho0, np.broadcast_to(step, (n, 4, 4)))
    taus = np.linspace(0.0, t_max, 2 * n + 1)
    k1_tab, k2_tab = bath_correlations(density, atom.omega0,
                                       taus).cumulative()
    return _ref_propagate(
        rho0, _ref_rk4_propagators(hmat, k1_tab, k2_tab, t_max / n))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    n=st.sampled_from([10, 11, 99, 100, 101, 2000]),
    mode=st.sampled_from(["markov", "finite_memory"]),
    detuning=st.floats(-0.9, 0.9),
    rabi=st.floats(0.0, 2.0),
    temperature=st.floats(0.1, 2.0),
    lines=st.lists(st.tuples(st.floats(0.5, 3.0), st.floats(0.0, 0.1)),
                   min_size=1, max_size=4),
    scale=st.floats(0.5, 20.0),
    t_max=st.floats(0.2, 2.0),
    bloch=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, np.pi),
                    st.floats(0.0, 2.0 * np.pi)),
)
def test_bloch_march_matches_complex_liouvillian_loop(
        n, mode, detuning, rabi, temperature, lines, scale, t_max, bloch):
    # steps of at most 0.05 keep h |A| well inside the RK4 stability
    # region, where rounding is not amplified
    t_max = min(t_max, 0.05 * n)
    if mode == "markov":
        # a continuous thermal density: both Lindblad rates and both
        # level shifts are nonzero
        dens = SpectralDensity(
            sampler=lambda w: scale * vacuum_sampler(w), omega_max=2.0,
            temperature=temperature)
    else:
        # discrete thermal lines: complex k1, k2 tables from the phase sum
        lines = sorted(lines)
        dens = SpectralDensity(omegas=np.array([w for w, _ in lines]),
                               values=np.array([j for _, j in lines]),
                               temperature=temperature)
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6),
                     drive=Drive(omega_L=1.0 - detuning, rabi=rabi))
    radius, theta, phi = bloch
    eg = radius * np.sin(theta) * np.exp(1j * phi)
    rho0 = np.array([[0.5 + radius * np.cos(theta), eg],
                     [np.conj(eg), 0.5 - radius * np.cos(theta)]])
    traj = evolve_master_equation(atom, dens, rho0, t_max, n, mode=mode,
                                  max_refinements=0)
    ref = _reference_rhos(atom, dens, rho0, t_max, n, traj)
    assert traj.rhos.shape == ref.shape == (n + 1, 2, 2)
    assert float(np.max(np.abs(traj.rhos - ref))) <= \
        1e-13 * float(np.max(np.abs(ref)))


def test_zero_rate_markov_steady_state_is_maximally_mixed(cube_modeset):
    # accept09's cube, atom and T = 0 bath lines in markov mode: no line
    # sits at omega0, so both rates vanish and only the level shift is
    # left; the minimum-norm null state is the maximally mixed one
    atom = make_atom()
    dens = spectral_density_nmqed(cube_modeset, atom)
    traj = evolve_master_equation(atom, dens, EXCITED, 5.0, 2000,
                                  mode="markov")
    assert traj.decay_rate == 0.0
    assert np.max(np.abs(traj.steady_state() - 0.5 * np.eye(2))) <= 1e-12


def test_master_run_is_bitwise_repeatable(tmp_path):
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                       "accept09.json")
    with open(cfg) as fh:
        name = json.load(fh)["name"]
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert cli_main(["master", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
        outputs.append([(out / (name + suffix)).read_bytes()
                        for suffix in ("_master.csv",
                                       "_master_summary.json")])
    assert outputs[0] == outputs[1]
