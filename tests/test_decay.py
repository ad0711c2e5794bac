"""Decay on a zero-temperature spectral density: its memory kernel, route
agreement, Volterra dynamics and the Markov limit."""

import numpy as np
import pytest

from conftest import make_atom

from greenmodes import (
    BulkClosedForm,
    CavityModeSum,
    ConstantScalar,
    QuadratureSpec,
    SpectralDensity,
    bath_correlations,
    coupling_strengths,
    fit_rate_and_shift,
    integrate_adaptive,
    markov_rate_and_shift,
    solve_volterra,
    spectral_density_lna,
    spectral_density_nmqed,
)

# PV integral of (w^3 / 6 pi^2) / (w - 1) on [0, 2]
# frozen reference: scipy.integrate.quad, weight='cauchy'
PV_CUBIC_SHIFT = 1.125790929359309e-01


def vacuum_weight(gamma_sq):
    return lambda w: gamma_sq * np.asarray(w, dtype=float) ** 3 / (6.0 * np.pi**2)


def lines(omegas, weights, **kw):
    return SpectralDensity(omegas=np.array(omegas), values=np.array(weights),
                           **kw)


def vacuum(gamma_sq, **kw):
    return SpectralDensity(sampler=vacuum_weight(gamma_sq), omega_max=2.0,
                           **kw)


def kernel_table(density, omega0, taus):
    """The memory kernel D(tau) = -C_up(tau) that solve_volterra marches."""
    return -bath_correlations(density, omega0, taus).c_up


# -- kernel validation (the density's own checks are in test_master) ---------


def test_kernel_validation():
    with pytest.raises(ValueError):
        solve_volterra(lines([1.0], [0.1]), -1.0, 10.0, 100)
    with pytest.raises(ValueError):
        markov_rate_and_shift(lines([1.5], [0.1]), -1.0)


HOT = 1.0


@pytest.mark.parametrize("density", [lines([1.4], [0.1], temperature=HOT),
                                     vacuum(0.1, temperature=HOT)],
                         ids=["lines", "continuous"])
def test_thermal_density_refused(density):
    # the decay kernel is the T = 0 correlator: a thermal density's
    # upward channel has no place in the amplitude equation
    with pytest.raises(ValueError, match="zero-temperature"):
        solve_volterra(density, 1.0, 10.0, 100)
    with pytest.raises(ValueError, match="zero-temperature"):
        markov_rate_and_shift(density, 1.0)


def test_discrete_kernel_single_line_is_exact():
    g, det = 0.3, 0.7
    dens = lines([1.0 + det], [g * g])
    taus = np.linspace(0.0, 9.0, 40)
    got = kernel_table(dens, 1.0, taus)
    expect = -g * g * np.exp(-1j * det * taus)
    assert np.max(np.abs(got - expect)) < 1e-14
    assert abs(kernel_table(dens, 1.0, 2.5)
               - (-g * g * np.exp(-1j * det * 2.5))) < 1e-14
    assert dens.is_discrete
    assert abs(np.sum(dens.values) - g * g) < 1e-15


def test_kernel_table_keeps_shape():
    dens = lines([0.8, 1.3], [0.2, 0.1])
    taus = np.linspace(0.0, 4.0, 12).reshape(3, 4)
    assert kernel_table(dens, 1.0, taus).shape == (3, 4)


def test_continuous_kernel_against_direct_quadrature():
    gamma_sq = 0.2
    dens = vacuum(gamma_sq)
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
    for tau in (0.0, 0.7, 3.3):
        f = lambda w: (vacuum_weight(gamma_sq)(w)
                       * np.exp(-1j * (w - 1.0) * tau))
        direct, _ = integrate_adaptive(f, 0.0, 2.0, spec)
        assert abs(kernel_table(dens, 1.0, tau) - (-direct)) < 1e-11
    W = gamma_sq * 2.0**4 / 4.0 / (6.0 * np.pi**2)
    total, _ = integrate_adaptive(dens.value, 0.0, 2.0, QuadratureSpec())
    assert abs(total - W) < 1e-12


def test_kernel_nmqed_matches_coupling_strengths(cube_modeset):
    atom = make_atom()
    dens = spectral_density_nmqed(cube_modeset, atom)
    assert dens.provenance == "nmqed"
    assert dens.is_discrete
    # one entry per line: the couplings of each line's modes summed
    assert np.array_equal(dens.omegas, cube_modeset.lines)
    assert np.array_equal(dens.values, cube_modeset.line_sums(
        coupling_strengths(cube_modeset, atom)))
    assert dens.metadata["n_modes"] == len(cube_modeset)
    # the line positions are shared read-only, so the density cannot
    # change the mode set's spectrum
    with pytest.raises(ValueError):
        dens.omegas[0] = -1.0
    assert cube_modeset.lines[0] > 0.0


# -- route equivalence -------------------------------------------------------


def test_kernel_routes_agree_on_cavity(cube_modeset, rng):
    atom = make_atom()
    k_nm = spectral_density_nmqed(cube_modeset, atom)
    k_ln = spectral_density_lna(CavityModeSum(cube_modeset, eta=1e-3), atom,
                                analytic_limit=True)
    assert k_ln.provenance == "lna"
    taus = rng.uniform(0.0, 30.0, size=100)
    d_nm = kernel_table(k_nm, atom.omega0, taus)
    d_ln = kernel_table(k_ln, atom.omega0, taus)
    scale = np.max(np.abs(d_nm))
    assert np.max(np.abs(d_nm - d_ln)) <= 1e-10 * scale


# -- Markov limit ------------------------------------------------------------


def test_markov_rate_vacuum_chain():
    # w(omega0) = gamma^2 omega0^3 / 6 pi^2, so the rate is
    # gamma^2 omega0^3 / 3 pi; the shift is the frozen PV reference
    gamma_sq = 0.36
    rate, shift = markov_rate_and_shift(vacuum(gamma_sq), 1.0)
    assert abs(rate - gamma_sq / (3.0 * np.pi)) < 1e-14
    assert abs(shift - gamma_sq * PV_CUBIC_SHIFT) < 1e-9


def test_markov_rate_from_bulk_backend():
    green = BulkClosedForm(ConstantScalar(1.0))
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6))
    dens = spectral_density_lna(green, atom, omega_max=2.0)
    rate, shift = markov_rate_and_shift(dens, atom.omega0)
    assert abs(rate - 0.36 / (3.0 * np.pi)) < 1e-12
    assert abs(shift - 0.36 * PV_CUBIC_SHIFT) < 1e-9


def test_markov_discrete_resonant_line_rejected():
    with pytest.raises(ValueError):
        markov_rate_and_shift(lines([1.0], [0.1]), 1.0)


def test_markov_discrete_detuned_lines():
    rate, shift = markov_rate_and_shift(lines([0.8, 1.5], [0.3, 0.1]), 1.0)
    assert rate == 0.0
    assert abs(shift - (0.1 / 0.5 + 0.3 / (-0.2))) < 1e-14


def test_markov_omega0_outside_band_rejected():
    with pytest.raises(ValueError):
        markov_rate_and_shift(vacuum(0.1), 3.0)


# -- Volterra dynamics -------------------------------------------------------


def _rabi_exact(times, g, det):
    rabi = np.sqrt(det**2 + 4.0 * g * g)
    return np.exp(-0.5j * det * times) * (
        np.cos(0.5 * rabi * times)
        + 1j * (det / rabi) * np.sin(0.5 * rabi * times))


def test_single_mode_detuned_rabi():
    g, det = 0.35, 0.4
    dens = lines([1.4], [g * g])
    res = solve_volterra(dens, 1.0, 20.0, 4000)
    assert np.max(np.abs(res.c_es - _rabi_exact(res.times, g, det))) < 1e-4
    assert np.max(np.abs(res.population - np.abs(res.c_es) ** 2)) == 0.0
    assert res.times.size == 4001


def test_volterra_second_order_in_step():
    g, det = 0.35, 0.4
    dens = lines([1.4], [g * g])

    def err(n):
        res = solve_volterra(dens, 1.0, 20.0, n)
        return np.max(np.abs(res.c_es - _rabi_exact(res.times, g, det)))

    assert err(1000) / err(2000) >= 3.5


def test_markov_fit_recovers_rate_and_shift():
    # Gamma = 0.01 in natural units; the fit window sits over
    # Gamma t in [2, 4.75] where the decay is clean but not exhausted
    gamma_sq = 0.03 * np.pi
    res = solve_volterra(vacuum(gamma_sq), 1.0, 500.0, 10000,
                         fit_window=(0.4, 0.95))
    rate, shift = res.markov_fit
    assert abs(rate - 0.01) / 0.01 < 5e-2
    pv_shift = gamma_sq * PV_CUBIC_SHIFT
    assert abs(shift - pv_shift) / pv_shift < 2e-2


def test_short_time_curvature_matches_total_weight():
    gamma_sq = 0.06 * np.pi
    dens = vacuum(gamma_sq)
    res = solve_volterra(dens, 1.0, 0.05, 50)
    t = res.times[1:]
    # population = 1 - W t^2 + O(t^3) with W the integrated weight
    west = np.sum((1.0 - res.population[1:]) * t**2) / np.sum(t**4)
    W, _ = integrate_adaptive(dens.value, 0.0, 2.0, QuadratureSpec())
    assert abs(west - W) / W < 2e-2


def test_solve_volterra_validation():
    dens = lines([1.4], [0.1])
    with pytest.raises(ValueError):
        solve_volterra(dens, 1.0, 10.0, 5)
    with pytest.raises(ValueError):
        solve_volterra(dens, 1.0, -1.0, 100)


def test_fit_rejects_zero_population():
    times = np.linspace(0.0, 1.0, 101)
    c = np.exp(-times)
    c[70] = 0.0
    with pytest.raises(RuntimeError):
        fit_rate_and_shift(times, c)


def test_fit_zero_population_maps_to_numeric_exit():
    # the trajectory underflows inside the window: a computed result is
    # at fault, not the scenario, so the CLI exits 3, not 2
    from greenmodes import cli

    times = np.linspace(0.0, 10.0, 101)
    c = np.exp(-90.0 * times).astype(complex)
    with pytest.raises(RuntimeError, match="touches zero") as info:
        fit_rate_and_shift(times, c)
    code = next(code for kind, code in cli._EXIT_CODES.items()
                if isinstance(info.value, kind))
    assert code == cli.EXIT_NUMERIC


def test_solve_volterra_reports_march_error():
    g, det = 0.35, 0.4
    dens = lines([1.4], [g * g])
    res = solve_volterra(dens, 1.0, 20.0, 4000)
    true = np.max(np.abs(res.c_es - _rabi_exact(res.times, g, det)))
    assert 0.5 * true <= res.march_error <= 2.0 * true
    assert res.march_error_reason is None


def test_solve_volterra_survives_a_divergent_coarse_march():
    # flat kernel -g^2 at g h = 1.5: the h march stays bounded, the 2h
    # march of the step-halving estimate does not
    res = solve_volterra(lines([1.0], [1.0]), 1.0, 30.0, 20)
    assert np.all(np.abs(res.c_es) <= 1.0 + 1e-12)
    assert res.march_error is None
    assert "diverged" in res.march_error_reason
    assert "\n" not in res.march_error_reason
