"""End-to-end acceptance runs over the bundled scenarios.

Each test drives one shipped scenario (scenarios/accept*.json), either
through the command line entry point or through the library, checks the
advertised tolerance, and prints a single PASS/FAIL line with the measured
numbers.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import csv
import json
import os
import time

import numpy as np
import pytest

from conftest import make_atom
from greenmodes import (
    BulkClosedForm,
    BulkSommerfeld,
    CavityGeometry,
    CavityModeSum,
    ConstantScalar,
    DrudeLorentz,
    SpectralDensity,
    TwoLevelAtom,
    bath_correlations,
    build_pec_box_modes,
    evolve_master_equation,
    solve_volterra,
    spectral_density_lna,
    spectral_density_nmqed,
)
from greenmodes import cli

SCEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "scenarios")

# scenario tag -> (subcommand, wall-clock budget in seconds)
MANIFEST = {
    "accept01": ("ww", 30.0),
    "accept02": ("ww", 10.0),
    "accept03": ("check-p1", 60.0),
    "accept04": ("check-magic", 120.0),
    "accept05": ("green", 60.0),
    "accept06": ("check-appendix", 60.0),
    "accept07": ("check-surface", 120.0),
    "accept08": ("ww", 20.0),
    "accept09": ("master", 60.0),
    "accept10": ("modes", 300.0),
}


def scenario_path(tag):
    return os.path.join(SCEN, tag + ".json")


def load_scenario(tag):
    with open(scenario_path(tag)) as fh:
        return json.load(fh)


def run_cli(args):
    rc = cli.main(list(args) + ["--quiet"])
    assert rc == 0, "cli exited with %d for %r" % (rc, args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        rd = csv.reader(fh)
        header = next(rd)
        rows = np.array([[float(x) for x in row] for row in rd])
    return header, rows


def as_array(node):
    # real arrays serialize as nested lists, complex ones as {re, im}
    if isinstance(node, dict):
        return np.asarray(node["re"]) + 1j * np.asarray(node["im"])
    return np.asarray(node, dtype=float)


def report(tag, ok, detail, elapsed, budget):
    print("%s %s %s  [%.1fs of %.0fs]"
          % (tag, "PASS" if ok else "FAIL", detail, elapsed, budget))


# ---------------------------------------------------------------------------
# scenario hygiene


def test_scenarios_validate_against_schema():
    for tag, (sub, _) in sorted(MANIFEST.items()):
        body = load_scenario(tag)
        name = cli.validate(sub, body)["name"]
        assert name and " " not in name
    names = [load_scenario(t)["name"] for t in MANIFEST]
    assert len(set(names)) == len(names)


# ---------------------------------------------------------------------------
# 1: free-space decay rate, golden value and fitted exponent


def test_accept_vacuum_decay_rate(tmp_path):
    tag, budget = "accept01", MANIFEST["accept01"][1]
    t0 = time.monotonic()
    body = load_scenario(tag)
    run_cli(["ww", "--config", scenario_path(tag), "--out", str(tmp_path)])
    summ = read_json(os.path.join(str(tmp_path),
                                  body["name"] + "_ww_summary.json"))
    # golden rate from the scenario's own numbers, natural units
    dz = body["atom"]["dipole"][2]
    w0 = body["atom"]["omega0"]
    golden = dz * dz * w0**3 / (3.0 * np.pi)
    rel_rate = abs(summ["gamma"] - golden) / golden
    rel_fit = abs(summ["fit_gamma"] - golden) / golden
    # the window must cover t in [2/Gamma, 5/Gamma]
    lo = body["time"]["fit_window"][0] * body["time"]["t_max"]
    hi = body["time"]["fit_window"][1] * body["time"]["t_max"]
    window_ok = lo <= 2.0 / golden + 1e-9 and hi >= 5.0 / golden - 1e-9
    elapsed = time.monotonic() - t0
    ok = rel_rate <= 1e-6 and rel_fit <= 0.05 and window_ok \
        and elapsed <= budget
    report(tag, ok, "rate rel=%.2e fit rel=%.2e" % (rel_rate, rel_fit),
           elapsed, budget)
    assert window_ok
    assert rel_rate <= 1e-6
    assert rel_fit <= 0.05
    assert elapsed <= budget


# ---------------------------------------------------------------------------
# 2: discrete-mode kernel equals the analytic-limit continuum kernel


def test_accept_kernel_route_equivalence():
    tag, budget = "accept02", MANIFEST["accept02"][1]
    t0 = time.monotonic()
    body = load_scenario(tag)
    geom = CavityGeometry(*body["geometry"]["lengths"])
    modeset = build_pec_box_modes(geom, body["geometry"]["n_max"])
    atom = TwoLevelAtom(position=np.array(body["atom"]["position"]),
                        dipole=np.array(body["atom"]["dipole"]),
                        omega0=body["atom"]["omega0"])
    k_disc = spectral_density_nmqed(modeset, atom)
    k_cont = spectral_density_lna(CavityModeSum(modeset), atom,
                                  analytic_limit=True)
    taus = np.random.default_rng(20240822).uniform(0.0, 30.0, size=100)
    # the memory kernels D = -C_up that ww marches on each route
    d1, d2 = (-bath_correlations(k, atom.omega0, taus).c_up
              for k in (k_disc, k_cont))
    scale = np.max(np.abs(d1))
    dev = np.max(np.abs(d1 - d2))
    elapsed = time.monotonic() - t0
    ok = dev <= 1e-10 * scale and elapsed <= budget
    report(tag, ok, "n_modes=%d max|dD|/max|D|=%.2e"
           % (len(modeset), dev / scale), elapsed, budget)
    assert body["geometry"]["n_max"] == 6
    assert dev <= 1e-10 * scale
    assert elapsed <= budget


# ---------------------------------------------------------------------------
# 3: conversion identity, softened width sweep


def test_accept_conversion_residual(tmp_path):
    tag, budget = "accept03", MANIFEST["accept03"][1]
    t0 = time.monotonic()
    body = load_scenario(tag)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli(["check-p1", "--config", scenario_path(tag), "--out", str(out_a)])
    eta10 = body["conversion"]["eta"] / 10.0
    run_cli(["check-p1", "--config", scenario_path(tag), "--out", str(out_b),
             "--set", "conversion.eta=%.17g" % eta10])
    env_a = read_json(str(out_a / (body["name"] + "_envelope.json")))
    env_b = read_json(str(out_b / (body["name"] + "_envelope.json")))
    rel_a = env_a["summary"]["rel_residual"]
    rel_b = env_b["summary"]["rel_residual"]
    elapsed = time.monotonic() - t0
    ok = rel_a <= 1e-3 and rel_b < rel_a and elapsed <= budget
    report(tag, ok, "rel(eta)=%.2e rel(eta/10)=%.2e" % (rel_a, rel_b),
           elapsed, budget)
    assert rel_a <= 1e-3
    assert rel_b < rel_a
    assert elapsed <= budget


# ---------------------------------------------------------------------------
# 4: volume identity under an absorption sweep at k*rho = 2


def test_accept_volume_identity_sweep(tmp_path):
    tag, budget = "accept04", MANIFEST["accept04"][1]
    t0 = time.monotonic()
    body = load_scenario(tag)
    run_cli(["check-magic", "--config", scenario_path(tag),
             "--out", str(tmp_path)])
    env = read_json(os.path.join(str(tmp_path),
                                 body["name"] + "_envelope.json"))
    rels = env["summary"]["rel_residuals"]
    deltas = env["summary"]["deltas"]
    # separation really sits at k*rho = 2 for this medium
    rho = np.linalg.norm(np.array(body["magic"]["r"])
                         - np.array(body["magic"]["r0"]))
    assert abs(rho * body["magic"]["omega"] - 2.0) < 1e-12
    within = max(rels) <= 2e-2
    # shrinking the absorption must not blow the residual up
    settles = all(rels[i + 1] < 1.1 * rels[i] for i in range(len(rels) - 1))
    elapsed = time.monotonic() - t0
    ok = within and settles and elapsed <= budget
    report(tag, ok, "rels=%s" % ",".join("%.1e" % r for r in rels),
           elapsed, budget)
    assert list(deltas) == [1e-1, 1e-2, 1e-3]
    assert within
    assert settles
    assert elapsed <= budget


# ---------------------------------------------------------------------------
# 5: spectral-integral backend against the closed form, random lossy pairs


def test_accept_backend_cross_check(tmp_path):
    tag, budget = "accept05", MANIFEST["accept05"][1]
    t0 = time.monotonic()
    body = load_scenario(tag)
    out_a = tmp_path / "closed"
    out_b = tmp_path / "sommerfeld"
    run_cli(["green", "--config", scenario_path(tag), "--out", str(out_a)])
    run_cli(["green", "--config", scenario_path(tag), "--out", str(out_b),
             "--set", "backend.type=sommerfeld"])
    _, rows_a = read_csv(str(out_a / (body["name"] + "_green.csv")))
    _, rows_b = read_csv(str(out_b / (body["name"] + "_green.csv")))
    assert rows_a.shape == rows_b.shape == (20, 7 + 18)
    assert np.array_equal(rows_a[:, :7], rows_b[:, :7])
    worst = 0.0
    for i in range(rows_a.shape[0]):
        scale = np.max(np.abs(rows_a[i, 7:]))
        worst = max(worst, np.max(np.abs(rows_a[i, 7:] - rows_b[i, 7:]))
                    / scale)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed <= budget
    report(tag, ok, "pairs=20 worst entry rel=%.2e" % worst, elapsed, budget)
    assert worst <= 1e-6
    assert elapsed <= budget


# ---------------------------------------------------------------------------
# 6: planar representation of the free-space imaginary part


def test_accept_planar_lossless_limit(tmp_path):
    tag, budget = "accept06", MANIFEST["accept06"][1]
    t0 = time.monotonic()
    body = load_scenario(tag)
    run_cli(["check-appendix", "--config", scenario_path(tag),
             "--out", str(tmp_path)])
    env = read_json(os.path.join(str(tmp_path),
                                 body["name"] + "_envelope.json"))
    rels = env["summary"]["rel_residuals"]
    # three axial and three oblique separations at k*rho in {1, 2, 5}
    offsets = np.array(body["appendix"]["offsets"])
    assert offsets.shape == (6, 3)
    dists = np.linalg.norm(offsets, axis=1) * body["appendix"]["omega"]
    assert np.allclose(sorted(dists), [1, 1, 2, 2, 5, 5], atol=1e-12)
    elapsed = time.monotonic() - t0
    ok = max(rels) <= 1e-3 and elapsed <= budget
    report(tag, ok, "worst rel=%.2e over %d offsets" % (max(rels), len(rels)),
           elapsed, budget)
    assert max(rels) <= 1e-3
    assert elapsed <= budget


# ---------------------------------------------------------------------------
# 7: far-sphere surface term, lossless closure and lossy suppression


def test_accept_surface_term(tmp_path):
    tag, budget = "accept07", MANIFEST["accept07"][1]
    t0 = time.monotonic()
    body = load_scenario(tag)
    out_a = tmp_path / "lossless"
    out_b = tmp_path / "lossy"
    run_cli(["check-surface", "--config", scenario_path(tag),
             "--out", str(out_a)])
    # absorption on, radius chosen so the field crosses five skin depths
    delta = 0.5
    omega = body["surface"]["omega"]
    radius = 5.0 / ((complex(1.0, delta) ** 0.5).imag * omega)
    run_cli(["check-surface", "--config", scenario_path(tag),
             "--out", str(out_b),
             "--set", "geometry.permittivity.value=[1.0, %.17g]" % delta,
             "--set", "surface.radii=[%.17g]" % radius])
    rep_a = read_json(str(out_a / (body["name"] + "_report.json")))["reports"][0]
    rep_b = read_json(str(out_b / (body["name"] + "_report.json")))["reports"][0]
    closure = rep_a["rel_residual"]
    surf = np.max(np.abs(as_array(rep_b["extras"]["surface_term"])))
    scale = np.max(np.abs(as_array(rep_b["rhs"])))
    ratio = surf / scale
    elapsed = time.monotonic() - t0
    ok = closure <= 5e-2 and ratio <= 1e-3 and elapsed <= budget
    report(tag, ok, "lossless closure=%.2e lossy surface/norm=%.2e"
           % (closure, ratio), elapsed, budget)
    assert closure <= 5e-2
    assert ratio <= 1e-3
    assert elapsed <= budget


@pytest.mark.parametrize("subcommand, tag, overrides", [
    ("check-magic", "accept04", []),
    ("green", "accept05", ["backend.type=sommerfeld"]),
    ("check-appendix", "accept06", []),
    ("check-surface", "accept07", ["geometry.permittivity.value=[1.0,0.5]",
                                   "surface.radii=[20.581710272714922]"]),
], ids=["accept04", "accept05-sommerfeld", "accept06", "accept07-lossy"])
def test_volume_and_bessel_kernels_raise_no_fp_exception(
        tmp_path, subcommand, tag, overrides):
    # the far-region ring sums divide by rho1 rho2 and the Bessel dyad by
    # k_par times the lateral distance, which is 0 on accept06's axis
    args = [subcommand, "--config", scenario_path(tag), "--out", str(tmp_path)]
    for override in overrides:
        args += ["--set", override]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        run_cli(args)


# ---------------------------------------------------------------------------
# 8: integrator order and closed-form oracles


def _rabi_exact(times, g, det):
    rabi = np.sqrt(det**2 + 4.0 * g * g)
    return np.exp(-0.5j * det * times) * (
        np.cos(0.5 * rabi * times)
        + 1j * (det / rabi) * np.sin(0.5 * rabi * times))


def test_accept_integrator_oracles(tmp_path):
    tag, budget = "accept08", MANIFEST["accept08"][1]
    t0 = time.monotonic()
    # resonant line: constant kernel, amplitude cos(g t); run to g*t = 10
    g = 1.0
    kern = SpectralDensity(omegas=np.array([1.0]), values=np.array([g * g]))

    def cosine_err(n):
        res = solve_volterra(kern, 1.0, 10.0, n)
        return np.max(np.abs(res.c_es - np.cos(g * res.times)))

    err4000 = cosine_err(4000)
    order_gain = cosine_err(2000) / err4000
    # detuned line: two-frequency beat against the closed form
    gd, det = 0.35, 0.4
    kern_d = SpectralDensity(omegas=np.array([1.0 + det]),
                             values=np.array([gd * gd]))
    res = solve_volterra(kern_d, 1.0, 20.0, 4000)
    rabi_err = np.max(np.abs(res.c_es - _rabi_exact(res.times, gd, det)))
    # the bundled scenario must run clean at this resolution as well
    body = load_scenario(tag)
    run_cli(["ww", "--config", scenario_path(tag), "--out", str(tmp_path)])
    summ = read_json(os.path.join(str(tmp_path),
                                  body["name"] + "_ww_summary.json"))
    elapsed = time.monotonic() - t0
    ok = err4000 <= 1e-4 and order_gain >= 3.5 and rabi_err <= 1e-4 \
        and elapsed <= budget
    report(tag, ok, "cosine err=%.2e gain=%.2f rabi err=%.2e"
           % (err4000, order_gain, rabi_err), elapsed, budget)
    assert err4000 <= 1e-4
    assert order_gain >= 3.5
    assert rabi_err <= 1e-4
    assert 0.0 <= summ["population_final"] <= 1.0
    assert elapsed <= budget


# ---------------------------------------------------------------------------
# 9: reduced dynamics, route pairing plus golden special cases


def test_accept_master_routes(tmp_path):
    tag, budget = "accept09", MANIFEST["accept09"][1]
    t0 = time.monotonic()
    body = load_scenario(tag)
    out_a = tmp_path / "discrete"
    out_b = tmp_path / "continuum"
    run_cli(["master", "--config", scenario_path(tag), "--out", str(out_a)])
    run_cli(["master", "--config", scenario_path(tag), "--out", str(out_b),
             "--set", "bath.route=lna", "--set", "bath.analytic_limit=true"])
    _, rows_a = read_csv(str(out_a / (body["name"] + "_master.csv")))
    _, rows_b = read_csv(str(out_b / (body["name"] + "_master.csv")))
    route_dev = np.max(np.abs(rows_a[:, 1] - rows_b[:, 1]))

    # golden decay: flat vacuum-like bath, excited start
    gsq = 0.36
    dens = SpectralDensity(sampler=lambda w: gsq * np.asarray(w) ** 3
                           / (6.0 * np.pi**2), omega_max=2.0)
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6))
    gamma = 2.0 * np.pi * gsq / (6.0 * np.pi**2)
    excited = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    traj = evolve_master_equation(atom, dens, excited, 3.0 / gamma, 1000,
                                  mode="markov")
    expect = np.exp(-gamma * traj.times)
    lindblad_rel = np.max(np.abs(traj.rho_ee - expect) / expect)

    # thermal balance: occupation ratio against the Boltzmann factor
    dens_t = SpectralDensity(sampler=lambda w: gsq * np.asarray(w) ** 3
                             / (6.0 * np.pi**2), omega_max=2.0,
                             temperature=2.0)
    ground = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    traj_t = evolve_master_equation(atom, dens_t, ground, 90.0, 2000,
                                    mode="markov")
    ree = traj_t.rho_ee[-1]
    boltz = np.exp(-0.5)
    balance_rel = abs(ree / (1.0 - ree) - boltz) / boltz

    elapsed = time.monotonic() - t0
    ok = route_dev <= 1e-6 and lindblad_rel <= 1e-3 \
        and balance_rel <= 1e-3 and elapsed <= budget
    report(tag, ok, "routes=%.1e lindblad rel=%.1e balance rel=%.1e"
           % (route_dev, lindblad_rel, balance_rel), elapsed, budget)
    assert route_dev <= 1e-6
    assert lindblad_rel <= 1e-3
    assert balance_rel <= 1e-3
    assert elapsed <= budget


# ---------------------------------------------------------------------------
# 10: structural invariants in one sweep


def test_accept_structural_invariants(tmp_path, cube_modeset, rng):
    tag, budget = "accept10", MANIFEST["accept10"][1]
    t0 = time.monotonic()
    body = load_scenario(tag)
    run_cli(["modes", "--config", scenario_path(tag), "--out", str(tmp_path)])
    env = read_json(os.path.join(str(tmp_path),
                                 body["name"] + "_envelope.json"))
    assert env["summary"]["n_modes"] == len(cube_modeset)

    # permittivity reflection at negative frequency, 100 samples per model
    models = [ConstantScalar(2.0 + 0.3j),
              DrudeLorentz(eps_inf=1.5, poles=[(0.8, 1.2, 0.05)])]
    omegas = rng.uniform(0.05, 8.0, size=100)
    refl = max(np.max(np.abs(m.eval(-omegas) - np.conj(m.eval(omegas))))
               for m in models)

    # reciprocity and negative-frequency reflection for every backend
    eps = ConstantScalar(2.0 + 0.3j)
    backends = [BulkClosedForm(eps), BulkSommerfeld(eps),
                CavityModeSum(cube_modeset, eta=1e-3)]
    recip = 0.0
    schwarz = 0.0
    for backend in backends:
        if isinstance(backend, CavityModeSum):
            r = rng.uniform(0.15, 0.85, size=3)
            r0 = rng.uniform(0.15, 0.85, size=3)
            w = 5.0
        else:
            r = rng.uniform(-0.8, 0.8, size=3)
            r0 = r + np.array([0.3, -0.2, 0.45])
            w = 1.3
        a = backend.evaluate(r, r0, w)
        scale = np.max(np.abs(a))
        recip = max(recip,
                    np.max(np.abs(a - backend.evaluate(r0, r, w).T)) / scale)
        schwarz = max(schwarz,
                      np.max(np.abs(backend.evaluate(r, r0, -w) - np.conj(a)))
                      / scale)

    # lowest degenerate shell of the cube is orthonormal
    shell = [i for i, w in enumerate(cube_modeset.omegas)
             if abs(w - cube_modeset.omegas[0]) < 1e-9]
    sub = cube_modeset.subset(shell)
    m = len(shell)
    gram = np.array([[sub.overlap(i, j) for j in range(m)] for i in range(m)])
    ortho = np.max(np.abs(gram - np.eye(m)))

    # trace and Hermiticity hold along a driven trajectory
    gsq = 0.36
    dens = SpectralDensity(sampler=lambda w: gsq * np.asarray(w) ** 3
                           / (6.0 * np.pi**2), omega_max=2.0)
    atom = make_atom(position=(0.0, 0.0, 0.0), dipole=(0.0, 0.0, 0.6))
    excited = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    traj = evolve_master_equation(atom, dens, excited, 20.0, 800,
                                  mode="markov")
    trace_drift = traj.metadata["trace_drift"]
    herm = traj.metadata["hermiticity_defect"]
    min_eig = traj.metadata["min_eigenvalue"]

    # coupling densities stay nonnegative on both construction routes
    dens_disc = spectral_density_nmqed(cube_modeset, make_atom(omega0=5.0))
    dens_cont = spectral_density_lna(BulkClosedForm(ConstantScalar(1.0)),
                                     make_atom(), omega_max=2.0)
    grid = np.linspace(0.05, 1.95, 77)
    j_min = min(float(np.min(dens_disc.values)),
                float(np.min(dens_cont.value(grid))))

    elapsed = time.monotonic() - t0
    ok = refl <= 1e-12 and recip <= 1e-8 and schwarz <= 1e-8 \
        and ortho <= 1e-10 and trace_drift <= 1e-12 and herm <= 1e-10 \
        and min_eig >= -1e-8 and j_min >= -1e-15 and elapsed <= budget
    report(tag, ok,
           "refl=%.1e recip=%.1e schwarz=%.1e ortho=%.1e trace=%.1e "
           "herm=%.1e eig=%.1e Jmin=%.1e"
           % (refl, recip, schwarz, ortho, trace_drift, herm, min_eig, j_min),
           elapsed, budget)
    assert refl <= 1e-12
    assert recip <= 1e-8
    assert schwarz <= 1e-8
    assert ortho <= 1e-10
    assert trace_drift <= 1e-12
    assert herm <= 1e-10
    assert min_eig >= -1e-8
    assert j_min >= -1e-15
    assert elapsed <= budget
