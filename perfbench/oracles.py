"""Untimed physics oracles over the command line's own outputs.

Every check reads back what ``greenmodes.cli.main`` wrote (tables and the
``<name>_envelope.json`` summaries) and compares it with a closed form or
an independent computation written here, never with the package's own
internals, so the oracles survive refactors of the code they check.

A check yields ``(name, value, tolerance)`` residuals; a run misses its
oracle when any residual exceeds its tolerance.  Tolerances are the
acceptance tolerances of the matching ``scenarios/accept*.json`` runs
unless a comment says otherwise.
"""

import csv
import json
import os

import numpy as np


def _envelope(outdir, run):
    with open(os.path.join(outdir, run.scenario["name"] + "_envelope.json")) as fh:
        return json.load(fh)


def _table(outdir, run, suffix):
    """Float rows of the CSV table <name>_<suffix>.csv, header skipped."""
    path = os.path.join(outdir, "%s_%s.csv" % (run.scenario["name"], suffix))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float(x) for x in row] for row in reader])


def table_rows(outdir):
    """Data rows over every CSV table in outdir (the CLI's table output)."""
    total = 0
    for entry in sorted(os.listdir(outdir)):
        if entry.endswith(".csv"):
            with open(os.path.join(outdir, entry)) as fh:
                total += sum(1 for _ in fh) - 1
    return total


def _rows_missing(rows, expected):
    return float(abs(rows.shape[0] - expected))


# ---------------------------------------------------------------------------
# vacuum-decay


def _check_vacuum(run, outdir):
    body = run.scenario
    summary = _envelope(outdir, run)["summary"]
    rows = _table(outdir, run, "ww")
    d = np.asarray(body["atom"]["dipole"])
    w0 = body["atom"]["omega0"]
    # natural units: Gamma = |d|^2 w0^3 / (3 pi eps0 hbar c^3)
    golden = float(d @ d) * w0**3 / (3.0 * np.pi)
    pop = rows[:, 3]
    return [
        ("golden_rate_rel", abs(summary["gamma"] - golden) / golden, 1e-6),
        ("fitted_rate_rel", abs(summary["fit_gamma"] - golden) / golden, 0.05),
        ("rows_missing", _rows_missing(rows, body["time"]["n_steps"] + 1), 0.0),
        ("population_outside_unit", float(max(0.0, -pop.min(), pop.max() - 1.0)),
         1e-9),
    ]


# ---------------------------------------------------------------------------
# cavity-lna-decay


def cube_line_weights(lengths, n_max, position, dipole):
    """(omegas, |g|^2/hbar^2) of every PEC box mode, natural units, vacuum
    filling, summed over the polarization branches of each index triple.

    Written from the textbook mode functions: two branches share the
    transverse projector (8/V)(1 - k k / k^2); a triple with one zero
    index has a single branch of norm 4/V along the zero axis.
    """
    lengths = np.asarray(lengths, dtype=float)
    vol = float(np.prod(lengths))
    x, y, z = position
    d = np.asarray(dipole, dtype=float)
    omegas, weights = [], []
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            for p in range(n_max + 1):
                zeros = (m == 0) + (n == 0) + (p == 0)
                if zeros >= 2:
                    continue
                k = np.pi * np.array([m, n, p]) / lengths
                omega = float(np.linalg.norm(k))
                cx, cy, cz = np.cos(k * (x, y, z))
                sx, sy, sz = np.sin(k * (x, y, z))
                u = d * np.array([cx * sy * sz, sx * cy * sz, sx * sy * cz])
                if zeros == 1:
                    proj = 4.0 / vol * float(u @ u)
                else:
                    khat = k / omega
                    proj = 8.0 / vol * (float(u @ u) - float(u @ khat) ** 2)
                omegas.append(omega)
                weights.append(0.5 * omega * proj)
    return np.array(omegas), np.array(weights)


def exact_line_population(omega0, omegas, weights, times):
    """|c(t)|^2 for one excitation coupled to discrete lines, from the
    eigenvectors of the single-excitation Hamiltonian (no time stepping)."""
    n = omegas.size
    ham = np.zeros((n + 1, n + 1))
    ham[0, 0] = omega0
    ham[0, 1:] = ham[1:, 0] = np.sqrt(weights)
    ham[1:, 1:] = np.diag(omegas)
    vals, vecs = np.linalg.eigh(ham)
    amp = np.exp(-1j * np.outer(times, vals)) @ (np.abs(vecs[0]) ** 2)
    return np.abs(amp) ** 2


def softening_bound(eta, t_max):
    """Largest population gap the eta softening can open by t_max.

    The continuous kernel softens every line into a Lorentzian of width
    ~eta, so the field amplitude the atom exchanges with a line decays as
    exp(-eta t / 2) where the discrete line keeps it; the populations can
    drift apart by at most about 1 - exp(-eta t / 2) < eta t / 2.  At
    eta = 1e-2 and t_max = 20 the measured gap was 0.009 to 0.040 over
    seeds 0-19, against this bound of 0.1; scaling the continuum weight
    by 1.3 opened a gap of 0.105 at seed 1, so the bound catches a line
    weight that is off by about a third or more.
    """
    return 0.5 * eta * t_max


def _check_cavity_lna(run, outdir):
    body = run.scenario
    geom = body["geometry"]
    atom = body["atom"]
    rows = _table(outdir, run, "ww")
    omegas, weights = cube_line_weights(geom["lengths"], geom["n_max"],
                                        atom["position"], atom["dipole"])
    below = omegas < body["kernel"]["omega_max"]
    exact = exact_line_population(atom["omega0"], omegas[below],
                                  weights[below], rows[:, 0])
    pop = rows[:, 3]
    return [
        ("rows_missing", _rows_missing(rows, body["time"]["n_steps"] + 1), 0.0),
        ("population_outside_unit", float(max(0.0, -pop.min(), pop.max() - 1.0)),
         1e-9),
        ("discrete_line_deviation", float(np.max(np.abs(pop - exact))),
         softening_bound(geom["eta"], body["time"]["t_max"])),
    ]


# ---------------------------------------------------------------------------
# cavity-master


def _check_master(run, outdir):
    body = run.scenario
    summary = _envelope(outdir, run)["summary"]
    rows = _table(outdir, run, "master")
    n_steps = body["evolution"]["n_steps"]
    return [
        ("rows_missing", _rows_missing(rows, n_steps + 1), 0.0),
        ("steps_refined", float(abs(summary["n_steps_used"] - n_steps)), 0.0),
        ("trace_drift", summary["trace_drift"], 1e-6),
    ]


def _master_pair(runs, outdirs):
    """accept09's route pairing: the same bath lines through both routes."""
    (run_a, dir_a), (run_b, dir_b) = zip(runs, outdirs)
    rows_a = _table(dir_a, run_a, "master")
    rows_b = _table(dir_b, run_b, "master")
    if rows_a.shape != rows_b.shape:
        return [("route_rho_ee_deviation", float("inf"), 1e-6)]
    return [("route_rho_ee_deviation",
             float(np.max(np.abs(rows_a[:, 1] - rows_b[:, 1]))), 1e-6)]


# ---------------------------------------------------------------------------
# identity-sweep


def bulk_green_closed_form(disp, omega, eps):
    """Dyadic Green tensor of a homogeneous medium away from coincidence,
    outgoing branch, delta term excluded: (N, 3) displacements in."""
    k = np.sqrt(complex(eps)) * omega
    if k.imag < 0.0:
        k = -k
    rho = np.linalg.norm(disp, axis=1)
    ehat = disp / rho[:, None]
    x = k * rho
    scale = np.exp(1j * x) / (4.0 * np.pi * k**2 * rho**3)
    a = -scale * (1.0 - 1j * x - x**2)
    b = scale * (3.0 - 3j * x - x**2)
    return (a[:, None, None] * np.eye(3)
            + b[:, None, None] * ehat[:, :, None] * ehat[:, None, :])


def _check_sommerfeld(run, outdir):
    body = run.scenario
    rows = _table(outdir, run, "green")
    ev = body["evaluation"]
    n = len(ev["points"]) * len(ev["frequencies"])
    if rows.shape != (n, 25):
        return [("rows_missing", _rows_missing(rows, n), 0.0)]
    eps_re, eps_im = body["geometry"]["permittivity"]["value"]
    got = rows[:, 7::2] + 1j * rows[:, 8::2]
    want = bulk_green_closed_form(rows[:, 0:3] - rows[:, 3:6], rows[0, 6],
                                  complex(eps_re, eps_im)).reshape(-1, 9)
    rel = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
    return [("rows_missing", 0.0, 0.0),
            ("closed_form_entry_rel", float(np.max(rel)), 1e-6)]


def _check_listing(run, outdir):
    n_max = run.scenario["geometry"]["n_max"]
    lengths = np.asarray(run.scenario["geometry"]["lengths"])
    rows = _table(outdir, run, "modes")
    expected = []
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            for p in range(n_max + 1):
                zeros = (m == 0) + (n == 0) + (p == 0)
                if zeros < 2:
                    w = np.pi * np.sqrt((m / lengths[0]) ** 2 + (n / lengths[1]) ** 2
                                        + (p / lengths[2]) ** 2)
                    expected += [w] * (2 - zeros)
    expected = np.sort(expected)
    count = 2 * n_max**3 + 3 * n_max**2
    if rows.shape[0] != count or expected.size != count:
        return [("rows_missing", _rows_missing(rows, count), 0.0)]
    dev = np.max(np.abs(rows[:, 4] - expected) / expected)
    return [("rows_missing", 0.0, 0.0), ("omega_rel", float(dev), 1e-12)]


def _rel_residuals(run, outdir):
    summary = _envelope(outdir, run)["summary"]
    if "rel_residuals" in summary:
        return [float(r) for r in summary["rel_residuals"]]
    return [float(summary["rel_residual"])]


def _check_identity(run, outdir):
    rels = _rel_residuals(run, outdir)
    if run.label == "conversion":
        return [("rel_residual", rels[0], 1e-3)]
    if run.label == "volume":
        # also: shrinking the absorption must not blow the residual up
        growth = max(rels[i + 1] / rels[i] for i in range(len(rels) - 1))
        return [("max_rel_residual", max(rels), 2e-2),
                ("residual_growth", growth, 1.1)]
    if run.label == "surface":
        return [("rel_residual", rels[0], 5e-2)]
    return [("max_rel_residual", max(rels), 1e-3)]


_RUN_CHECKS = {
    "vacuum-decay": _check_vacuum,
    "cavity-lna-decay": _check_cavity_lna,
    "master-nmqed": _check_master,
    "master-lna": _check_master,
    "conversion": _check_identity,
    "volume": _check_identity,
    "surface": _check_identity,
    "appendix": _check_identity,
    "sommerfeld": _check_sommerfeld,
    "listing": _check_listing,
}


def check_iteration(runs, outdirs, exit_codes):
    """{label: [(name, value, tol), ...]} for one pass over a workload.

    A non-zero exit code is itself a residual, so a failed run still
    shows up by name.  The master pair check is charged to its second run.
    """
    out = {}
    for run, outdir, code in zip(runs, outdirs, exit_codes):
        if code != 0:
            out[run.label] = [("exit_code", float(code), 0.0)]
            continue
        try:
            out[run.label] = _RUN_CHECKS[run.label](run, outdir)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            out[run.label] = [("unreadable_output: %s" % type(exc).__name__,
                               float("inf"), 0.0)]
    labels = [r.label for r in runs]
    if labels == ["master-nmqed", "master-lna"] and all(c == 0 for c in exit_codes):
        try:
            out["master-lna"] += _master_pair(runs, outdirs)
        except (OSError, ValueError, IndexError, StopIteration) as exc:
            out["master-lna"].append(("unreadable_output: %s" % type(exc).__name__,
                                      float("inf"), 0.0))
    return out


def passed(residuals):
    """NaN never passes."""
    return all(value <= tol for _, value, tol in residuals)
