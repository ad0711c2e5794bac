"""Seeded scenario generators, one per benchmark workload.

A workload is a short list of command-line runs.  Each run names a
subcommand, a scenario body and optional ``--set`` overrides; the harness
writes the body to a JSON file and calls ``greenmodes.cli.main`` on it.
The seed only moves inputs under which the workload's oracle holds
exactly (a dipole direction, an interior atom position, point pairs), so
every seed exercises the same code at the same sizes.

This module imports numpy only; it must not import greenmodes, so the
timed runs depend on nothing but the command line and its scenario schema.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

# accept01's |d|: its fit window, t = 400 .. 1000, spans 2 .. 5 lifetimes
VACUUM_DIPOLE_NORM = 0.2170803763674803


@dataclass
class Run:
    """One ``greenmodes.cli.main`` call: label doubles as file stem."""

    label: str
    subcommand: str
    scenario: dict
    overrides: tuple = ()

    def argv(self, config, outdir):
        args = [self.subcommand, "--config", config, "--out", outdir, "--quiet"]
        for assignment in self.overrides:
            args += ["--set", assignment]
        return args


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _interior(rng, lo=0.15, hi=0.85):
    return [float(x) for x in rng.uniform(lo, hi, size=3)]


def vacuum_decay(rng, tiny):
    """accept01 sizes; the seed draws the dipole direction."""
    dipole = VACUUM_DIPOLE_NORM * _unit(rng)
    body = {
        "name": "vacuum-decay",
        "geometry": {"type": "bulk",
                     "permittivity": {"model": "constant", "value": 1.0}},
        "backend": {"type": "closed_form"},
        "atom": {"position": [0.0, 0.0, 0.0],
                 "dipole": [float(x) for x in dipole], "omega0": 1.0},
        "kernel": {"route": "lna", "omega_max": 2.0},
        "time": {"t_max": 1100.0, "n_steps": 2200 if tiny else 22000,
                 "fit_window": [0.36363636363636365, 0.9090909090909091]},
    }
    return [Run("vacuum-decay", "ww", body)]


def cavity_lna_decay(rng, tiny):
    """Softened mode-sum kernel on the unit PEC cube; the seed draws an
    interior atom position and a dipole direction."""
    eta = 5e-2 if tiny else 1e-2
    body = {
        "name": "cavity-lna-decay",
        "geometry": {"type": "pec_box", "lengths": [1.0, 1.0, 1.0],
                     "n_max": 3 if tiny else 6, "eta": eta},
        "atom": {"position": _interior(rng),
                 "dipole": [float(x) for x in 0.1 * _unit(rng)],
                 "omega0": 4.0},
        "kernel": {"route": "lna", "omega_max": 8.0},
        "time": {"t_max": 5.0 if tiny else 20.0,
                 "n_steps": 1000 if tiny else 4000},
    }
    return [Run("cavity-lna-decay", "ww", body)]


def cavity_master(rng, tiny):
    """accept09 pair at a thermal bath: discrete lines against the
    continuum route's analytic limit; the seed draws the atom position."""
    body = {
        "name": "cavity-master",
        "geometry": {"type": "pec_box", "lengths": [1.0, 1.0, 1.0],
                     "n_max": 6},
        "atom": {"position": _interior(rng), "dipole": [0.0, 0.0, 0.1],
                 "omega0": 1.0},
        "bath": {"route": "nmqed", "temperature": 2.0},
        "evolution": {"mode": "finite_memory", "t_max": 5.0,
                      "n_steps": 1000 if tiny else 10000,
                      "max_refinements": 0},
        "initial_state": {"rho_ee": 1.0},
    }
    return [
        Run("master-nmqed", "master", body),
        Run("master-lna", "master", body,
            overrides=("bath.route=lna", "bath.analytic_limit=true")),
    ]


def _point_pairs(rng, n):
    """Pairs with |dz| >= 0.3 so the radial spectral integral has an
    exponential cutoff (the z = z0 plane is its documented weak spot)."""
    points, sources = [], []
    while len(points) < n:
        r = rng.uniform(-2.0, 2.0, size=3)
        r0 = rng.uniform(-1.0, 1.0, size=3)
        if abs(r[2] - r0[2]) < 0.3 or np.linalg.norm(r - r0) < 0.5:
            continue
        points.append([float(x) for x in r])
        sources.append([float(x) for x in r0])
    return points, sources


def identity_sweep(rng, tiny):
    """The identity checks at their acceptance tolerances, the radial
    spectral-integral backend on seeded pairs, and a large mode listing."""
    n_pairs = 5 if tiny else 20
    points, sources = _point_pairs(rng, n_pairs)
    eps = [2.0, 0.3]
    cube = {"type": "pec_box", "lengths": [1.0, 1.0, 1.0]}
    n_listing = 8 if tiny else 20
    return [
        Run("conversion", "check-p1", {
            "name": "conversion",
            "geometry": dict(cube, n_max=6 if tiny else 10),
            "conversion": {"r": [0.31, 0.52, 0.47], "r0": [0.31, 0.52, 0.47],
                           "eta": 0.0044428829381583665,
                           "lhs_path": "softened"},
        }),
        Run("volume", "check-magic", {
            "name": "volume",
            "magic": {"r": [1.2, 1.6, 0.0], "r0": [0.0, 0.0, 0.0],
                      "omega": 1.0, "deltas": [0.1, 0.01, 0.001],
                      "eps_real": 1.0},
        }),
        Run("surface", "check-surface", {
            "name": "surface",
            "geometry": {"type": "bulk",
                         "permittivity": {"model": "constant", "value": 1.0}},
            "surface": {"r": [0.45, 0.0, 0.0], "r0": [-0.45, 0.0, 0.0],
                        "omega": 1.0, "radii": [25.0]},
        }),
        Run("appendix", "check-appendix", {
            "name": "appendix",
            "appendix": {"r0": [0.0, 0.0, 0.0], "omega": 1.0,
                         "offsets": [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0],
                                     [0.0, 0.0, 5.0], [0.36, 0.48, 0.8],
                                     [0.72, 0.96, 1.6],
                                     [1.7999999999999998, 2.4, 4.0]]},
        }),
        Run("sommerfeld", "green", {
            "name": "sommerfeld",
            "geometry": {"type": "bulk",
                         "permittivity": {"model": "constant", "value": eps}},
            "backend": {"type": "sommerfeld", "k_max_multiplier": 30.0},
            "evaluation": {"points": points, "sources": sources,
                           "frequencies": [1.3]},
        }),
        Run("listing", "modes", {
            "name": "listing",
            "geometry": dict(cube, n_max=n_listing),
        }),
    ]


WORKLOADS = {
    "vacuum-decay": vacuum_decay,
    "cavity-lna-decay": cavity_lna_decay,
    "cavity-master": cavity_master,
    "identity-sweep": identity_sweep,
}


def generate(workload, seed, directory, tiny=False):
    """Write the workload's scenario files into directory; return
    [(run, config_path)] in execution order."""
    runs = WORKLOADS[workload](np.random.default_rng(seed), tiny)
    os.makedirs(directory, exist_ok=True)
    out = []
    for run in runs:
        path = os.path.join(directory, run.label + ".json")
        with open(path, "w") as fh:
            json.dump(run.scenario, fh, indent=1)
            fh.write("\n")
        out.append((run, path))
    return out
