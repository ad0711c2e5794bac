"""Scenario-driven command line front end.

One JSON scenario file per run; the subcommand picks which machinery the
scenario feeds.  Outputs are plot-ready CSV tables plus JSON summaries,
wrapped in an envelope that echoes the scenario for reproducibility.
Floats in CSV carry 17 significant digits so identical scenarios produce
byte-identical tables.

Exit codes: 0 success, 2 schema or scenario error (nothing written),
3 convergence failure, 4 I/O failure.
"""

import argparse
import json
import os
import sys
import time
import warnings as _warnings

import numpy as np

from . import __version__
from .atom import Drive, TwoLevelAtom
from .constants import Constants, ThermalState
from .decay import kernel_lna, kernel_nmqed, markov_rate_and_shift, solve_volterra
from .greens import BulkClosedForm, BulkSommerfeld, CavityModeSum
from .identities import (
    check_appendix_lossless_limit,
    check_conversion_p1,
    check_magic_formula,
    check_surface_term,
)
from .master import (
    evolve_master_equation,
    markov_coefficients,
    spectral_density_lna,
    spectral_density_nmqed,
)
from .modes import CavityGeometry, build_pec_box_modes
from .numerics import QuadratureSpec
from .permittivity import ConstantScalar, DrudeLorentz

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

OUT_ENV_VAR = "GREENMODES_OUT"

SUBCOMMANDS = ("modes", "green", "check-p1", "check-magic", "check-surface",
               "check-appendix", "ww", "master")


class SchemaError(Exception):
    pass


# ---------------------------------------------------------------------------
# strict schema helpers


def _require_dict(value, where):
    if not isinstance(value, dict):
        raise SchemaError("%s must be an object" % where)
    return value


def _check_keys(block, where, allowed, required=()):
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise SchemaError("unknown key '%s' in %s" % (unknown[0], where))
    for key in required:
        if key not in block:
            raise SchemaError("missing key '%s' in %s" % (key, where))


_REQUIRED = object()  # default of a field that must be present


def _field(check):
    """Field reader read(block, key, where, default=_REQUIRED, **limits)
    from a value check check(value, name, **limits): the value under
    where.key is checked; an absent key gives default unchecked, or a
    schema error when the default is _REQUIRED."""

    def read(block, key, where, default=_REQUIRED, **limits):
        if key not in block:
            if default is _REQUIRED:
                raise SchemaError("missing key '%s' in %s" % (key, where))
            return default
        return check(block[key], "%s.%s" % (where, key), **limits)

    return read


def _number(v, name, minimum=None):
    """v as a finite float.  json.loads accepts NaN and Infinity, so the
    finiteness check is part of the schema; an integer beyond the float
    range counts as infinite."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError("%s must be a number" % name)
    if not abs(v) <= sys.float_info.max:
        raise SchemaError("%s must be finite" % name)
    v = float(v)
    if minimum is not None and v < minimum:
        raise SchemaError("%s must be >= %g" % (name, minimum))
    return v


def _integer(v, name, minimum=None):
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError("%s must be an integer" % name)
    if minimum is not None and v < minimum:
        raise SchemaError("%s must be >= %d" % (name, minimum))
    return v


def _string(v, name, choices=None):
    if not isinstance(v, str):
        raise SchemaError("%s must be a string" % name)
    if choices is not None and v not in choices:
        raise SchemaError("%s must be one of %s" % (name, sorted(choices)))
    return v


def _numbers(v, name, size=None):
    """A list of numbers as floats: exactly size of them, or at least one
    when size is None."""
    if not isinstance(v, list) or not v or size not in (None, len(v)):
        raise SchemaError("%s must be a list of %s numbers"
                          % (name, size or "one or more"))
    return [_number(x, "%s[%d]" % (name, i)) for i, x in enumerate(v)]


def _vec3s(v, name):
    if not isinstance(v, list) or not v:
        raise SchemaError("%s must be a non-empty list of 3-vectors" % name)
    return [_numbers(x, "%s[%d]" % (name, i), size=3) for i, x in enumerate(v)]


def _boolean(v, name):
    if not isinstance(v, bool):
        raise SchemaError("%s must be true or false" % name)
    return v


_float = _field(_number)
_int = _field(_integer)
_str = _field(_string)
_num_list = _field(_numbers)
_vec3 = _field(lambda v, name: _numbers(v, name, size=3))
_vec3_list = _field(_vec3s)
_bool = _field(_boolean)
_object = _field(_require_dict)


# ---------------------------------------------------------------------------
# scenario -> objects


def _build_constants(scenario):
    block = _require_dict(scenario.get("units", {}), "units")
    _check_keys(block, "units", allowed={"system"})
    system = _str(block, "system", "units", default="natural",
                  choices={"natural", "si"})
    return Constants.si() if system == "si" else Constants.natural()


def _build_quadrature(scenario):
    block = _require_dict(scenario.get("quadrature", {}), "quadrature")
    allowed = {"abs_tol", "rel_tol", "max_subdivisions", "omega_max",
               "pv_excision", "eta"}
    _check_keys(block, "quadrature", allowed)
    defaults = QuadratureSpec()
    return QuadratureSpec(
        abs_tol=_float(block, "abs_tol", "quadrature", defaults.abs_tol),
        rel_tol=_float(block, "rel_tol", "quadrature", defaults.rel_tol),
        max_subdivisions=_int(block, "max_subdivisions", "quadrature",
                              defaults.max_subdivisions, minimum=1),
        omega_max=_float(block, "omega_max", "quadrature", defaults.omega_max),
        pv_excision=_float(block, "pv_excision", "quadrature",
                           defaults.pv_excision),
        eta=_float(block, "eta", "quadrature", defaults.eta),
    )


def _build_permittivity(block, where):
    block = _require_dict(block, where)
    model = _str(block, "model", where, choices={"constant", "drude_lorentz"})
    if model == "constant":
        _check_keys(block, where, allowed={"model", "value"}, required=("value",))
        v = block["value"]
        if isinstance(v, list) and len(v) == 2:
            v = _numbers(v, where + ".value")
            return ConstantScalar(complex(v[0], v[1]))
        return ConstantScalar(complex(_number(v, where + ".value")))
    _check_keys(block, where, allowed={"model", "eps_inf", "poles"})
    eps_inf = _float(block, "eps_inf", where, default=1.0)
    poles = block.get("poles", [])
    if not isinstance(poles, list):
        raise SchemaError("%s.poles must be a list of [wp, w0, g]" % where)
    parsed = [tuple(_numbers(p, "%s.poles[%d]" % (where, i), size=3))
              for i, p in enumerate(poles)]
    return DrudeLorentz(eps_inf=eps_inf, poles=parsed)


def _build_geometry(scenario, expect=None):
    block = _object(scenario, "geometry", "scenario")
    kind = _str(block, "type", "geometry", choices={"bulk", "pec_box"})
    if expect is not None and kind != expect:
        raise SchemaError("geometry.type must be '%s' for this subcommand" % expect)
    if kind == "bulk":
        _check_keys(block, "geometry", allowed={"type", "permittivity"},
                    required=("permittivity",))
        return "bulk", _build_permittivity(block["permittivity"],
                                           "geometry.permittivity")
    _check_keys(block, "geometry",
                allowed={"type", "lengths", "n_max", "eta", "permittivity"},
                required=("lengths", "n_max"))
    lengths = _vec3(block, "lengths", "geometry")
    n_max = _int(block, "n_max", "geometry", minimum=1)
    eta = _float(block, "eta", "geometry", default=0.0)
    if "permittivity" in block:
        background = _build_permittivity(block["permittivity"],
                                         "geometry.permittivity")
    else:
        background = ConstantScalar(1.0)
    geom = CavityGeometry(lengths[0], lengths[1], lengths[2],
                          background=background)
    return "pec_box", (geom, n_max, eta)


def _build_modeset(scenario, const):
    _, (geom, n_max, _) = _build_geometry(scenario, expect="pec_box")
    return build_pec_box_modes(geom, n_max, const=const)


def _build_atom(scenario, const):
    block = _object(scenario, "atom", "scenario")
    _check_keys(block, "atom",
                allowed={"position", "dipole", "omega0", "drive"},
                required=("position", "dipole", "omega0"))
    drive = None
    if "drive" in block:
        dblock = _require_dict(block["drive"], "atom.drive")
        _check_keys(dblock, "atom.drive", allowed={"omega_L", "rabi"},
                    required=("omega_L", "rabi"))
        drive = Drive(omega_L=_float(dblock, "omega_L", "atom.drive"),
                      rabi=_float(dblock, "rabi", "atom.drive", minimum=0.0))
    return TwoLevelAtom(
        position=_vec3(block, "position", "atom"),
        dipole=_vec3(block, "dipole", "atom"),
        omega0=_float(block, "omega0", "atom", minimum=0.0),
        drive=drive,
    )


def _build_green_backend(scenario, qspec, const):
    kind, payload = _build_geometry(scenario)
    block = _require_dict(scenario.get("backend", {}), "backend")
    _check_keys(block, "backend", allowed={"type", "k_max_multiplier"})
    if kind == "bulk":
        backend = _str(block, "type", "backend", default="closed_form",
                       choices={"closed_form", "sommerfeld"})
        eps_model = payload
        if backend == "closed_form":
            return BulkClosedForm(eps_model, const=const)
        mult = _float(block, "k_max_multiplier", "backend", default=30.0)
        return BulkSommerfeld(eps_model, spec=qspec, k_max_multiplier=mult,
                              const=const)
    backend = _str(block, "type", "backend", default="mode_sum",
                   choices={"mode_sum"})
    geom, n_max, eta = payload
    modeset = build_pec_box_modes(geom, n_max, const=const)
    return CavityModeSum(modeset, eta=eta)


# ---------------------------------------------------------------------------
# serialization


def _write_table(path, columns, data, fmt):
    """Write one table from its column arrays: integer columns as %d,
    float columns as 17 significant digits, one write per file."""
    data = [np.asarray(col) for col in data]
    rows = zip(*(col.tolist() for col in data))
    if fmt == "json":
        payload = {"columns": list(columns), "rows": [list(r) for r in rows]}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        return
    row_fmt = ",".join("%d" if col.dtype.kind in "iu" else "%.17g"
                       for col in data) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n"
                 + "".join([row_fmt % row for row in rows]))


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"re": value.real.tolist(), "im": value.imag.tolist()}
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _report_payload(report):
    return {
        "lhs": _jsonable(np.asarray(report.lhs)),
        "rhs": _jsonable(np.asarray(report.rhs)),
        "abs_residual": report.abs_residual,
        "rel_residual": report.rel_residual,
        "metadata": _jsonable(report.metadata),
        "extras": _jsonable(report.extras),
    }


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand runners: scenario -> (files, summary)


def _run_modes(scenario, qspec, const, outdir, fmt, stem):
    modeset = _build_modeset(scenario, const)
    table = os.path.join(outdir, "%s_modes.%s" % (stem, fmt))
    _write_table(table, ("m", "n", "p", "branch", "omega"),
                 list(modeset.idx.T) + [modeset.omegas], fmt)
    summary = {
        "n_modes": len(modeset),
        "omega_min": float(modeset.omegas.min()),
        "omega_top": float(modeset.omega_top),
        "volume": float(modeset.geometry.volume),
    }
    return [table], summary


def _run_green(scenario, qspec, const, outdir, fmt, stem):
    backend = _build_green_backend(scenario, qspec, const)
    block = _object(scenario, "evaluation", "scenario")
    _check_keys(block, "evaluation",
                allowed={"points", "sources", "frequencies"},
                required=("points", "sources", "frequencies"))
    points = _vec3_list(block, "points", "evaluation")
    sources = _vec3_list(block, "sources", "evaluation")
    freqs = _num_list(block, "frequencies", "evaluation")
    if len(points) != len(sources):
        raise SchemaError("evaluation.points and evaluation.sources must have "
                          "equal length")
    comps = ("xx", "xy", "xz", "yx", "yy", "yz", "zx", "zy", "zz")
    columns = ["x", "y", "z", "x0", "y0", "z0", "omega"]
    for c in comps:
        columns += ["re_" + c, "im_" + c]
    rows = []
    for w in freqs:
        for r, r0 in zip(points, sources):
            g = backend.evaluate(np.array(r), np.array(r0), w)
            row = list(r) + list(r0) + [w]
            for i in range(3):
                for j in range(3):
                    row += [g[i, j].real, g[i, j].imag]
            rows.append(tuple(row))
    table = os.path.join(outdir, "%s_green.%s" % (stem, fmt))
    _write_table(table, columns, np.array(rows).T, fmt)
    return [table], {"n_rows": len(rows), "backend": type(backend).__name__}


def _run_check_p1(scenario, qspec, const, outdir, fmt, stem):
    modeset = _build_modeset(scenario, const)
    block = _require_dict(scenario.get("conversion", {}), "conversion")
    _check_keys(block, "conversion",
                allowed={"r", "r0", "eta", "omega_max", "lhs_path"},
                required=("r", "r0"))
    r = _vec3(block, "r", "conversion")
    r0 = _vec3(block, "r0", "conversion")
    eta = _float(block, "eta", "conversion", None, minimum=0.0)
    omega_max = _float(block, "omega_max", "conversion", None)
    path = _str(block, "lhs_path", "conversion", default="softened",
                choices={"softened", "analytic"})
    report = check_conversion_p1(modeset, np.array(r), np.array(r0),
                                 spec=qspec, eta=eta, omega_max=omega_max,
                                 lhs_path=path)
    out = os.path.join(outdir, "%s_report.json" % stem)
    _write_json(out, {"reports": [_report_payload(report)]})
    return [out], {"rel_residual": report.rel_residual,
                   "abs_residual": report.abs_residual}


def _run_check_magic(scenario, qspec, const, outdir, fmt, stem):
    block = _require_dict(scenario.get("magic", {}), "magic")
    _check_keys(block, "magic",
                allowed={"r", "r0", "omega", "deltas", "eps_real",
                         "exclusion_radius"},
                required=("r", "r0", "omega", "deltas"))
    r = np.array(_vec3(block, "r", "magic"))
    r0 = np.array(_vec3(block, "r0", "magic"))
    omega = _float(block, "omega", "magic", minimum=0.0)
    deltas = _num_list(block, "deltas", "magic")
    eps_real = _float(block, "eps_real", "magic", default=1.0)
    excl = _float(block, "exclusion_radius", "magic", None, minimum=0.0)
    reports = []
    for delta in deltas:
        rep = check_magic_formula(ConstantScalar(complex(eps_real, delta)),
                                  r, r0, omega, spec=qspec,
                                  exclusion_radius=excl, const=const)
        payload = _report_payload(rep)
        payload["delta"] = delta
        reports.append(payload)
    out = os.path.join(outdir, "%s_report.json" % stem)
    _write_json(out, {"reports": reports})
    summary = {"deltas": deltas,
               "rel_residuals": [r["rel_residual"] for r in reports]}
    return [out], summary


def _run_check_surface(scenario, qspec, const, outdir, fmt, stem):
    kind, eps_model = _build_geometry(scenario, expect="bulk")
    block = _require_dict(scenario.get("surface", {}), "surface")
    _check_keys(block, "surface", allowed={"r", "r0", "omega", "radii"},
                required=("r", "r0", "omega", "radii"))
    r = np.array(_vec3(block, "r", "surface"))
    r0 = np.array(_vec3(block, "r0", "surface"))
    omega = _float(block, "omega", "surface", minimum=0.0)
    radii = _num_list(block, "radii", "surface")
    reports = []
    for radius in radii:
        rep = check_surface_term(eps_model, radius, r, r0, omega, spec=qspec,
                                 const=const)
        payload = _report_payload(rep)
        payload["radius"] = radius
        reports.append(payload)
    out = os.path.join(outdir, "%s_report.json" % stem)
    _write_json(out, {"reports": reports})
    summary = {"radii": radii,
               "rel_residuals": [r["rel_residual"] for r in reports]}
    return [out], summary


def _run_check_appendix(scenario, qspec, const, outdir, fmt, stem):
    block = _require_dict(scenario.get("appendix", {}), "appendix")
    _check_keys(block, "appendix", allowed={"r0", "offsets", "omega"},
                required=("r0", "offsets", "omega"))
    r0 = np.array(_vec3(block, "r0", "appendix"))
    offsets = _vec3_list(block, "offsets", "appendix")
    omega = _float(block, "omega", "appendix", minimum=0.0)
    reports = []
    for off in offsets:
        rep = check_appendix_lossless_limit(r0 + np.array(off), r0, omega,
                                            spec=qspec, const=const)
        payload = _report_payload(rep)
        payload["offset"] = off
        reports.append(payload)
    out = os.path.join(outdir, "%s_report.json" % stem)
    _write_json(out, {"reports": reports})
    summary = {"rel_residuals": [r["rel_residual"] for r in reports]}
    return [out], summary


def _build_ww_kernel(scenario, qspec, const, atom):
    block = _require_dict(scenario.get("kernel", {}), "kernel")
    _check_keys(block, "kernel",
                allowed={"route", "omega_max", "analytic_limit"})
    route = _str(block, "route", "kernel", default="lna",
                 choices={"lna", "nmqed"})
    if route == "nmqed":
        return kernel_nmqed(_build_modeset(scenario, const), atom)
    backend = _build_green_backend(scenario, qspec, const)
    analytic = _bool(block, "analytic_limit", "kernel", default=False)
    omega_max = _float(block, "omega_max", "kernel", None, minimum=0.0)
    return kernel_lna(backend, atom, spec=qspec, omega_max=omega_max,
                      analytic_limit=analytic)


def _run_ww(scenario, qspec, const, outdir, fmt, stem):
    atom = _build_atom(scenario, const)
    kernel = _build_ww_kernel(scenario, qspec, const, atom)
    tblock = _require_dict(scenario.get("time", {}), "time")
    _check_keys(tblock, "time", allowed={"t_max", "n_steps", "fit_window"},
                required=("t_max", "n_steps"))
    t_max = _float(tblock, "t_max", "time", minimum=0.0)
    n_steps = _int(tblock, "n_steps", "time", minimum=10)
    window = _num_list(tblock, "fit_window", "time", [0.35, 0.95])
    if len(window) != 2 or not 0.0 <= window[0] < window[1] <= 1.0:
        raise SchemaError("time.fit_window must be [lo, hi] fractions in [0, 1]")
    result = solve_volterra(kernel, t_max, n_steps, fit_window=tuple(window))
    gamma, delta = markov_rate_and_shift(kernel, atom, qspec)
    table = os.path.join(outdir, "%s_ww.%s" % (stem, fmt))
    _write_table(table, ("t", "re_c", "im_c", "population"),
                 (result.times, result.c_es.real, result.c_es.imag,
                  result.population), fmt)
    fit_gamma, fit_shift = result.markov_fit
    summary = {
        "gamma": gamma,
        "delta_shift": delta,
        "fit_gamma": fit_gamma,
        "fit_shift": fit_shift,
        "fit_window": window,
        "provenance": kernel.provenance,
        "t_max": t_max,
        "n_steps": n_steps,
        "population_final": float(result.population[-1]),
        "march_error": result.march_error,
        "march_error_reason": result.march_error_reason,
    }
    summ = os.path.join(outdir, "%s_ww_summary.json" % stem)
    _write_json(summ, summary)
    return [table, summ], summary


def _build_density(scenario, qspec, const, atom):
    block = _require_dict(scenario.get("bath", {}), "bath")
    _check_keys(block, "bath",
                allowed={"route", "omega_max", "analytic_limit", "temperature"})
    route = _str(block, "route", "bath", default="lna",
                 choices={"lna", "nmqed"})
    temperature = ThermalState(_float(block, "temperature", "bath", default=0.0,
                                      minimum=0.0), const)
    if route == "nmqed":
        return spectral_density_nmqed(_build_modeset(scenario, const), atom,
                                      temperature=temperature)
    backend = _build_green_backend(scenario, qspec, const)
    analytic = _bool(block, "analytic_limit", "bath", default=False)
    omega_max = _float(block, "omega_max", "bath", None, minimum=0.0)
    return spectral_density_lna(backend, atom, spec=qspec,
                                omega_max=omega_max, temperature=temperature,
                                analytic_limit=analytic)


def _run_master(scenario, qspec, const, outdir, fmt, stem):
    atom = _build_atom(scenario, const)
    density = _build_density(scenario, qspec, const, atom)
    block = _require_dict(scenario.get("evolution", {}), "evolution")
    _check_keys(block, "evolution",
                allowed={"mode", "t_max", "n_steps", "tol", "max_refinements"},
                required=("t_max", "n_steps"))
    mode = _str(block, "mode", "evolution", default="markov",
                choices={"markov", "finite_memory"})
    t_max = _float(block, "t_max", "evolution", minimum=0.0)
    n_steps = _int(block, "n_steps", "evolution", minimum=10)
    tol = _float(block, "tol", "evolution", default=1e-8)
    max_ref = _int(block, "max_refinements", "evolution", default=6, minimum=0)

    init = _require_dict(scenario.get("initial_state", {}), "initial_state")
    _check_keys(init, "initial_state", allowed={"rho_ee", "rho_eg"})
    p_ee = _float(init, "rho_ee", "initial_state", default=1.0)
    coh = _num_list(init, "rho_eg", "initial_state", [0.0, 0.0])
    if len(coh) != 2:
        raise SchemaError("initial_state.rho_eg must be [re, im]")
    rho0 = np.array([[p_ee, coh[0] + 1j * coh[1]],
                     [coh[0] - 1j * coh[1], 1.0 - p_ee]], dtype=complex)

    traj = evolve_master_equation(atom, density, rho0, t_max, n_steps,
                                  mode=mode, spec=qspec, tol=tol,
                                  max_refinements=max_ref)
    table = os.path.join(outdir, "%s_master.%s" % (stem, fmt))
    _write_table(table, ("t", "rho_ee", "re_rho_eg", "im_rho_eg"),
                 (traj.times, traj.rho_ee, traj.rho_eg.real, traj.rho_eg.imag),
                 fmt)

    # bare level shift: PV of J alone, no thermal factors
    bare = density
    if density.temperature.temperature != 0.0:
        from dataclasses import replace
        bare = replace(density, temperature=ThermalState(0.0, const))
    k1_bare, _ = markov_coefficients(bare, atom.omega0, qspec)
    summary = {
        "mode": mode,
        "decay_rate": traj.decay_rate if mode == "markov" else None,
        "delta_d": -k1_bare.imag,
        "n_steps_used": traj.n_steps_used,
        "rho_ee_final": float(traj.rho_ee[-1]),
        "trace_drift": traj.metadata["trace_drift"],
        "min_eigenvalue": traj.metadata["min_eigenvalue"],
        "warnings": list(traj.warnings),
    }
    if mode == "markov":
        ss = traj.steady_state()
        summary["steady_state"] = {
            "rho_ee": float(ss[0, 0].real),
            "rho_eg": [float(ss[0, 1].real), float(ss[0, 1].imag)],
        }
    summ = os.path.join(outdir, "%s_master_summary.json" % stem)
    _write_json(summ, summary)
    return [table, summ], summary


_RUNNERS = {
    "modes": _run_modes,
    "green": _run_green,
    "check-p1": _run_check_p1,
    "check-magic": _run_check_magic,
    "check-surface": _run_check_surface,
    "check-appendix": _run_check_appendix,
    "ww": _run_ww,
    "master": _run_master,
}

_COMMON_KEYS = {"name", "description", "units", "quadrature", "geometry"}
_ALLOWED_TOP = {
    "modes": _COMMON_KEYS,
    "green": _COMMON_KEYS | {"backend", "evaluation"},
    "check-p1": _COMMON_KEYS | {"conversion"},
    "check-magic": _COMMON_KEYS | {"magic"},
    "check-surface": _COMMON_KEYS | {"surface"},
    "check-appendix": _COMMON_KEYS | {"appendix"},
    "ww": _COMMON_KEYS | {"atom", "backend", "kernel", "time"},
    "master": _COMMON_KEYS | {"atom", "backend", "bath", "evolution",
                              "initial_state"},
}


def _apply_override(scenario, assignment):
    if "=" not in assignment:
        raise SchemaError("override '%s' is not of the form key=value"
                          % assignment)
    path, raw = assignment.split("=", 1)
    keys = [k for k in path.split(".") if k]
    if not keys:
        raise SchemaError("override '%s' has an empty key path" % assignment)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = scenario
    for key in keys[:-1]:
        nxt = node.get(key)
        if nxt is None:
            nxt = {}
            node[key] = nxt
        if not isinstance(nxt, dict):
            raise SchemaError("override path '%s' crosses a non-object" % path)
        node = nxt
    node[keys[-1]] = value


def _validate_scenario(subcommand, scenario):
    _check_keys(scenario, "scenario", allowed=_ALLOWED_TOP[subcommand],
                required=("name",))
    name = scenario["name"]
    if not isinstance(name, str) or not name:
        raise SchemaError("scenario.name must be a non-empty string")
    bad = set(name) - set(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.")
    if bad:
        raise SchemaError("scenario.name may only contain [A-Za-z0-9._-]")
    if "description" in scenario and not isinstance(scenario["description"], str):
        raise SchemaError("scenario.description must be a string")
    return name


# exception -> exit code, first match wins: a bad scenario (ValueError
# covers malformed JSON, undecodable bytes and rejected parameters),
# failed numerics (ConvergenceError, ResonanceError, march and master
# failures are RuntimeErrors; an array numpy cannot allocate is a
# MemoryError), failed I/O
_EXIT_CODES = {SchemaError: EXIT_SCHEMA, RuntimeError: EXIT_NUMERIC,
               MemoryError: EXIT_NUMERIC, ValueError: EXIT_SCHEMA,
               OSError: EXIT_IO}


def _error_payload(code, exc):
    # an allocation failure shares exit 3 but is not a numerical one
    kind = "memory" if isinstance(exc, MemoryError) else {
        EXIT_SCHEMA: "schema", EXIT_NUMERIC: "convergence",
        EXIT_IO: "io"}[code]
    return {"error": {"kind": kind, "type": type(exc).__name__,
                      "message": str(exc)}}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="greenmodes",
        description="Scenario-driven checks and dynamics for the two "
                    "quantization routes of field-matter coupling.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="scenario JSON path")
    parser.add_argument("--out", default=None,
                        help="output directory (default: $%s or cwd)" % OUT_ENV_VAR)
    parser.add_argument("--format", default="csv", choices=("csv", "json"),
                        help="table format for tabular outputs")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        dest="overrides",
                        help="override scenario keys, dotted path, repeatable")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    t_start = time.time()
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            scenario = _require_dict(json.loads(fh.read()), "scenario")
        for assignment in args.overrides:
            _apply_override(scenario, assignment)
        name = _validate_scenario(args.subcommand, scenario)
        const = _build_constants(scenario)
        qspec = _build_quadrature(scenario)

        outdir = args.out or os.environ.get(OUT_ENV_VAR) or os.getcwd()
        os.makedirs(outdir, exist_ok=True)
        with _warnings.catch_warnings(record=True) as wrec:
            _warnings.simplefilter("always")
            files, summary = _RUNNERS[args.subcommand](
                scenario, qspec, const, outdir, args.format, name)
            caught = ["%s: %s" % (type(w.message).__name__, w.message)
                      for w in wrec]

        envelope = {
            "subcommand": args.subcommand,
            "version": __version__,
            "scenario": scenario,
            "files": [os.path.basename(f) for f in files],
            "timings": {"total_s": time.time() - t_start},
            "warnings": caught,
            "summary": _jsonable(summary),
        }
        _write_json(os.path.join(outdir, "%s_envelope.json" % name), envelope)
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(exc, kind))
        print(json.dumps(_error_payload(code, exc)), file=sys.stderr)
        return code
    if not args.quiet:
        for key, value in sorted(_jsonable(summary).items()):
            print("%s: %s" % (key, value))
        print("wrote %d file(s) to %s" % (len(files) + 1, outdir))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
