"""Scenario-driven command line front end.

One JSON scenario file per run; the subcommand picks which machinery the
scenario feeds.  Outputs are plot-ready CSV tables plus JSON summaries,
wrapped in an envelope that echoes the scenario for reproducibility.
Floats in CSV carry 17 significant digits so identical scenarios produce
byte-identical tables.

Exit codes: 0 success, 2 schema or scenario error, 3 convergence
failure, 4 I/O failure.  The scenario is checked against one schema table
before any work, so a schema error writes nothing.
"""

import argparse
import contextlib
import json
import os
import sys
import time
import warnings as _warnings
from dataclasses import replace

import numpy as np

from . import __version__
from .atom import Drive, TwoLevelAtom
from .decay import markov_rate_and_shift, solve_volterra
from .greens import BulkClosedForm, BulkSommerfeld, CavityModeSum, wavenumber
from .identities import (
    CONVERSION_ETA,
    check_appendix_lossless_limit,
    check_conversion_p1,
    check_magic_formula,
    check_surface_term,
    sphere_clears_points,
)
from .master import (
    LNA_OMEGA_MAX,
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


class SchemaError(Exception):
    pass


# ---------------------------------------------------------------------------
# scenario schema: value checks, the table, validate


def _require_dict(value, where):
    if not isinstance(value, dict):
        raise SchemaError("%s must be an object" % where)
    return value


_REQUIRED = object()  # default of a key that must be present


def _key(check, default=_REQUIRED, **limits):
    """One schema entry: a value v given under where.key resolves to
    check(v, "where.key", **limits); an absent key resolves to default,
    put through the same check unless it is None."""
    return check, default, limits


def _number(v, name, minimum=None, above=None):
    """v as a finite float, at least minimum and more than above when
    given.  json.loads accepts NaN and Infinity, so the finiteness check
    is part of the schema; an integer beyond the float range counts as
    infinite."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError("%s must be a number" % name)
    if not abs(v) <= sys.float_info.max:
        raise SchemaError("%s must be finite" % name)
    v = float(v)
    if minimum is not None and v < minimum:
        raise SchemaError("%s must be >= %g" % (name, minimum))
    if above is not None and not v > above:
        raise SchemaError("%s must be > %g" % (name, above))
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


def _numbers(v, name, size=None, **limits):
    """A list of numbers as floats: exactly size of them, or at least one
    when size is None; limits apply to each, as in _number."""
    if not isinstance(v, list) or not v or size not in (None, len(v)):
        raise SchemaError("%s must be a list of %s numbers"
                          % (name, size or "one or more"))
    return [_number(x, "%s[%d]" % (name, i), **limits)
            for i, x in enumerate(v)]


def _vec3s(v, name):
    if not isinstance(v, list) or not v:
        raise SchemaError("%s must be a non-empty list of 3-vectors" % name)
    return [_numbers(x, "%s[%d]" % (name, i), size=3) for i, x in enumerate(v)]


def _boolean(v, name):
    if not isinstance(v, bool):
        raise SchemaError("%s must be true or false" % name)
    return v


_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.")


def _name(v, name):
    """The scenario name, which is also the stem of every output file."""
    if not isinstance(v, str) or not v:
        raise SchemaError("%s must be a non-empty string" % name)
    if not _NAME_CHARS.issuperset(v):
        raise SchemaError("%s may only contain [A-Za-z0-9._-]" % name)
    return v


def _eps_value(v, name):
    """A constant permittivity, given as a number or as [re, im]; a gain
    medium (im < 0) and the singular eps = 0 are refused."""
    if isinstance(v, list) and len(v) == 2:
        re, im = _numbers(v, name)
    else:
        re, im = _number(v, name), 0.0
    if im < 0.0:
        raise SchemaError("%s: gain medium (Im eps < 0) not supported" % name)
    if re == im == 0.0:
        raise SchemaError("%s: eps = 0 is singular" % name)
    return complex(re, im)


def _poles(v, name):
    if not isinstance(v, list):
        raise SchemaError("%s must be a list of [wp, w0, g]" % name)
    return [_numbers(p, "%s[%d]" % (name, i), size=3) for i, p in enumerate(v)]


def _resolve(block, where, schema):
    """block checked against schema, a dict key -> _key(...), as a new
    dict that holds every key of the schema.  A top-level block goes by
    its own name in messages, not as scenario.<name>."""
    where = where.removeprefix("scenario.")
    block = _require_dict(block, where)
    unknown = sorted(set(block) - set(schema))
    if unknown:
        raise SchemaError("unknown key '%s' in %s" % (unknown[0], where))
    for key, (_, default, _) in schema.items():
        if key not in block and default is _REQUIRED:
            raise SchemaError("missing key '%s' in %s" % (key, where))
    out = {}
    for key, (check, default, limits) in schema.items():
        value = block.get(key, default)
        if key in block or value is not None:
            value = check(value, "%s.%s" % (where, key), **limits)
        out[key] = value
    return out


def _union(block, where, tag, variants):
    """A block whose keys depend on its tag key: variants maps each value
    of block[tag] to the schema of the whole block."""
    where = where.removeprefix("scenario.")
    block = _require_dict(block, where)
    if tag not in block:
        raise SchemaError("missing key '%s' in %s" % (tag, where))
    kind = _string(block[tag], "%s.%s" % (where, tag), choices=variants)
    return _resolve(block, where, variants[kind])


_PERMITTIVITY = {"tag": "model", "variants": {
    "constant": {"model": _key(_string), "value": _key(_eps_value)},
    "drude_lorentz": {"model": _key(_string), "eps_inf": _key(_number, 1.0),
                      "poles": _key(_poles, [])},
}}

_ROUTE = _key(_string, "lna", choices={"lna", "nmqed"})
_VEC3 = _key(_numbers, size=3)

# block -> _key(...), in the order validate checks them; a block's default
# applies when its subcommand takes it without requiring it (_SUBCOMMANDS)
_SCHEMA = {
    "name": _key(_name),
    "description": _key(_string, None),
    "quadrature": _key(_resolve, {}, schema={
        "abs_tol": _key(_number, QuadratureSpec.abs_tol),
        "rel_tol": _key(_number, QuadratureSpec.rel_tol),
        "max_subdivisions": _key(_integer, QuadratureSpec.max_subdivisions,
                                 minimum=1)}),
    "geometry": _key(_union, None, tag="type", variants={
        "bulk": {"type": _key(_string),
                 "permittivity": _key(_union, **_PERMITTIVITY)},
        "pec_box": {"type": _key(_string),
                    "lengths": _key(_numbers, size=3, above=0.0),
                    "n_max": _key(_integer, minimum=1),
                    "eta": _key(_number, 0.0),
                    "permittivity": _key(_union, {"model": "constant",
                                                  "value": 1.0},
                                         **_PERMITTIVITY)}}),
    # the choices and default of backend.type depend on the geometry
    "backend": _key(_resolve, {}, schema={
        "type": _key(_string, None),
        "k_max_multiplier": _key(_number, 30.0)}),
    "evaluation": _key(_resolve, schema={
        "points": _key(_vec3s), "sources": _key(_vec3s),
        "frequencies": _key(_numbers)}),
    "atom": _key(_resolve, schema={
        "position": _VEC3, "dipole": _VEC3,
        "omega0": _key(_number, above=0.0),
        "drive": _key(_resolve, None, schema={
            "omega_L": _key(_number), "rabi": _key(_number, minimum=0.0)})}),
    "kernel": _key(_resolve, {}, schema={
        "route": _ROUTE, "omega_max": _key(_number, None, above=0.0),
        "analytic_limit": _key(_boolean, False)}),
    "time": _key(_resolve, {}, schema={
        "t_max": _key(_number, above=0.0),
        "n_steps": _key(_integer, minimum=10),
        "fit_window": _key(_numbers, [0.35, 0.95])}),
    "bath": _key(_resolve, {}, schema={
        "route": _ROUTE, "omega_max": _key(_number, None, above=0.0),
        "analytic_limit": _key(_boolean, False),
        "temperature": _key(_number, 0.0, minimum=0.0)}),
    "evolution": _key(_resolve, {}, schema={
        "mode": _key(_string, "markov", choices={"markov", "finite_memory"}),
        "t_max": _key(_number, above=0.0),
        "n_steps": _key(_integer, minimum=10),
        "tol": _key(_number, 1e-8),
        "max_refinements": _key(_integer, 6, minimum=0)}),
    "initial_state": _key(_resolve, {}, schema={
        "rho_ee": _key(_number, 1.0), "rho_eg": _key(_numbers, [0.0, 0.0])}),
    "conversion": _key(_resolve, {}, schema={
        "r": _VEC3, "r0": _VEC3,
        "eta": _key(_number, CONVERSION_ETA, minimum=0.0),
        "omega_max": _key(_number, None),
        "lhs_path": _key(_string, "softened",
                         choices={"softened", "analytic"})}),
    "magic": _key(_resolve, {}, schema={
        "r": _VEC3, "r0": _VEC3,
        "omega": _key(_number, above=0.0),
        # Im eps of each swept medium: the identity needs absorption
        "deltas": _key(_numbers, above=0.0),
        "eps_real": _key(_number, 1.0),
        "exclusion_radius": _key(_number, None, minimum=0.0)}),
    "surface": _key(_resolve, {}, schema={
        "r": _VEC3, "r0": _VEC3,
        "omega": _key(_number, above=0.0), "radii": _key(_numbers)}),
    "appendix": _key(_resolve, {}, schema={
        "r0": _VEC3, "offsets": _key(_vec3s),
        "omega": _key(_number, above=0.0)}),
}

_COMMON = ("name", "description", "quadrature", "geometry")

# geometry type -> the backend.type choices, the first one the default
_BACKENDS = {"bulk": ("closed_form", "sommerfeld"), "pec_box": ("mode_sum",)}


def validate(subcommand, scenario):
    """scenario checked against the schema of subcommand, as a new dict
    with every default filled in.  scenario itself is left as given."""
    _, takes, requires, expect = _SUBCOMMANDS[subcommand]
    schema = {block: (check, _REQUIRED if block in requires else default,
                      limits)
              for block, (check, default, limits) in _SCHEMA.items()
              if block in _COMMON or block in takes}
    s = _resolve(scenario, "scenario", schema)
    geometry = s["geometry"]
    # ww reads kernel, master reads bath; the other subcommands neither
    block = "kernel" if "kernel" in s else "bath"
    coupling = s.get(block, {})
    if coupling.get("route") == "nmqed":
        expect = "pec_box"
        for key, unset in (("omega_max", None), ("analytic_limit", False)):
            if coupling[key] is not unset:
                raise SchemaError("%s.%s applies to route 'lna' only"
                                  % (block, key))
    elif coupling:
        if coupling["omega_max"] is None:
            coupling["omega_max"] = LNA_OMEGA_MAX
        # the Markov level shift is a PV about omega0 inside the window
        omega0 = s["atom"]["omega0"]
        if not coupling["analytic_limit"] and coupling["omega_max"] <= omega0:
            raise SchemaError("the lna window %s.omega_max = %g must "
                              "exceed atom.omega0 = %g"
                              % (block, coupling["omega_max"], omega0))
    if expect is not None and geometry["type"] != expect:
        raise SchemaError("geometry.type must be '%s' for this subcommand"
                          % expect)
    if coupling.get("analytic_limit") and geometry["type"] != "pec_box":
        raise SchemaError("%s.analytic_limit needs geometry.type 'pec_box'"
                          % block)
    if "backend" in s:
        choices = _BACKENDS[geometry["type"]]
        if s["backend"]["type"] is None:
            s["backend"]["type"] = choices[0]
        _string(s["backend"]["type"], "backend.type", choices=choices)
    if "time" in s:
        window = s["time"]["fit_window"]
        if len(window) != 2 or not 0.0 <= window[0] < window[1] <= 1.0:
            raise SchemaError("time.fit_window must be [lo, hi] fractions "
                              "in [0, 1]")
    if "initial_state" in s and len(s["initial_state"]["rho_eg"]) != 2:
        raise SchemaError("initial_state.rho_eg must be [re, im]")
    if "evaluation" in s and (len(s["evaluation"]["points"])
                              != len(s["evaluation"]["sources"])):
        raise SchemaError("evaluation.points and evaluation.sources must "
                          "have equal length")
    if geometry is not None and geometry["type"] == "pec_box":
        box = CavityGeometry(*geometry["lengths"])
        for block, key in (("atom", "position"), ("evaluation", "points"),
                           ("evaluation", "sources"), ("conversion", "r"),
                           ("conversion", "r0")):
            points = np.reshape(s.get(block, {}).get(key, []), (-1, 3))
            if not all(map(box.contains, points)):
                raise SchemaError("%s.%s lies outside the pec_box"
                                  % (block, key))
    if "surface" in s:
        sf = s["surface"]
        eps = _permittivity(geometry["permittivity"]).eval(sf["omega"])
        k = wavenumber(sf["omega"], eps)
        for i, radius in enumerate(sf["radii"]):
            if not sphere_clears_points(radius, sf["r"], sf["r0"], k):
                raise SchemaError("surface.radii[%d]: sphere too small" % i)
    return s


# ---------------------------------------------------------------------------
# resolved scenario -> objects


def _permittivity(block):
    if block["model"] == "constant":
        return ConstantScalar(block["value"])
    return DrudeLorentz(eps_inf=block["eps_inf"], poles=block["poles"])


def _modeset(s):
    g = s["geometry"]
    geom = CavityGeometry(*g["lengths"],
                          background=_permittivity(g["permittivity"]))
    return build_pec_box_modes(geom, g["n_max"])


def _green_backend(s, qspec):
    g, backend = s["geometry"], s["backend"]
    if g["type"] == "pec_box":
        return CavityModeSum(_modeset(s), eta=g["eta"])
    eps_model = _permittivity(g["permittivity"])
    if backend["type"] == "closed_form":
        return BulkClosedForm(eps_model)
    return BulkSommerfeld(eps_model, spec=qspec,
                          k_max_multiplier=backend["k_max_multiplier"])


def _atom(s):
    a = s["atom"]
    return TwoLevelAtom(position=a["position"], dipole=a["dipole"],
                        omega0=a["omega0"],
                        drive=Drive(**a["drive"]) if a["drive"] else None)


def _density(s, block, atom, qspec, temperature=0.0):
    """The spectral density on the route of s[block]: ww's kernel or
    master's bath."""
    b = s[block]
    if b["route"] == "nmqed":
        return spectral_density_nmqed(_modeset(s), atom,
                                      temperature=temperature)
    return spectral_density_lna(_green_backend(s, qspec), atom,
                                omega_max=b["omega_max"],
                                temperature=temperature,
                                analytic_limit=b["analytic_limit"])


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
# subcommand runners: resolved scenario -> (files, summary)


def _run_modes(s, qspec, outdir, fmt, stem):
    modeset = _modeset(s)
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


def _run_green(s, qspec, outdir, fmt, stem):
    backend = _green_backend(s, qspec)
    ev = s["evaluation"]
    comps = ("xx", "xy", "xz", "yx", "yy", "yz", "zx", "zy", "zz")
    columns = ["x", "y", "z", "x0", "y0", "z0", "omega"]
    for c in comps:
        columns += ["re_" + c, "im_" + c]
    points, sources = np.array(ev["points"]), np.array(ev["sources"])
    omegas = np.array(ev["frequencies"])
    # one call per pair over every frequency; rows run frequency-major
    g = np.stack([backend.evaluate(r, r0, omegas)
                  for r, r0 in zip(points, sources)], axis=1)
    n = omegas.size
    rows = np.column_stack([np.tile(points, (n, 1)), np.tile(sources, (n, 1)),
                            np.repeat(omegas, len(points)),
                            np.stack([g.real, g.imag], -1).reshape(-1, 18)])
    table = os.path.join(outdir, "%s_green.%s" % (stem, fmt))
    _write_table(table, columns, rows.T, fmt)
    return [table], {"n_rows": len(rows), "backend": type(backend).__name__}


def _run_check_p1(s, qspec, outdir, fmt, stem):
    c = s["conversion"]
    report = check_conversion_p1(_modeset(s), np.array(c["r"]),
                                 np.array(c["r0"]), spec=qspec, eta=c["eta"],
                                 omega_max=c["omega_max"],
                                 lhs_path=c["lhs_path"])
    out = os.path.join(outdir, "%s_report.json" % stem)
    _write_json(out, {"reports": [_report_payload(report)]})
    return [out], {"rel_residual": report.rel_residual,
                   "abs_residual": report.abs_residual}


def _write_sweep(outdir, stem, tag, values, check):
    """One report per swept value, check(value), each tagged with its
    value under tag, written to one file; returns the file and the
    relative residuals."""
    reports = []
    for value in values:
        payload = _report_payload(check(value))
        payload[tag] = value
        reports.append(payload)
    out = os.path.join(outdir, "%s_report.json" % stem)
    _write_json(out, {"reports": reports})
    return out, [r["rel_residual"] for r in reports]


def _run_check_magic(s, qspec, outdir, fmt, stem):
    m = s["magic"]
    r, r0 = np.array(m["r"]), np.array(m["r0"])
    out, residuals = _write_sweep(
        outdir, stem, "delta", m["deltas"],
        lambda delta: check_magic_formula(
            ConstantScalar(complex(m["eps_real"], delta)), r, r0, m["omega"],
            spec=qspec, exclusion_radius=m["exclusion_radius"]))
    return [out], {"deltas": m["deltas"], "rel_residuals": residuals}


def _run_check_surface(s, qspec, outdir, fmt, stem):
    eps_model = _permittivity(s["geometry"]["permittivity"])
    sf = s["surface"]
    r, r0 = np.array(sf["r"]), np.array(sf["r0"])
    out, residuals = _write_sweep(
        outdir, stem, "radius", sf["radii"],
        lambda radius: check_surface_term(eps_model, radius, r, r0,
                                          sf["omega"]))
    return [out], {"radii": sf["radii"], "rel_residuals": residuals}


def _run_check_appendix(s, qspec, outdir, fmt, stem):
    a = s["appendix"]
    r0 = np.array(a["r0"])
    out, residuals = _write_sweep(
        outdir, stem, "offset", a["offsets"],
        lambda off: check_appendix_lossless_limit(r0 + np.array(off), r0,
                                                  a["omega"], spec=qspec))
    return [out], {"rel_residuals": residuals}


def _run_ww(s, qspec, outdir, fmt, stem):
    atom = _atom(s)
    t = s["time"]
    density = _density(s, "kernel", atom, qspec)
    result = solve_volterra(density, atom.omega0, t["t_max"], t["n_steps"],
                            fit_window=tuple(t["fit_window"]))
    gamma, delta = markov_rate_and_shift(density, atom.omega0, qspec)
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
        "fit_window": t["fit_window"],
        "provenance": density.provenance,
        "t_max": t["t_max"],
        "n_steps": t["n_steps"],
        "population_final": float(result.population[-1]),
        "march_error": result.march_error,
        "march_error_reason": result.march_error_reason,
    }
    summ = os.path.join(outdir, "%s_ww_summary.json" % stem)
    _write_json(summ, summary)
    return [table, summ], summary


def _run_master(s, qspec, outdir, fmt, stem):
    atom = _atom(s)
    b, e, init = s["bath"], s["evolution"], s["initial_state"]
    density = _density(s, "bath", atom, qspec, b["temperature"])
    p_ee, (coh_re, coh_im) = init["rho_ee"], init["rho_eg"]
    rho0 = np.array([[p_ee, coh_re + 1j * coh_im],
                     [coh_re - 1j * coh_im, 1.0 - p_ee]], dtype=complex)
    mode = e["mode"]
    traj = evolve_master_equation(atom, density, rho0, e["t_max"],
                                  e["n_steps"], mode=mode, spec=qspec,
                                  tol=e["tol"],
                                  max_refinements=e["max_refinements"])
    table = os.path.join(outdir, "%s_master.%s" % (stem, fmt))
    _write_table(table, ("t", "rho_ee", "re_rho_eg", "im_rho_eg"),
                 (traj.times, traj.rho_ee, traj.rho_eg.real, traj.rho_eg.imag),
                 fmt)

    # bare level shift: PV of J alone, no thermal factors
    bare = replace(density, temperature=0.0)
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


# subcommand -> (its runner, the blocks it takes besides _COMMON, the
# blocks it requires, the geometry type it runs on; ww and master run on a
# pec_box on the nmqed route)
_SUBCOMMANDS = {
    "modes": (_run_modes, (), ("geometry",), "pec_box"),
    "green": (_run_green, ("backend", "evaluation"),
              ("geometry", "evaluation"), None),
    "check-p1": (_run_check_p1, ("conversion",), ("geometry",), "pec_box"),
    "check-magic": (_run_check_magic, ("magic",), (), None),
    "check-surface": (_run_check_surface, ("surface",), ("geometry",), "bulk"),
    "check-appendix": (_run_check_appendix, ("appendix",), (), None),
    "ww": (_run_ww, ("atom", "backend", "kernel", "time"),
           ("geometry", "atom"), None),
    "master": (_run_master, ("atom", "backend", "bath", "evolution",
                             "initial_state"), ("geometry", "atom"), None),
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


def _make_outdir(outdir):
    """Create outdir and its missing parents; returns the directories
    this created, innermost first."""
    made, path = [], os.path.abspath(outdir)
    while not os.path.lexists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(outdir, exist_ok=True)
    return made


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="greenmodes",
        description="Scenario-driven checks and dynamics for the two "
                    "quantization routes of field-matter coupling.",
    )
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
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
    made = []
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            scenario = _require_dict(json.loads(fh.read()), "scenario")
        for assignment in args.overrides:
            _apply_override(scenario, assignment)
        s = validate(args.subcommand, scenario)
        qspec = QuadratureSpec(**s["quadrature"])

        outdir = args.out or os.environ.get(OUT_ENV_VAR) or os.getcwd()
        made = _make_outdir(outdir)
        with _warnings.catch_warnings(record=True) as wrec:
            _warnings.simplefilter("always")
            files, summary = _SUBCOMMANDS[args.subcommand][0](
                s, qspec, outdir, args.format, s["name"])
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
        _write_json(os.path.join(outdir, "%s_envelope.json" % s["name"]),
                    envelope)
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(exc, kind))
        for path in made:  # a failed run removes what it made, if empty
            with contextlib.suppress(OSError):
                os.rmdir(path)
        print(json.dumps(_error_payload(code, exc)), file=sys.stderr)
        return code
    if not args.quiet:
        for key, value in sorted(_jsonable(summary).items()):
            print("%s: %s" % (key, value))
        print("wrote %d file(s) to %s" % (len(files) + 1, outdir))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
