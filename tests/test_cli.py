"""Scenario CLI: schema strictness, determinism, envelopes, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from greenmodes import (CavityGeometry, ModeSet, QuadratureSpec,
                        build_pec_box_modes, cli)


def write_scenario(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return str(path)


def cube_scenario(name="cube", n_max=2):
    return {
        "name": name,
        "geometry": {"type": "pec_box", "lengths": [1.0, 1.0, 1.0],
                     "n_max": n_max},
    }


def ww_scenario(name="ww-vac"):
    return {
        "name": name,
        "geometry": {"type": "bulk", "permittivity": {"model": "constant",
                                                      "value": 1.0}},
        "atom": {"position": [0.0, 0.0, 0.0], "dipole": [0.0, 0.0, 0.6],
                 "omega0": 1.0},
        "kernel": {"route": "lna", "omega_max": 2.0},
        "time": {"t_max": 40.0, "n_steps": 800},
    }


def run(args):
    return cli.main([str(a) for a in args])


def test_modes_csv_and_envelope(tmp_path):
    cfg = write_scenario(tmp_path / "cube.json", cube_scenario())
    out = tmp_path / "out"
    assert run(["modes", "--config", cfg, "--out", out, "--quiet"]) == 0
    table = out / "cube_modes.csv"
    lines = table.read_text().splitlines()
    assert lines[0] == "m,n,p,branch,omega"
    # 2 n^3 + 3 n^2 rows at n_max = 2
    assert len(lines) == 1 + 28
    env = json.loads((out / "cube_envelope.json").read_text())
    assert env["subcommand"] == "modes"
    assert env["summary"]["n_modes"] == 28
    assert env["scenario"] == cube_scenario()
    assert sorted(env["files"]) == ["cube_modes.csv"]
    assert env["warnings"] == []


def test_modes_listing_matches_mode_rows(tmp_path):
    # the listing is written column by column from the mode arrays; it
    # must equal, byte for byte, one written row by row from idx and
    # omegas, so the order of every degenerate shell is the order of the
    # mode set
    cfg = write_scenario(tmp_path / "cube.json", cube_scenario(n_max=20))
    out = tmp_path / "out"
    assert run(["modes", "--config", cfg, "--out", out, "--quiet"]) == 0
    modeset = build_pec_box_modes(CavityGeometry(1.0, 1.0, 1.0), 20)
    want = "m,n,p,branch,omega\n" + "".join(
        "%d,%d,%d,%d,%.17g\n" % (m, n, p, branch, omega)
        for (m, n, p, branch), omega in zip(modeset.idx.tolist(),
                                            modeset.omegas.tolist()))
    assert (out / "cube_modes.csv").read_bytes() == want.encode()


def _src_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_cli_import_leaves_scipy_special_unloaded():
    code = ("import sys, greenmodes.cli; "
            "sys.exit('scipy.special' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code],
                          env=_src_env()).returncode == 0


def test_ww_run_loads_no_scipy_linalg_fft_or_special(tmp_path):
    # a module-level scipy import would cost every run its import time
    # and resident memory; a bulk closed-form ww run needs none of them
    payload = ww_scenario(name="ww-footprint")
    payload["backend"] = {"type": "closed_form"}
    payload["time"]["n_steps"] = 300
    cfg = write_scenario(tmp_path / "ww.json", payload)
    code = ("import json, sys; from greenmodes import cli; "
            "rc = cli.main(['ww', '--config', sys.argv[1], '--out', "
            "sys.argv[2], '--quiet']); "
            "print(json.dumps([m for m in ('scipy.linalg', 'scipy.fft', "
            "'scipy.special') if m in sys.modules])); sys.exit(rc)")
    done = subprocess.run([sys.executable, "-c", code, cfg,
                           str(tmp_path / "out")], env=_src_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
    assert (tmp_path / "out" / "ww-footprint_ww_summary.json").exists()


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_scenario(tmp_path / "cube.json", cube_scenario())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["modes", "--config", cfg, "--out", out_a, "--quiet"]) == 0
    assert run(["modes", "--config", cfg, "--out", out_b, "--quiet"]) == 0
    assert (out_a / "cube_modes.csv").read_bytes() \
        == (out_b / "cube_modes.csv").read_bytes()


def test_unknown_key_exits_schema_and_writes_nothing(tmp_path, capsys):
    payload = cube_scenario()
    payload["junk"] = 1
    cfg = write_scenario(tmp_path / "bad.json", payload)
    out = tmp_path / "never-created"
    assert run(["modes", "--config", cfg, "--out", out]) == cli.EXIT_SCHEMA
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "schema"
    assert "junk" in err["error"]["message"]
    assert not out.exists()


def test_missing_config_exits_io(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["modes", "--config", missing]) == cli.EXIT_IO
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "io"


def test_malformed_json_exits_schema(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run(["modes", "--config", cfg]) == cli.EXIT_SCHEMA
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "schema"


def test_set_override_reaches_builder(tmp_path):
    cfg = write_scenario(tmp_path / "cube.json", cube_scenario())
    out = tmp_path / "out"
    assert run(["modes", "--config", cfg, "--out", out, "--quiet",
                "--set", "geometry.n_max=3"]) == 0
    env = json.loads((out / "cube_envelope.json").read_text())
    assert env["scenario"]["geometry"]["n_max"] == 3
    assert env["summary"]["n_modes"] == 2 * 27 + 3 * 9


def test_override_does_not_touch_config_file(tmp_path):
    cfg = write_scenario(tmp_path / "cube.json", cube_scenario())
    before = open(cfg, "rb").read()
    out = tmp_path / "out"
    assert run(["modes", "--config", cfg, "--out", out, "--quiet",
                "--set", "geometry.n_max=4"]) == 0
    assert open(cfg, "rb").read() == before


def test_json_table_format(tmp_path):
    cfg = write_scenario(tmp_path / "cube.json", cube_scenario())
    out = tmp_path / "out"
    assert run(["modes", "--config", cfg, "--out", out, "--quiet",
                "--format", "json"]) == 0
    table = json.loads((out / "cube_modes.json").read_text())
    assert table["columns"] == ["m", "n", "p", "branch", "omega"]
    assert len(table["rows"]) == 28


def test_envelope_scenario_round_trips(tmp_path):
    cfg = write_scenario(tmp_path / "cube.json", cube_scenario())
    out = tmp_path / "out"
    assert run(["modes", "--config", cfg, "--out", out, "--quiet"]) == 0
    env = json.loads((out / "cube_envelope.json").read_text())
    cfg2 = write_scenario(tmp_path / "echo.json", env["scenario"])
    out2 = tmp_path / "out2"
    assert run(["modes", "--config", cfg2, "--out", out2, "--quiet"]) == 0
    assert (out / "cube_modes.csv").read_bytes() \
        == (out2 / "cube_modes.csv").read_bytes()


def test_quiet_silences_stdout(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "cube.json", cube_scenario())
    out = tmp_path / "out"
    assert run(["modes", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert run(["modes", "--config", cfg, "--out", out]) == 0
    assert "wrote" in capsys.readouterr().out


def test_out_env_var_honored(tmp_path, monkeypatch):
    cfg = write_scenario(tmp_path / "cube.json", cube_scenario())
    target = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(target))
    assert run(["modes", "--config", cfg, "--quiet"]) == 0
    assert (target / "cube_modes.csv").exists()


def test_bad_scenario_name_rejected(tmp_path, capsys):
    payload = cube_scenario(name="has space")
    cfg = write_scenario(tmp_path / "bad-name.json", payload)
    assert run(["modes", "--config", cfg]) == cli.EXIT_SCHEMA
    capsys.readouterr()


def test_ww_summary_and_files(tmp_path):
    cfg = write_scenario(tmp_path / "ww.json", ww_scenario())
    out = tmp_path / "out"
    assert run(["ww", "--config", cfg, "--out", out, "--quiet"]) == 0
    summary = json.loads((out / "ww-vac_ww_summary.json").read_text())
    # pure vacuum chain: rate gamma^2 omega0^3 / 3 pi
    assert summary["gamma"] == pytest.approx(0.36 / (3.0 * np.pi), rel=1e-12)
    assert summary["provenance"] == "lna"
    assert 0.0 < summary["population_final"] < 1.0
    lines = (out / "ww-vac_ww.csv").read_text().splitlines()
    assert lines[0] == "t,re_c,im_c,population"
    assert len(lines) == 1 + 801
    env = json.loads((out / "ww-vac_envelope.json").read_text())
    assert sorted(env["files"]) == ["ww-vac_ww.csv", "ww-vac_ww_summary.json"]
    assert env["summary"]["fit_gamma"] == summary["fit_gamma"]


def _assert_error(code, expect_code, kind, capsys):
    """The run exited with expect_code and printed exactly one JSON error
    line of that kind on stderr, with no traceback."""
    assert code == expect_code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"]["kind"] == kind
    return payload


def test_ww_step_too_coarse_exits_numeric(tmp_path, capsys):
    payload = ww_scenario(name="ww-coarse")
    payload["atom"]["dipole"] = [0.0, 0.0, 20.0]
    payload["time"]["n_steps"] = 10
    cfg = write_scenario(tmp_path / "coarse.json", payload)
    code = run(["ww", "--config", cfg, "--out", tmp_path / "out", "--quiet"])
    err = _assert_error(code, cli.EXIT_NUMERIC, "convergence", capsys)
    assert "volterra march" in err["error"]["message"]


def test_markov_master_negative_rate_exits_numeric(tmp_path, capsys,
                                                   monkeypatch):
    from greenmodes import master

    payload = ww_scenario(name="master-gain")
    del payload["kernel"], payload["time"]
    payload["bath"] = {"route": "lna", "omega_max": 2.0}
    payload["evolution"] = {"mode": "markov", "t_max": 20.0, "n_steps": 100}
    cfg = write_scenario(tmp_path / "gain.json", payload)
    monkeypatch.setattr(master, "markov_coefficients",
                        lambda density, omega_d, spec=None: (-0.05 + 0j, 0j))
    code = run(["master", "--config", cfg, "--out", tmp_path / "out",
                "--quiet"])
    err = _assert_error(code, cli.EXIT_NUMERIC, "convergence", capsys)
    assert err["error"]["type"] == "RuntimeError"
    assert "negative eigenvalue" in err["error"]["message"]


@pytest.mark.parametrize("mode", ["markov", "finite_memory"])
def test_cold_bath_master_records_no_overflow_warning(tmp_path, mode):
    # at T = 0.01 the occupation's exp(omega / T) overflows over most of
    # the band: n = 0 there to double precision, a valid run whose
    # envelope carries no numpy warning
    payload = ww_scenario(name="master-cold")
    del payload["kernel"], payload["time"]
    payload["bath"] = {"route": "lna", "omega_max": 20.0,
                       "temperature": 0.01}
    payload["evolution"] = {"mode": mode, "t_max": 5.0, "n_steps": 200,
                            "max_refinements": 0}
    cfg = write_scenario(tmp_path / "cold.json", payload)
    out = tmp_path / "out"
    assert run(["master", "--config", cfg, "--out", out, "--quiet"]) == 0
    env = json.loads((out / "master-cold_envelope.json").read_text())
    assert env["warnings"] == []


def test_cavity_resonance_without_softening_exits_numeric(tmp_path, capsys):
    # omega = pi sqrt(2) is the (1, 1, 0) line of the unit cube; eta = 0
    # leaves the pole unsoftened
    payload = cube_scenario(name="cube-resonance", n_max=3)
    payload["geometry"]["eta"] = 0.0
    payload["evaluation"] = {"points": [[0.3, 0.4, 0.5]],
                             "sources": [[0.5, 0.5, 0.5]],
                             "frequencies": [np.pi * np.sqrt(2.0)]}
    cfg = write_scenario(tmp_path / "resonance.json", payload)
    code = run(["green", "--config", cfg, "--out", tmp_path / "out",
                "--quiet"])
    err = _assert_error(code, cli.EXIT_NUMERIC, "convergence", capsys)
    assert err["error"]["type"] == "ResonanceError"
    assert "resonance" in err["error"]["message"]


def test_pec_box_green_evaluates_each_pair_once(tmp_path, monkeypatch):
    # one backend call per point pair covers every frequency, so a pair
    # costs at most two ModeSet.eval_all calls (at r and at r0); rows run
    # frequency-major
    calls = []
    eval_all = ModeSet.eval_all

    def counted(self, r):
        calls.append(r)
        return eval_all(self, r)

    monkeypatch.setattr(ModeSet, "eval_all", counted)
    payload = cube_scenario(name="cube-green", n_max=4)
    payload["geometry"]["eta"] = 0.01
    points = [[0.3, 0.4, 0.5], [0.2, 0.7, 0.6]]
    sources = [[0.6, 0.5, 0.4], [0.2, 0.7, 0.6]]
    omegas = [0.5 + 0.25 * i for i in range(12)]
    payload["evaluation"] = {"points": points, "sources": sources,
                             "frequencies": omegas}
    cfg = write_scenario(tmp_path / "green.json", payload)
    out = tmp_path / "out"
    assert run(["green", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert 0 < len(calls) <= 2 * len(points)
    rows = np.loadtxt(out / "cube-green_green.csv", delimiter=",",
                      skiprows=1)
    assert rows.shape == (len(omegas) * len(points), 25)
    assert np.array_equal(rows[:, :7], [
        r + r0 + [w] for w in omegas for r, r0 in zip(points, sources)])


@pytest.mark.parametrize("subcommand, scenario, override", [
    ("ww", ww_scenario(), "atom.omega0=NaN"),
    ("ww", ww_scenario(), "time.t_max=Infinity"),
    ("ww", ww_scenario(), "geometry.permittivity.value=[1.0, -Infinity]"),
    ("modes", cube_scenario(), "geometry.lengths=[1,1,NaN]"),
    ("modes", cube_scenario(), "geometry.lengths=[1,1,%s]" % ("9" * 400)),
], ids=["omega0-nan", "t_max-inf", "eps-im-neg-inf", "length-nan",
        "length-huge-int"])
def test_non_finite_number_exits_schema(tmp_path, capsys, subcommand,
                                        scenario, override):
    cfg = write_scenario(tmp_path / "scenario.json", scenario)
    out = tmp_path / "never-created"
    code = run([subcommand, "--config", cfg, "--out", out, "--quiet",
                "--set", override])
    err = _assert_error(code, cli.EXIT_SCHEMA, "schema", capsys)
    assert err["error"]["type"] == "SchemaError"
    assert "finite" in err["error"]["message"]
    assert list(tmp_path.glob("never-created/*")) == []


def test_magic_zero_exclusion_radius_exits_schema(tmp_path, capsys):
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                       "accept04.json")
    out = tmp_path / "out"
    code = run(["check-magic", "--config", cfg, "--out", out, "--quiet",
                "--set", "magic.exclusion_radius=0",
                "--set", "magic.r=[0.3,0.2,0.1]",
                "--set", "magic.r0=[0.3,0.2,0.1]"])
    err = _assert_error(code, cli.EXIT_SCHEMA, "schema", capsys)
    assert err["error"]["type"] == "ValueError"
    assert "exclusion_radius" in err["error"]["message"]


def test_top_level_array_with_override_exits_schema(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "array.json", [cube_scenario()])
    code = run(["modes", "--config", cfg, "--quiet",
                "--set", "geometry.n_max=3"])
    err = _assert_error(code, cli.EXIT_SCHEMA, "schema", capsys)
    assert err["error"]["type"] == "SchemaError"


def test_non_utf8_config_exits_schema(tmp_path, capsys):
    cfg = tmp_path / "latin1.json"
    payload = dict(cube_scenario(), description="café")
    cfg.write_bytes(json.dumps(payload, ensure_ascii=False).encode("latin-1"))
    code = run(["modes", "--config", cfg, "--quiet"])
    err = _assert_error(code, cli.EXIT_SCHEMA, "schema", capsys)
    assert err["error"]["type"] == "UnicodeDecodeError"


def test_out_naming_a_file_exits_io(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "cube.json", cube_scenario())
    occupied = tmp_path / "occupied"
    occupied.write_text("not a directory")
    code = run(["modes", "--config", cfg, "--out", occupied, "--quiet"])
    _assert_error(code, cli.EXIT_IO, "io", capsys)
    assert occupied.read_text() == "not a directory"


def test_huge_conversion_eta_does_not_escape(tmp_path, capsys):
    # eta^2 overflows a float: the softened integral is 0 to double
    # precision, not a traceback
    payload = cube_scenario(name="p1-eta")
    payload["conversion"] = {"r": [0.31, 0.52, 0.47],
                             "r0": [0.31, 0.52, 0.47]}
    cfg = write_scenario(tmp_path / "p1.json", payload)
    out = tmp_path / "out"
    code = run(["check-p1", "--config", cfg, "--out", out, "--quiet",
                "--set", "conversion.eta=1e300"])
    assert code == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "p1-eta_report.json").read_text())["reports"][0]
    assert report["rel_residual"] == 1.0


def test_ww_overflowing_cavity_eta_exits_schema(tmp_path, capsys):
    # (eta omega)^2 overflows in the softened mode sum: a bad scenario,
    # not a run that reports gamma = 0 with a population stuck at 1
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                       "accept02.json")
    out = tmp_path / "out"
    code = run(["ww", "--config", cfg, "--out", out, "--quiet",
                "--set", "kernel.route=lna", "--set", "geometry.eta=1e200"])
    err = _assert_error(code, cli.EXIT_SCHEMA, "schema", capsys)
    assert err["error"]["type"] == "ValueError"
    assert "eta" in err["error"]["message"]
    assert not out.exists()


def test_non_finite_conversion_integrand_exits_numeric(tmp_path, capsys):
    # at eta = 1.7e308 the softened integrand is inf / inf: reported at
    # its node, not as a quadrature that ran out of panels
    payload = cube_scenario(name="p1-nan")
    payload["conversion"] = {"r": [0.31, 0.52, 0.47],
                             "r0": [0.31, 0.52, 0.47]}
    cfg = write_scenario(tmp_path / "p1.json", payload)
    code = run(["check-p1", "--config", cfg, "--out", tmp_path / "out",
                "--quiet", "--set", "conversion.eta=1.7e308"])
    err = _assert_error(code, cli.EXIT_NUMERIC, "convergence", capsys)
    assert err["error"]["type"] == "ConvergenceError"
    assert "not finite at x = " in err["error"]["message"]


def test_overflowing_conversion_eta_reports_without_warning(tmp_path,
                                                            capsys):
    # eta^2 is finite but eta^2 w^2 overflows over the top of the range:
    # the weights there are 0 to double precision, as for an eta whose
    # square alone overflows, and the run reports so without a numpy
    # overflow warning in its envelope
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                       "accept03.json")
    out = tmp_path / "out"
    code = run(["check-p1", "--config", cfg, "--out", out, "--quiet",
                "--set", "conversion.eta=1e154"])
    assert code == 0
    assert capsys.readouterr().err == ""
    env = json.loads((out / "cube-conversion_envelope.json").read_text())
    assert env["warnings"] == []
    report = json.loads((out / "cube-conversion_report.json").read_text())
    assert report["reports"][0]["rel_residual"] == 1.0


def test_memory_error_exits_numeric(tmp_path, capsys, monkeypatch):
    # an array numpy refuses to allocate: one JSON line of kind memory,
    # exit 3
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 PiB for an array")

    monkeypatch.setattr(cli, "build_pec_box_modes", refuse)
    cfg = write_scenario(tmp_path / "cube.json", cube_scenario(name="oom"))
    out = tmp_path / "out"
    code = run(["modes", "--config", cfg, "--out", out, "--quiet"])
    err = _assert_error(code, cli.EXIT_NUMERIC, "memory", capsys)
    assert err["error"]["type"] == "MemoryError"
    assert "Unable to allocate" in err["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("existing", [True, False],
                         ids=["existing-out", "nested-new-out"])
def test_failed_run_removes_only_the_out_it_made(tmp_path, capsys,
                                                 monkeypatch, existing):
    # a failed run leaves no empty --out behind, but a directory that was
    # there before the run is kept
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 PiB for an array")

    monkeypatch.setattr(cli, "build_pec_box_modes", refuse)
    cfg = write_scenario(tmp_path / "cube.json", cube_scenario(name="oom"))
    parent = tmp_path / "parent"
    out = parent if existing else parent / "a" / "b"
    if existing:
        parent.mkdir()
    code = run(["modes", "--config", cfg, "--out", out, "--quiet"])
    _assert_error(code, cli.EXIT_NUMERIC, "memory", capsys)
    assert parent.is_dir() == existing
    if existing:
        assert list(parent.iterdir()) == []


def test_ww_on_sommerfeld_backend_exits_schema(tmp_path, capsys):
    # the lna kernel needs a coincidence Im G, which the Sommerfeld
    # integral does not have: a bad scenario, not a numerical failure
    cfg = write_scenario(tmp_path / "ww.json", ww_scenario(name="ww-somm"))
    out = tmp_path / "out"
    code = run(["ww", "--config", cfg, "--out", out, "--quiet",
                "--set", "backend.type=sommerfeld"])
    err = _assert_error(code, cli.EXIT_SCHEMA, "schema", capsys)
    assert not out.exists()
    assert err["error"]["type"] == "ValueError"
    assert "BulkSommerfeld" in err["error"]["message"]


def test_ww_summary_carries_march_error(tmp_path):
    cfg = write_scenario(tmp_path / "ww.json", ww_scenario())
    out = tmp_path / "out"
    assert run(["ww", "--config", cfg, "--out", out, "--quiet"]) == 0
    summary = json.loads((out / "ww-vac_ww_summary.json").read_text())
    assert 0.0 < summary["march_error"] < 1e-3
    assert summary["march_error_reason"] is None


def test_ww_divergent_estimate_is_null_with_reason(tmp_path):
    # at 12 steps the h march of this strong dipole stays bounded and the
    # 2h march of the step-halving estimate does not: the run succeeds
    payload = ww_scenario(name="ww-coarse-estimate")
    payload["atom"]["dipole"] = [0.0, 0.0, 2.0]
    payload["time"]["n_steps"] = 12
    cfg = write_scenario(tmp_path / "ww.json", payload)
    out = tmp_path / "out"
    assert run(["ww", "--config", cfg, "--out", out, "--quiet"]) == 0
    summary = json.loads(
        (out / "ww-coarse-estimate_ww_summary.json").read_text())
    assert summary["march_error"] is None
    reason = summary["march_error_reason"]
    assert "2h volterra march diverged at step" in reason
    assert "\n" not in reason


# bundled scenario -> the subcommand it is written for
BUNDLED = {"accept01": "ww", "accept02": "ww", "accept03": "check-p1",
           "accept04": "check-magic", "accept05": "green",
           "accept06": "check-appendix", "accept07": "check-surface",
           "accept08": "ww", "accept09": "master", "accept10": "modes"}


def bundled(tag):
    return os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        tag + ".json")


def _assert_schema_error_without_work(code, capsys, calls, out):
    """A SchemaError on one JSON line, raised before any subcommand ran
    and before the output directory was made."""
    err = _assert_error(code, cli.EXIT_SCHEMA, "schema", capsys)
    assert err["error"]["type"] == "SchemaError"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("tag, override", [
    # a bad key in the last block master reads
    ("accept09", "evolution.junk=1"),
    ("accept02", "time.t_max=-1"),
    # keys the scenario's route does not read
    ("accept02", 'kernel.analytic_limit="yes"'),
    ("accept02", "kernel.omega_max=-5"),
    ("accept02", 'backend.type="bogus"'),
    ("accept05", 'backend.k_max_multiplier="x"'),
    ("accept04", "geometry.type=bogus"),
    # values the library would refuse only after cli.main made --out
    ("accept02", "time.t_max=0"),
    ("accept02", "atom.omega0=0"),
    ("accept09", "evolution.t_max=0"),
    ("accept05", "geometry.permittivity.value=[1,-1]"),
    ("accept01", "kernel.analytic_limit=true"),
    ("accept04", "magic.deltas=[0.1,0.0]"),
    ("accept04", "magic.deltas=[-0.1]"),
    ("accept04", "magic.omega=0"),
    ("accept05", "geometry.permittivity.value=0"),
    ("accept07", "surface.omega=0"),
    ("accept06", "appendix.omega=0"),
    # valid values that the nmqed route would ignore
    ("accept02", "kernel.analytic_limit=true"),
    ("accept09", "bath.omega_max=3"),
    # points outside a pec_box, an empty box, a sphere that grazes a point
    ("accept03", "conversion.r=[1.5,0.5,0.5]"),
    ("accept02", "atom.position=[2,0.5,0.5]"),
    ("accept09", "atom.position=[2,0.5,0.5]"),
    ("accept05", ('geometry={"type": "pec_box", "lengths": [1, 1, 1], '
                  '"n_max": 2, "eta": 0.01}', "backend.type=mode_sum")),
    ("accept10", "geometry.lengths=[1,0,1]"),
    ("accept07", "surface.radii=[0.5]"),
    # the one unit system is natural units: a units block is unknown
    ("accept01", 'units={"system": "natural"}'),
    # the quadrature block holds the quadrature's tolerances only
    ("accept01", "quadrature.omega_max=2"),
    ("accept01", "quadrature.pv_excision=0.25"),
    ("accept03", "quadrature.eta=0.001"),
    # an lna window that misses omega0 (the library would refuse it only
    # after the march); the default window counts when omega_max is unset
    ("accept01", "kernel.omega_max=0.5"),
    ("accept01", "kernel.omega_max=0"),
    ("accept09", ("bath.route=lna", "geometry.eta=0.01",
                  "bath.omega_max=0.8")),
    ("accept09", ("bath.route=lna", "geometry.eta=0.01", "atom.omega0=25")),
], ids=["master-last-block", "ww-t_max", "nmqed-analytic_limit",
        "nmqed-omega_max", "nmqed-backend-type", "closed-form-k_max",
        "magic-geometry-type", "ww-t_max-zero", "omega0-zero",
        "master-t_max-zero", "gain-medium", "bulk-kernel-analytic_limit",
        "magic-lossless-delta", "magic-gain-delta", "magic-omega-zero",
        "eps-zero", "surface-omega-zero", "appendix-omega-zero",
        "nmqed-kernel-analytic_limit-true", "nmqed-bath-omega_max",
        "p1-point-outside-box", "ww-atom-outside-box",
        "master-atom-outside-box", "green-point-outside-box",
        "box-length-zero", "surface-sphere-too-small", "units-block",
        "quadrature-omega_max", "quadrature-pv_excision", "quadrature-eta",
        "ww-window-below-omega0", "ww-window-zero",
        "master-window-below-omega0", "master-default-window-below-omega0"])
def test_schema_error_exits_before_any_work(tmp_path, capsys, monkeypatch,
                                            tag, override):
    calls = []
    sub = BUNDLED[tag]
    monkeypatch.setitem(cli._SUBCOMMANDS, sub,
                        (lambda *args: calls.append(args),)
                        + cli._SUBCOMMANDS[sub][1:])
    out = tmp_path / "never-created"
    overrides = (override,) if isinstance(override, str) else override
    code = run([sub, "--config", bundled(tag), "--out", out, "--quiet"]
               + [arg for o in overrides for arg in ("--set", o)])
    _assert_schema_error_without_work(code, capsys, calls, out)


def test_bath_analytic_limit_on_bulk_exits_schema_before_any_work(
        tmp_path, capsys):
    # the analytic limit needs a cavity mode sum; the library would refuse
    # it only after cli.main made --out
    out = tmp_path / "never-created"
    code = run(["master", "--config", bundled("accept09"), "--out", out,
                "--quiet", "--set", 'geometry={"type": "bulk", "permittivity":'
                ' {"model": "constant", "value": 1.0}}',
                "--set", "bath.route=lna", "--set", "bath.analytic_limit=true"])
    err = _assert_error(code, cli.EXIT_SCHEMA, "schema", capsys)
    assert err["error"]["type"] == "SchemaError"
    assert "bath.analytic_limit" in err["error"]["message"]
    assert not out.exists()


def test_quadrature_block_mirrors_quadrature_spec():
    # the block sets the spec's fields, each defaulting as the spec does
    schema = cli._SCHEMA["quadrature"][2]["schema"]
    assert {key: default for key, (_, default, _) in schema.items()} == {
        f.name: f.default for f in dataclasses.fields(QuadratureSpec)}


def _schema_fields():
    """(tag, block, key, check, limits) for every key of every block that
    the subcommand of a bundled scenario takes; a tagged union contributes
    the keys of the scenario's own variant."""
    fields = []
    for tag, sub in sorted(BUNDLED.items()):
        with open(bundled(tag)) as fh:
            body = json.load(fh)
        for block in cli._COMMON + cli._SUBCOMMANDS[sub][1]:
            check, _, limits = cli._SCHEMA[block]
            if check is cli._resolve:
                schema = limits["schema"]
            elif check is cli._union and block in body:
                schema = limits["variants"][body[block][limits["tag"]]]
            else:
                continue
            for key, (key_check, _, key_limits) in schema.items():
                fields.append((tag, block, key, key_check, key_limits))
    return fields


# one value of each JSON type, and the types each value check accepts
JSON_VALUES = {"null": None, "bool": True, "int": 7, "float": 0.5, "str": "x",
               "list": [], "object": {}}
ACCEPTS = {cli._number: {"int", "float"}, cli._integer: {"int"},
           cli._string: {"str"}, cli._boolean: {"bool"},
           cli._numbers: {"list"}, cli._vec3s: {"list"}, cli._poles: {"list"},
           cli._eps_value: {"int", "float", "list"}, cli._name: {"str"},
           cli._resolve: {"object"}, cli._union: {"object"}}


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(_schema_fields()), data=st.data())
def test_malformed_override_exits_schema_before_any_work(
        tmp_path, capsys, monkeypatch, field, data):
    # only malformed values are drawn: a wrong JSON type, NaN where a
    # number goes, or a number below the key's minimum or at its
    # exclusive lower bound
    tag, block, key, check, limits = field
    accepts = ACCEPTS[check]
    bad = [json.dumps(v) for kind, v in JSON_VALUES.items()
           if kind not in accepts]
    if "float" in accepts:
        bad.append("NaN")
    if "minimum" in limits:
        bad.append(json.dumps(limits["minimum"] - 1))
    if "above" in limits:
        bad.append(json.dumps(limits["above"]))
    value = data.draw(st.sampled_from(bad))
    calls = []
    sub = BUNDLED[tag]
    monkeypatch.setitem(cli._SUBCOMMANDS, sub,
                        (lambda *args: calls.append(args),)
                        + cli._SUBCOMMANDS[sub][1:])
    out = tmp_path / "never-created"
    code = run([sub, "--config", bundled(tag), "--out", out, "--quiet",
                "--set", "%s.%s=%s" % (block, key, value)])
    _assert_schema_error_without_work(code, capsys, calls, out)
