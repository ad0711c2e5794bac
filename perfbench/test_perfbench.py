"""The benchmark's own tests, at shrunken sizes.

    python3 -m pytest -q perfbench

Not part of the package's suite (pytest's testpaths is tests/).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py")] + list(args)
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True,
                          timeout=600)


def test_spec_names_the_generators():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for line in proc.stdout.splitlines():
        if line.startswith("residual "):
            assert line.endswith(" ok"), line


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "vacuum-decay", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _outputs(outdirs):
    """{relative path: bytes}, envelopes without their wall-clock field."""
    files = {}
    for outdir in outdirs:
        for name in sorted(os.listdir(outdir)):
            data = Path(outdir, name).read_bytes()
            if name.endswith("_envelope.json"):
                envelope = json.loads(data)
                envelope.pop("timings")
                data = json.dumps(envelope, sort_keys=True).encode()
            files[os.path.join(os.path.basename(outdir), name)] = data
    return files


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_outputs_are_byte_identical(workload, tmp_path):
    import greenmodes.cli as cli

    runs = workloads.generate(workload, 11, str(tmp_path / "scenarios"), tiny=True)
    _, plain_dirs, plain_codes = bench.run_iteration(cli, runs, str(tmp_path / "plain"))
    original = cli.main
    tracer = layers.Tracer().install()
    try:
        _, traced_dirs, traced_codes = bench.run_iteration(
            cli, runs, str(tmp_path / "traced"))
    finally:
        tracer.uninstall()
    assert plain_codes == traced_codes == [0] * len(runs)
    assert tracer.absent == []
    assert tracer.spans and tracer.counts["cli.main.calls"] == len(runs)
    plain, traced = _outputs(plain_dirs), _outputs(traced_dirs)
    assert plain.keys() == traced.keys()
    for name in plain:
        assert plain[name] == traced[name], name
    assert cli.main is original
