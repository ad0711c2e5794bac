"""Scenario benchmark for greenmodes, end to end through ``cli.main``.

    python3 perfbench/run.py --workload vacuum-decay --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; nothing needs to be built or
installed (the package is imported from ``src/``).  One invocation runs
one workload in its own process:

1. one untimed warm-up pass over the workload at its ``--tiny`` sizes,
   which runs every code path once (lazy imports, first-call set-up);
2. timed passes, each calling ``greenmodes.cli.main`` in-process on every
   scenario of the workload, until ``--seconds`` of timed work are done;
3. after each pass, untimed: the oracles in ``oracles.py`` read the
   outputs back, and every scenario run that exits non-zero or misses an
   oracle counts as failed;
4. between passes, spread evenly over the run and untimed by it: five
   set-up probes, fresh processes that each import ``greenmodes.cli`` and
   write the workload's seeded scenario files, which is what every
   command-line user pays before the first ``cli.main`` call.  Their
   median is ``setup_s``.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, the median timed
pass (the pass count, fastest and slowest pass are printed beside it),
``setup_s`` and ``peak_rss_mb`` (this process's peak resident memory).
On the shared 2-core machine the benchmark was built on, the CPU runs
30-50 % slower in spells that last from seconds to many minutes, so the
passes of one run spread by up to a factor 1.5.  Over five sets of ten
seeds at ``--seconds 22`` the median pass spread by 0.04-0.33
(IQR/median), and whole sets ran up to 40 % slower than others; the
fastest pass was no steadier.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics from ``layers.py`` (medians over the traced passes); the
last traced pass's spans are written to
``.perfbench/spans-<workload>-seed<seed>.json`` when the run ends.

BLAS and OpenMP pools are capped at one thread before numpy is imported:
the package is single-threaded Python, and one thread keeps runs steady
on a shared machine.  The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
THREADS = 1
SETUP_PROBES = 5


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def git_rev():
    """HEAD of the checkout, read from .git without running git (a bare
    source tree has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    numerics = sys.modules.get("greenmodes.numerics")
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "HAVE_COMPILED_VOLTERRA": getattr(numerics, "HAVE_COMPILED_VOLTERRA",
                                          "absent"),
    }


def setup_probe(args, directory):
    """Wall time of one fresh process that imports greenmodes.cli and
    writes the scenario files (--setup-probe), start to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe", directory] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + proc.stderr)
    shutil.rmtree(directory)
    return elapsed


def run_iteration(cli, runs, outroot):
    """One pass over the workload through cli.main, looked up at call time
    so a tracer's rebinding applies.  Returns (wall_s, outdirs, exit codes)."""
    outdirs = [os.path.join(outroot, run.label) for run, _ in runs]
    for outdir in outdirs:
        os.makedirs(outdir, exist_ok=True)
    codes = []
    t0 = time.perf_counter()
    for (run, config), outdir in zip(runs, outdirs):
        try:
            code = cli.main(run.argv(config, outdir))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = 1
        codes.append(code)
    return time.perf_counter() - t0, outdirs, codes


class Tally:
    """Attempted and failed scenario runs, and the worst value of every
    oracle residual seen."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.worst = {}

    def add(self, oracles, runs, outdirs, codes):
        results = oracles.check_iteration([r for r, _ in runs], outdirs, codes)
        for run, _ in runs:
            residuals = results[run.label]
            self.attempted += 1
            self.failed += not oracles.passed(residuals)
            for name, value, tol in residuals:
                key = "%s/%s.%s" % (self.workload, run.label, name)
                old = self.worst.get(key)
                if old is None or not value <= old[0]:
                    self.worst[key] = (value, tol)

    def print_residuals(self):
        for key, (value, tol) in sorted(self.worst.items()):
            print("residual %s = %.3e (tol %.1e) %s"
                  % (key, value, tol, "ok" if value <= tol else "MISS"))
        print("fail_frac = %d/%d" % (self.failed, self.attempted))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_passes(cli, oracles, runs, iterdir, tally, args, probedir):
    """Timed passes until args.seconds of them are done, with the set-up
    probes spread evenly between them (untimed), so that setup_s samples
    the whole run rather than one moment of it."""
    walls, probes = [], []
    while not walls or sum(walls) < args.seconds:
        wall, outdirs, codes = run_iteration(cli, runs, iterdir)
        walls.append(wall)
        tally.add(oracles, runs, outdirs, codes)
        shutil.rmtree(iterdir)
        if sum(walls) >= len(probes) * args.seconds / SETUP_PROBES:
            probes.append(setup_probe(args, probedir))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args, probedir))
    return walls, probes


def traced_passes(cli, oracles, layers, runs, iterdir, tally, seconds, spans_path,
                  env):
    """Alternate untraced and traced passes; per-layer medians over the
    traced ones.  The last traced pass's spans go to spans_path."""
    tracer = layers.Tracer()
    plain, traced, per_pass = [], [], []
    while not traced or sum(plain) + sum(traced) < seconds:
        wall, outdirs, codes = run_iteration(cli, runs, iterdir)
        plain.append(wall)
        tally.add(oracles, runs, outdirs, codes)
        shutil.rmtree(iterdir)

        tracer.reset()
        tracer.install()
        try:
            wall, outdirs, codes = run_iteration(cli, runs, iterdir)
        finally:
            tracer.uninstall()
        traced.append(wall)
        values = tracer.layer_metrics()
        values["cli.rows_written"] = float(sum(oracles.table_rows(d) for d in outdirs))
        values["trace.accounted_frac"] = sum(tracer.self_times().values()) / wall
        per_pass.append(values)
        tally.add(oracles, runs, outdirs, codes)
        shutil.rmtree(iterdir)

    with open(spans_path, "w") as fh:
        json.dump({"env": env, "absent": tracer.absent,
                   "columns": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    for target in tracer.absent:
        print("absent wrap target: %s" % target)

    metrics = {}
    for name in per_pass[0]:
        unit = "s" if name.endswith("_s") or name.endswith(".s") else "count"
        if name == "trace.accounted_frac":
            unit = "frac"
        elif name.endswith("phase_bytes"):
            unit = "B"
        metrics[name] = _metric(statistics.median(v[name] for v in per_pass), unit)
    metrics["trace.wall_s"] = _metric(statistics.median(traced), "s")
    metrics["trace.untraced_wall_s"] = _metric(statistics.median(plain), "s")
    # adjacent passes share the machine's speed, so pair them
    metrics["trace.overhead_s"] = _metric(
        statistics.median(t - p for t, p in zip(traced, plain)), "s")
    metrics["trace.absent_targets"] = _metric(float(len(tracer.absent)), "count")
    return metrics


def parse_args(argv):
    import workloads  # numpy-only; threads are pinned before this import

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=22.0,
                    help="timed work per run, in seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken sizes, for the benchmark's own tests")
    ap.add_argument("--setup-probe", metavar="DIR", default=None,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    if not (SRC / "greenmodes" / "cli.py").is_file():
        print("perfbench: no greenmodes sources under %s; run from the root "
              "of a source checkout" % SRC, file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import workloads

    if args.setup_probe is not None:
        import greenmodes.cli  # noqa: F401  (the import is what is measured)

        workloads.generate(args.workload, args.seed, args.setup_probe, args.tiny)
        return 0

    work = WORK / ("work-%d" % os.getpid())
    try:
        return _bench(args, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, workloads, work):
    import greenmodes.cli as cli
    import oracles
    import layers

    if SRC not in Path(cli.__file__).resolve().parents:
        print("perfbench: imported greenmodes from %s, not from %s"
              % (cli.__file__, SRC), file=sys.stderr)
        return 2
    env = environment()
    print("env %s" % json.dumps(env, sort_keys=True))

    runs = workloads.generate(args.workload, args.seed, str(work / "scenarios"),
                              args.tiny)
    iterdir = str(work / "out")
    tally = Tally(args.workload)
    warm = workloads.generate(args.workload, args.seed, str(work / "warm-up"),
                              tiny=True)
    _, outdirs, codes = run_iteration(cli, warm, iterdir)
    tally.add(oracles, warm, outdirs, codes)
    shutil.rmtree(iterdir)

    if args.trace:
        spans_path = WORK / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        metrics = traced_passes(cli, oracles, layers, runs, iterdir, tally,
                                args.seconds, spans_path, env)
        metrics["fail_frac"] = _metric(tally.failed / tally.attempted, "frac")
    else:
        walls, probes = timed_passes(cli, oracles, runs, iterdir, tally, args,
                                     str(work / "setup-probe"))
        print("wall_s median %.4f s over %d passes (min %.4f, max %.4f)"
              % (statistics.median(walls), len(walls), min(walls), max(walls)))
        print("passes_s %s" % json.dumps([round(w, 4) for w in walls]))
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(statistics.median(probes), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    tally.print_residuals()
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
