"""Layer spans recorded from outside the package.

``Tracer.install`` rebinds each layer's public functions in every
``greenmodes`` module that holds a reference to them (the modules import
these names directly, e.g. ``decay.fourier_table`` and
``cli.solve_volterra``) and patches methods on their classes.  Each call
becomes a span with its name, start, end and the innermost open span as
parent; spans stay in memory until the caller writes them out.  A
layer's self time is its spans' durations minus their children's, so
the self times of all layers add up to the root ``cli.main`` spans.

Targets that no longer exist are listed in ``Tracer.absent`` instead of
failing, so the tracer keeps working while the package is refactored.
Wrappers pass arguments and results through unchanged (argument
callables are wrapped only to count nodes), so traced outputs stay
bitwise identical to untraced ones.
"""

import inspect
import sys
import time
from collections import defaultdict

# (span name, module, function)
FUNCTIONS = (
    ("cli.main", "greenmodes.cli", "main"),
    ("numerics.fourier_table", "greenmodes.numerics", "fourier_table"),
    ("numerics.volterra_march", "greenmodes.numerics", "volterra_march"),
    ("numerics.integrate_adaptive", "greenmodes.numerics", "integrate_adaptive"),
    ("modes.build_pec_box_modes", "greenmodes.modes", "build_pec_box_modes"),
    ("decay.kernel", "greenmodes.decay", "kernel_lna"),
    ("decay.kernel", "greenmodes.decay", "kernel_nmqed"),
    ("decay.solve_volterra", "greenmodes.decay", "solve_volterra"),
    ("decay.markov_rate_and_shift", "greenmodes.decay", "markov_rate_and_shift"),
    ("master.bath_correlations", "greenmodes.master", "bath_correlations"),
    ("master.evolve_master_equation", "greenmodes.master", "evolve_master_equation"),
    ("master.spectral_density", "greenmodes.master", "spectral_density_lna"),
    ("master.spectral_density", "greenmodes.master", "spectral_density_nmqed"),
    ("identities.check_conversion_p1", "greenmodes.identities", "check_conversion_p1"),
    ("identities.check_magic_formula", "greenmodes.identities", "check_magic_formula"),
    ("identities.check_surface_term", "greenmodes.identities", "check_surface_term"),
    ("identities.check_appendix_lossless_limit", "greenmodes.identities",
     "check_appendix_lossless_limit"),
)

# (span name, module, class or None for every class defining it, method)
METHODS = (
    ("modes.eval_all", "greenmodes.modes", "ModeSet", "eval_all"),
    ("greens.im_coincidence", "greenmodes.greens", None, "im_coincidence"),
    ("greens.evaluate", "greenmodes.greens", None, "evaluate"),
)

# spans whose time metric is named self_s: their children are the point
SELF_S = ("cli.main", "decay.solve_volterra", "master.evolve_master_equation")

SPAN_NAMES = tuple(dict.fromkeys(
    [name for name, *_ in FUNCTIONS] + [name for name, *_ in METHODS]))

COUNTS = (
    "numerics.fourier_table.calls",
    "numerics.fourier_table.rows",
    "numerics.fourier_table.nodes",
    "numerics.fourier_table.phase_entries",
    "numerics.fourier_table.phase_bytes",
    "numerics.volterra_march.calls",
    "numerics.volterra_march.steps",
    "numerics.integrate_adaptive.calls",
    "numerics.integrate_adaptive.panels",
    "numerics.convergence_errors",
    "greens.im_coincidence.calls",
    "greens.evaluate.calls",
    "modes.eval_all.calls",
    "modes.n_modes",
    "master.bath_correlations.phase_entries",
    "master.steps",
)

GK_NODES_PER_PANEL = 15


def time_metric(span):
    return span + (".self_s" if span in SELF_S else ".s")


def _size(value):
    shape = getattr(value, "shape", None)
    if shape is not None:
        n = 1
        for s in shape:
            n *= int(s)
        return n
    try:
        return len(value)
    except TypeError:
        return 1


class _NodeCounter:
    """Wraps an integrand or weight callable; counts the nodes it sees."""

    def __init__(self, fn):
        self.fn = fn
        self.nodes = 0

    def __call__(self, x, *args, **kwargs):
        self.nodes += _size(x)
        return self.fn(x, *args, **kwargs)


# --- per-target counters: pre(tracer, bound) -> post(result) or None


def _pre_fourier_table(tracer, bound):
    args = bound.arguments
    if "weight" not in args or "taus" not in args:
        return None
    counter = _NodeCounter(args["weight"])
    args["weight"] = counter
    rows = _size(args["taus"])

    def post(_result):
        entries = rows * counter.nodes
        tracer.count("numerics.fourier_table.rows", rows)
        tracer.count("numerics.fourier_table.nodes", counter.nodes)
        tracer.count("numerics.fourier_table.phase_entries", entries)
        tracer.count("numerics.fourier_table.phase_bytes", 16 * entries)
    return post


def _pre_volterra_march(tracer, bound):
    kernel = bound.arguments.get("kernel")
    if kernel is not None:
        tracer.count("numerics.volterra_march.steps", _size(kernel) - 1)
    return None


def _pre_integrate_adaptive(tracer, bound):
    args = bound.arguments
    if "f" not in args:
        return None
    counter = _NodeCounter(args["f"])
    args["f"] = counter

    def post(_result):
        tracer.count("numerics.integrate_adaptive.panels",
                     counter.nodes / GK_NODES_PER_PANEL)
    return post


def _pre_bath_correlations(tracer, bound):
    density = bound.arguments.get("density")
    taus = bound.arguments.get("taus")
    lines = getattr(density, "omegas", None)
    if taus is not None and lines is not None and getattr(density, "is_discrete", False):
        tracer.count("master.bath_correlations.phase_entries",
                     _size(taus) * _size(lines))
    return None


def _post_counter(metric, read):
    def pre(tracer, _bound):
        def post(result):
            value = read(result)
            if value is not None:
                tracer.count(metric, value)
        return post
    return pre


def _n_modes(modeset):
    try:
        return len(modeset)
    except TypeError:
        return None


HOOKS = {
    "fourier_table": _pre_fourier_table,
    "volterra_march": _pre_volterra_march,
    "integrate_adaptive": _pre_integrate_adaptive,
    "bath_correlations": _pre_bath_correlations,
    "build_pec_box_modes": _post_counter("modes.n_modes", _n_modes),
    "evolve_master_equation": _post_counter(
        "master.steps", lambda traj: getattr(traj, "n_steps_used", None)),
}


class Tracer:
    def __init__(self):
        self.absent = []
        self._undo = []
        self._convergence_error = None
        self.reset()

    def reset(self):
        # one row per span: [name, start, end, parent index or -1]
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._seen_errors = set()

    def count(self, metric, value):
        self.counts[metric] += value

    # -- installation

    def install(self):
        """Wrap every target; returns self.  Call uninstall() to undo."""
        import greenmodes.cli  # noqa: F401  (imports every layer module)

        self.absent = []

        package = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "greenmodes"
                                         or name.startswith("greenmodes."))]
        numerics = sys.modules.get("greenmodes.numerics")
        self._convergence_error = getattr(numerics, "ConvergenceError", None)
        done = set()
        for span, modname, attr in FUNCTIONS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if not callable(fn):
                self.absent.append("%s.%s" % (modname, attr))
                continue
            if id(fn) in done:
                continue
            done.add(id(fn))
            wrapper = self._wrap(span, fn, HOOKS.get(attr))
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, key, wrapper, fn)
        for span, modname, clsname, attr in METHODS:
            module = sys.modules.get(modname)
            if clsname is None:
                classes = [c for c in vars(module).values() if isinstance(c, type)
                           and c.__module__ == modname and attr in vars(c)] \
                    if module is not None else []
            else:
                cls = getattr(module, clsname, None)
                classes = [cls] if isinstance(cls, type) and attr in vars(cls) else []
            if not classes:
                self.absent.append("%s.%s.%s" % (modname, clsname or "*", attr))
            for cls in classes:
                fn = vars(cls)[attr]
                if not inspect.isfunction(fn):
                    self.absent.append("%s.%s.%s" % (modname, cls.__name__, attr))
                    continue
                self._rebind(cls, attr, self._wrap(span, fn, None), fn)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def _rebind(self, owner, key, wrapper, original):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def _wrap(self, name, fn, pre):
        signature = inspect.signature(fn) if pre is not None else None
        calls = name + ".calls"
        tracer = self

        def wrapper(*args, **kwargs):
            post = None
            if pre is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                except TypeError:
                    bound = None
                if bound is not None:
                    post = pre(tracer, bound)
                    args, kwargs = bound.args, bound.kwargs
            tracer.count(calls, 1)
            spans = tracer.spans
            stack = tracer._stack
            row = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._note_error(exc)
                raise
            finally:
                row[2] = time.perf_counter()
                stack.pop()
            if post is not None:
                post(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _note_error(self, exc):
        """Count a ConvergenceError once, where it leaves the innermost span."""
        cls = self._convergence_error
        if cls is None or not isinstance(exc, cls) or id(exc) in self._seen_errors:
            return
        self._seen_errors.add(id(exc))
        self.count("numerics.convergence_errors", 1)

    # -- results

    def self_times(self):
        """{span name: summed self time in seconds}."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def layer_metrics(self):
        """Every span's self time and every count, zero where nothing ran."""
        times = self.self_times()
        out = {time_metric(span): times.get(span, 0.0) for span in SPAN_NAMES}
        for metric in COUNTS:
            out[metric] = float(self.counts.get(metric, 0.0))
        return out
