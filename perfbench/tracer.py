"""Outside-in tracing of beliefmkt layers.

Timing wrappers are installed from here by replacing module attributes of
the loaded ``beliefmkt`` modules (``feedback.logsumexp``,
``equilibrium.softmax``, ...), so the program itself is not modified.  Every
wrapped call records a span (name, start, end, parent span, item id) in
memory; spans are written out once, when the run ends.  A layer's self time
is its spans' duration minus the time covered by their direct child spans.

Besides spans, the tracer keeps exact counters (calls, residual
evaluations inside ``brentq``, useful scans, multi-root steps, grid points,
bytes) that must repeat exactly between two traced runs of the same inputs.
"""

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, item id]
        self.counters = Counter()
        self._stack = []
        self.item = -1

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_result(result, args, kwargs)`` may add to the counters.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Total self time and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
            calls[name] += 1
        return self_s, calls

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def merge(self, spans, counters, item):
        """Add spans and counters recorded by another process."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1, item])
        self.counters.update(counters)

    def write(self, path):
        with open(path, "w") as fp:
            fp.write("name,start,end,parent,item\n")
            for name, start, end, parent, item in self.spans:
                fp.write(f"{name},{start!r},{end!r},{parent},{item}\n")


# ---------------------------------------------------------------------------
# layer table


def _text_bytes_written(tracer, key, fn):
    """Wrap a ``write_csv(self, fp)`` method to count the bytes it writes."""

    @functools.wraps(fn)
    def counted(obj, fp):
        start = fp.tell()
        fn(obj, fp)
        tracer.counters[key] += fp.tell() - start

    return counted


def _brentq_counting(tracer, fn):
    """``brentq`` that counts residual evaluations; the root is unchanged."""

    @functools.wraps(fn)
    def counted(f, a, b, *args, **kwargs):
        def residual(x, *extra):
            tracer.counters["numerics.brentq.fevals"] += 1
            return f(x, *extra)
        return fn(residual, a, b, *args, **kwargs)

    return counted


def _scan_result(tracer):
    def record(cells, args, kwargs):
        tracer.counters["feedback.scans"] += 1
        if cells:
            tracer.counters["feedback.useful_scans"] += 1
    return record


def _solve_step_result(tracer):
    def record(result, args, kwargs):
        if result[1] > 1:
            tracer.counters["feedback.multiroot_steps"] += 1
    return record


def _grid_result(tracer):
    def record(path, args, kwargs):
        tracer.counters["equilibrium.grid_points"] += path.times.size
        tracer.counters["equilibrium.bytes_computed"] += sum(
            v.nbytes for v in vars(path).values() if hasattr(v, "nbytes"))
    return record


def _fit_result(tracer):
    def record(result, args, kwargs):
        tracer.counters["calibration.objective_evals"] += result.n_evaluations
    return record


# (defining module, attribute, span name, result hook)
_FUNCTIONS = (
    ("feedback", "solve_step", "feedback.solve_step", _solve_step_result),
    ("feedback", "log_price_dividend", "feedback.log_price_dividend", None),
    ("feedback", "draw_agents", "feedback.draw_agents", None),
    ("feedback", "run_feedback", "feedback.run_feedback", None),
    ("beliefs", "log_density_increment", "beliefs.log_density_increment", None),
    ("beliefs", "posterior_mean_step", "beliefs.posterior_mean_step", None),
    ("numerics", "scan_sign_changes", "numerics.scan_sign_changes",
     _scan_result),
    ("rngtools", "agent_rng", "rngtools", None),
    ("rngtools", "path_rng", "rngtools", None),
    ("equilibrium", "simulate_path", "equilibrium.simulate_path", None),
    ("equilibrium", "simulate_driver", "equilibrium.simulate_driver", None),
    ("equilibrium", "log_ratio_paths", "equilibrium.log_ratio_paths", None),
    ("equilibrium", "evaluate_grid", "equilibrium.evaluate_grid", _grid_result),
    ("equilibrium", "wealth_and_portfolios",
     "equilibrium.wealth_and_portfolios", None),
    ("equilibrium", "trade_volume", "equilibrium.trade_volume", None),
    ("calibration", "compute_moments", "calibration.compute_moments", None),
    ("calibration", "evaluate_point", "calibration.evaluate_point", None),
    ("calibration", "fit_parameters", "calibration.fit_parameters",
     _fit_result),
    ("calibration", "ingest_price_dividend_csv",
     "calibration.ingest_price_dividend_csv", None),
    ("beauty", "format_solution", "beauty", None),
    ("beauty", "truthful_equilibrium", "beauty", None),
    ("beauty", "pareto_faked_equilibrium", "beauty", None),
    ("beauty", "welfare_comparison", "beauty", None),
    ("config", "load_config", "config.load_config", None),
    ("config", "parse_market", "config.parse", None),
    ("config", "parse_simulate", "config.parse", None),
    ("config", "parse_feedback", "config.parse", None),
    ("config", "parse_contest", "config.parse", None),
    ("config", "parse_fit", "config.parse", None),
    ("config", "parse_targets", "config.parse", None),
    ("config", "write_manifest", "config.write_manifest", None),
    ("cli", "main", "cli.main", None),
)

# numerics functions recorded per calling module: numerics.<fn>.<caller>
_PER_CALLER = ("logsumexp", "softmax")
_PACKAGE = "beliefmkt"


def _package_modules():
    return {name[len(_PACKAGE) + 1:]: module
            for name, module in list(sys.modules.items())
            if name.startswith(_PACKAGE + ".") and module is not None}


def install(tracer):
    """Wrap every traced function in every loaded beliefmkt module that
    refers to it.  Returns a callable that restores the originals.

    A function or module the program no longer has is skipped, so its
    metrics read 0 rather than the run failing.
    """
    modules = _package_modules()
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod_name, attr, span, hook in _FUNCTIONS:
        original = getattr(modules.get(mod_name), attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(span, original,
                              hook(tracer) if hook is not None else None)
        for module in [sys.modules[_PACKAGE], *modules.values()]:
            for name, value in list(vars(module).items()):
                if value is original:
                    replace(module, name, wrapped)

    for fn_name in _PER_CALLER:
        original = getattr(modules.get("numerics"), fn_name, None)
        for caller, module in modules.items():
            if original is not None and caller != "numerics" \
                    and getattr(module, fn_name, None) is original:
                replace(module, fn_name, tracer.wrap(
                    f"numerics.{fn_name}.{caller}", original))

    feedback = modules.get("feedback")
    if getattr(feedback, "brentq", None) is not None:
        replace(feedback, "brentq", tracer.wrap(
            "numerics.brentq", _brentq_counting(tracer, feedback.brentq)))

    for mod_name, cls_name in (("feedback", "FeedbackResult"),
                               ("equilibrium", "EquilibriumPath")):
        cls = getattr(modules.get(mod_name), cls_name, None)
        if getattr(cls, "write_csv", None) is not None:
            key = f"{mod_name}.write_csv"
            replace(cls, "write_csv", tracer.wrap(
                key, _text_bytes_written(tracer, key + ".bytes",
                                         cls.write_csv)))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def median(values):
    return statistics.median(values) if values else 0.0
