"""Spans around the library's public operations, installed from outside.

The traced run wraps every call that enters one of the package modules from
outside it: calls the benchmark makes, and calls one module makes into
another (the CLI into textio, a generator into `CspInstance`, the invariance
gap into the influence code).  Calls inside one module are not wrapped, so a
layer's time is the time spent in calls that enter it.  Nothing in `src/` is
edited: wrappers replace the names other modules and the benchmark look up.

A span is a dict with an id, the id of the job or case it belongs to
(`trace`), its parent span, its name `<module>.<function>`, monotonic start
and end times, and counters.  CLOCK_MONOTONIC is shared by all processes on
the host, so spans written by CLI child processes line up with the parent's.
"""

import contextlib
import functools
import importlib
import itertools
import json
import os
import time
import types

MODULES = (
    "cli", "textio", "reductions", "csp", "labelcover", "boolanalysis",
    "correlated", "predicate", "errors",
)

# The operations each layer metric is made of.  Token-level helpers such as
# `textio.parse_digits` or `boolanalysis.compose_projection` are left out:
# they run once per constraint, and wrapping them would time the wrapper.
TARGETS = {
    "textio": (
        "parse_predicate", "parse_instance", "parse_labelcover", "parse_space",
        "parse_truth_table", "parse_values", "parse_distribution",
        "parse_assignments", "parse_labelings", "parse_tables",
        "format_predicate", "format_instance", "format_labelcover",
        "format_space", "format_assignments", "format_labelings",
        "format_tables",
    ),
    "reductions": (
        "generate_t1", "generate_t2", "generate_t3",
        "sample_t1", "sample_t2", "sample_t3",
        "t1_completeness_witness", "t2_completeness_witness",
        "t3_completeness_witness", "rejection_identity_check",
        "decode_t1", "decode_t2", "decode_t3",
    ),
    "csp": (
        "CspInstance", "covered_fraction", "find_cover", "covering_number",
        "max_independent_set",
    ),
    "labelcover": ("synthesize", "max_satisfiable", "is_c_coverable"),
    "boolanalysis": (
        "efron_stein", "influence", "degree_d_influence", "all_influences",
        "all_degree_d_influences", "fourier",
    ),
    "correlated": ("invariance_gap", "commute_check", "correlation_rho"),
}


class Tracer:
    """Keeps spans in memory; `dump` writes them out once, at the end."""

    def __init__(self, prefix, trace_id=None, parent=None):
        self.prefix = prefix
        self.trace_id = trace_id
        self.spans = []
        self._stack = [] if parent is None else [{"id": parent}]
        self._ids = itertools.count()

    def open(self, name):
        span = {
            "id": "%s.%d" % (self.prefix, next(self._ids)),
            "trace": self.trace_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "counts": {},
        }
        self._stack.append(span)
        return span

    def close(self, span, error=None):
        span["end"] = time.monotonic()
        if error is not None:
            span["error"] = type(error).__name__
        self._stack.pop()
        self.spans.append(span)

    def record(self, name, start, end):
        """A span for an interval measured before the tracer existed."""
        span = self.open(name)
        self.close(span)
        span["start"], span["end"] = start, end

    @contextlib.contextmanager
    def root(self, trace_id, name):
        """A job or case: the parent of every span it causes."""
        outer, self.trace_id = self.trace_id, trace_id
        span = self.open(name)
        try:
            yield span
        except BaseException as exc:
            self.close(span, exc)
            raise
        else:
            self.close(span)
        finally:
            self.trace_id = outer

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _count_result(home, name, args, kwargs, out, counts):
    if home == "textio":
        text = out if name.startswith("format_") else args[0]
        counts["bytes"] = len(text.encode("utf-8"))
    elif name.startswith("generate_") or name == "CspInstance":
        counts["constraints"] = len(out.constraints)
    elif name.startswith("sample_"):
        counts["sampled"] = int(args[1] if len(args) > 1 else kwargs["n"])


def _wrap_function(tracer, budget_type, home, name, fn):
    span_name = "%s.%s" % (home, name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        budget = kwargs.get("budget")
        if "budget" in kwargs and not isinstance(budget, budget_type):
            # The CLI passes `--budget` on as an int; an explicit Budget
            # with the same limit behaves identically and can be read back.
            budget = kwargs["budget"] = budget_type(budget)
        before = budget.used if budget is not None else 0
        span = tracer.open(span_name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            if budget is not None:
                span["counts"]["budget"] = budget.used - before
            tracer.close(span, exc)
            raise
        if budget is not None:
            span["counts"]["budget"] = budget.used - before
        _count_result(home, name, args, kwargs, out, span["counts"])
        tracer.close(span)
        return out

    return traced


def _wrap_class(tracer, home, name, cls):
    span_name = "%s.%s" % (home, name)

    def __init__(self, *args, **kwargs):
        span = tracer.open(span_name)
        try:
            cls.__init__(self, *args, **kwargs)
        except BaseException as exc:
            tracer.close(span, exc)
            raise
        _count_result(home, name, args, kwargs, self, span["counts"])
        tracer.close(span)

    return type(cls.__name__, (cls,), {"__slots__": (), "__init__": __init__})


class _Proxy:
    """A module as seen through the wrappers; other names pass through."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def load(tracer=None):
    """The package modules by short name, wrapped when a tracer is given.

    With a tracer, every other package module's references to a target
    (imported names, module objects, dispatch tables such as the CLI's
    generator map) are redirected to the wrappers as well.
    """
    mods = {m: importlib.import_module("cspcover." + m) for m in MODULES}
    if tracer is None:
        return types.SimpleNamespace(**mods)
    budget_type = mods["errors"].Budget
    wrapped = {}
    for home, names in TARGETS.items():
        for name in names:
            obj = getattr(mods[home], name)
            if isinstance(obj, type):
                wrapper = _wrap_class(tracer, home, name, obj)
            else:
                wrapper = _wrap_function(tracer, budget_type, home, name, obj)
            wrapped[id(obj)] = (home, wrapper)
    proxies = {
        m: _Proxy(mod, {n: wrapped[id(getattr(mod, n))][1]
                        for n in TARGETS.get(m, ())})
        for m, mod in mods.items()
    }
    for m, mod in mods.items():
        namespace = vars(mod)
        for key, val in list(namespace.items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] != m:
                namespace[key] = hit[1]
            elif (isinstance(val, types.ModuleType)
                  and val.__name__.startswith("cspcover.") and val is not mod):
                namespace[key] = proxies[val.__name__.rsplit(".", 1)[1]]
            elif isinstance(val, dict) and not key.startswith("__"):
                for k, v in list(val.items()):
                    hit = wrapped.get(id(v))
                    if hit is not None and hit[0] != m:
                        val[k] = hit[1]
    return types.SimpleNamespace(**proxies)


def self_times(spans):
    """Span id -> duration minus the time covered by its direct children."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (
                child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    return {
        s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        for s in spans
    }


def read_spans(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
