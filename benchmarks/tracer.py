"""Layer spans and exact work counters for gkrevival, installed from outside.

``Tracer.install()`` replaces each public function of the seven gkrevival
modules with a wrapper, in every gkrevival namespace that binds it
(``gkrevival.cli.build_state``, ``gkrevival.revival.mul_frac``, ...), so
the library's own calls go through the wrappers.  No library file changes.

A wrapper opens a span when the call enters its layer from another layer
(or from outside the library), or when the function has a metric group of
its own (``GROUPS``).  A call from inside the same layer runs unwrapped:
its time stays in the caller's span.  A span's self time is its duration
minus the duration of its child spans.  Spans stay in memory until
``dump``.
"""

import functools
import inspect
import json
import marshal
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "specfun": "gkrevival.specfun",
    "spectrum": "gkrevival.spectrum",
    "gkstate": "gkrevival.gkstate",
    "revival": "gkrevival.revival",
    "dd": "gkrevival._dd",
    "measure": "gkrevival.measure",
    "cli": "gkrevival.cli",
}

_OBSERVABLES = ("normalization_sq", "weight", "weights", "mean_n", "mean_energy",
                "mandel_q", "evolve")
GROUPS = {
    ("gkstate", "build_state"): "gkstate.build_state",
    ("gkstate", "overlap"): "gkstate.overlap",
    **{("gkstate", name): "gkstate.observables" for name in _OBSERVABLES},
    ("cli", "run"): "cli.run",
    ("cli", "write_dataset"): "cli.write_dataset",
}

# Private functions wrapped only to count their calls, without a span.
_COUNTED = {("measure", "_ln_integrand_u"): "measure.integrand_evals"}


class _CountingStream:
    """Forwards write() and counts the bytes written."""

    def __init__(self, stream, counts):
        self._stream = stream
        self._counts = counts

    def write(self, text):
        self._counts["cli.bytes_written"] += len(text.encode())
        return self._stream.write(text)


def _grid_points(t):
    return len(t) if hasattr(t, "__len__") else 1


class Tracer:
    def __init__(self):
        self.op_id = 0
        self.spans = []                     # (id, parent, op, key, start, end, ok)
        self.calls = Counter()              # layer entries and group calls
        self.counts = Counter()             # exact work counters
        self.self_s = defaultdict(float)    # by group, else by layer
        self.incl_s = defaultdict(float)    # inclusive time of layer entries and groups
        self._stack = []                    # [id, layer, key, start, child_s]
        self._next_id = 1

    def install(self):
        import gkrevival.cli  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer, modname in LAYERS.items():
            for name, fn in list(vars(sys.modules[modname]).items()):
                if (inspect.isfunction(fn) and fn.__module__ == modname
                        and (not name.startswith("_") or (layer, name) in _COUNTED)):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "gkrevival" and not modname.startswith("gkrevival."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _count(self, layer, name, entry, bound, result):
        if layer == "gkstate" and name == "build_state":
            self.counts["gkstate.levels_built"] += result.n_max + 1
        elif layer == "revival" and entry and "state" in bound.arguments:
            t = bound.arguments.get("t_grid", bound.arguments.get("t"))
            self.counts["revival.level_points"] += (
                (bound.arguments["state"].n_max + 1) * _grid_points(t))

    def _wrap(self, layer, name, fn):
        group = GROUPS.get((layer, name))
        stack = self._stack
        counts = self.counts
        signature = inspect.signature(fn)

        if (layer, name) in _COUNTED:
            counter = _COUNTED[layer, name]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = not stack or stack[-1][1] != layer
            if not entry and group is None:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            if (layer, name) == ("cli", "write_dataset"):
                rows = list(bound.arguments["rows"])
                counts["cli.rows_written"] += len(rows)
                bound.arguments["rows"] = rows
                bound.arguments["stream"] = _CountingStream(bound.arguments["stream"], counts)
            key = group or layer
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, layer, key, perf_counter(), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            ok = False
            try:
                result = fn(*bound.args, **bound.kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[3]
                self.self_s[key] += dur - frame[4]
                if stack:
                    stack[-1][4] += dur
                if group is not None:
                    self.calls[group] += 1
                    self.incl_s[group] += dur
                if entry:
                    self.calls[layer] += 1
                    self.incl_s[layer] += dur
                    if not ok and layer == "specfun":
                        counts["specfun.errors"] += 1
                self.spans.append((span_id, parent, self.op_id, key, frame[3], end, ok))
            self._count(layer, name, entry, bound, result)
            return result

        return wrapper

    def aggregates(self):
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "spans": len(self.spans),
        }

    def dump(self, prefix):
        """Write the spans (marshal) and the aggregates (JSON) next to prefix."""
        with open(prefix + ".spans", "wb") as fh:
            marshal.dump(self.spans, fh)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(self.aggregates(), fh)


def merge(into, agg):
    """Add one aggregates dict into another, field by field."""
    for field in ("calls", "counts", "self_s", "incl_s"):
        bucket = into.setdefault(field, {})
        for key, value in agg.get(field, {}).items():
            bucket[key] = bucket.get(key, 0) + value
    into["spans"] = into.get("spans", 0) + agg.get("spans", 0)
    return into


# The exact counters: for one seed they must repeat in every traced run.
EXACT = (
    "specfun.calls", "specfun.errors", "spectrum.calls",
    "gkstate.build_state.calls", "gkstate.levels_built",
    "gkstate.overlap.calls", "gkstate.observables.calls",
    "revival.calls", "revival.level_points", "dd.calls",
    "measure.calls", "measure.integrand_evals",
    "cli.run.calls", "cli.rows_written", "cli.bytes_written",
)


def layer_metrics(agg):
    """Per-layer metrics, by their BENCHMARK.json names, from aggregates."""
    calls, counts = agg.get("calls", {}), agg.get("counts", {})
    self_s, incl_s = agg.get("self_s", {}), agg.get("incl_s", {})

    def layer_self(layer, exclude=()):
        return sum(v for k, v in self_s.items()
                   if (k == layer or k.startswith(layer + ".")) and k not in exclude)

    def per(numer, denom, scale):
        return numer * scale / denom if denom else 0.0

    levels = counts.get("gkstate.levels_built", 0)
    level_points = counts.get("revival.level_points", 0)
    return {
        "specfun.calls": calls.get("specfun", 0),
        "specfun.self_s": layer_self("specfun"),
        "specfun.errors": counts.get("specfun.errors", 0),
        "spectrum.calls": calls.get("spectrum", 0),
        "spectrum.self_s": layer_self("spectrum"),
        "gkstate.build_state.calls": calls.get("gkstate.build_state", 0),
        "gkstate.build_state.self_s": self_s.get("gkstate.build_state", 0.0),
        "gkstate.levels_built": levels,
        "gkstate.build_state.us_per_level":
            per(incl_s.get("gkstate.build_state", 0.0), levels, 1e6),
        "gkstate.overlap.calls": calls.get("gkstate.overlap", 0),
        "gkstate.overlap.self_s": self_s.get("gkstate.overlap", 0.0),
        "gkstate.observables.calls": calls.get("gkstate.observables", 0),
        "gkstate.observables.self_s": self_s.get("gkstate.observables", 0.0),
        "revival.calls": calls.get("revival", 0),
        "revival.self_s": layer_self("revival"),
        "revival.level_points": level_points,
        "revival.ns_per_level_point": per(incl_s.get("revival", 0.0), level_points, 1e9),
        "dd.calls": calls.get("dd", 0),
        "dd.self_s": layer_self("dd"),
        "measure.calls": calls.get("measure", 0),
        "measure.self_s": layer_self("measure"),
        "measure.integrand_evals": counts.get("measure.integrand_evals", 0),
        "cli.run.calls": calls.get("cli.run", 0),
        "cli.self_s": layer_self("cli", exclude=("cli.write_dataset",)),
        "cli.write_dataset.self_s": self_s.get("cli.write_dataset", 0.0),
        "cli.rows_written": counts.get("cli.rows_written", 0),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
    }
