"""Per-layer counts and self times, read from outside the program.

`LayerTracer.install()` wraps, at run time, every public function of the
nine hfkit layer modules and every public method of their classes. A
wrapped function is replaced in every hfkit namespace that binds it, so
calls made from other modules and recursive calls are counted too.
`uninstall()` puts the original objects back.

A call is one span. Its self time is its duration minus the time covered by
the spans it caused; a layer's self time is the sum over its spans. Times
are kept raw until the pass ends, when `flush()` scales them with the
pass's factor to the reference speed. Spans are only recorded while `on`
is set, that is inside the benchmark's timed operations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "universe",
    "ordinals",
    "mewos",
    "correspondence",
    "oracle",
    "parser",
    "session",
    "suites",
    "cli",
)

# Call-count metrics of single functions: metric name -> traced function.
_FUNCTION_CALLS = {
    "universe.mk_set.calls": "universe.SetUniverse.mk_set",
    "correspondence.set_of_ordinal.calls": "correspondence.set_of_ordinal",
    "ordinals.validate_ord.calls": "ordinals.validate_ord",
    "mewos.closure.calls": "mewos.closure",
    "mewos.down_plus.calls": "mewos.down_plus",
    "mewos.codes.calls": "mewos.codes",
    "mewos.validate_mewo.calls": "mewos.validate_mewo",
}


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_ms", "ms", "lower"))
    out += [
        ("universe.mk_set.calls", "count", "lower"),
        ("universe.mk_set.redundant", "count", "lower"),
        ("universe.sets_interned", "count", "lower"),
        ("universe.mk_set.us", "us", "lower"),
        ("universe.from_graph.vertices_per_s", "1/s", "higher"),
        ("correspondence.set_of_ordinal.calls", "count", "lower"),
        ("ordinals.validate_ord.calls", "count", "lower"),
        ("ordinals.validate_ord.self_ms", "ms", "lower"),
        ("mewos.closure.calls", "count", "lower"),
        ("mewos.down_plus.calls", "count", "lower"),
        ("mewos.codes.calls", "count", "lower"),
        ("mewos.validate_mewo.calls", "count", "lower"),
        ("oracle.maps_per_s", "1/s", "higher"),
        ("oracle.enumerate_mewos.ms", "ms", "lower"),
        ("parser.bytes_per_s", "B/s", "higher"),
        ("trace.overhead_ms", "ms", "lower"),
    ]
    return out


class LayerTracer:
    """Counts and times calls into the hfkit layers while installed and on."""

    def __init__(self, sampler):
        self.sampler = sampler  # its ticks are left out of every span
        self.on = False
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.reset_pass()

    # -- accumulators ----------------------------------------------------------

    def reset_pass(self) -> None:
        """Start a new pass: counts and scaled times go back to zero."""
        self.calls: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)  # scaled seconds
        self.mk_set_us: list[float] = []  # scaled microseconds per call
        self.interned = 0
        self.vertices = 0
        self.maps = 0
        self.parsed_bytes = 0
        self._raw: dict[str, float] = defaultdict(float)
        self._raw_mk_set: list[float] = []

    def flush(self, factor: float) -> None:
        """Scale the raw times recorded so far and add them to the pass."""
        for key, raw in self._raw.items():
            self.times[key] += raw * factor
        self._raw.clear()
        self.mk_set_us.extend(d * factor * 1e6 for d in self._raw_mk_set)
        self._raw_mk_set.clear()

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"hfkit.{layer}")
        hooks = self._after_hooks()
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "hfkit" or name.startswith("hfkit."))]
        for layer in LAYERS:
            mod = sys.modules[f"hfkit.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(layer, name, obj, hooks)
                    for ns in modules:
                        if vars(ns).get(name) is obj:
                            self._patch(ns, name, wrapped)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, attr, self._wrap(layer, f"{name}.{attr}", fn, hooks))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _wrap(self, layer: str, name: str, fn, hooks: dict):
        key = f"{layer}.{name}"
        total_key = key + ".total"
        is_mk_set = key == "universe.SetUniverse.mk_set"
        after = hooks.get(key)
        stack = self._stack
        tracer = self
        sampler = self.sampler

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            size0 = len(args[0]) if is_mk_set else 0
            stack.append(0.0)
            stolen = sampler.stolen
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0 - (sampler.stolen - stolen)
                own = dur - stack.pop()
                if stack:
                    stack[-1] += dur
                raw = tracer._raw
                raw[layer] += own
                raw[key] += own
                raw[total_key] += dur
                tracer.calls[layer] += 1
                tracer.calls[key] += 1
                if is_mk_set:
                    tracer.interned += len(args[0]) - size0
                    tracer._raw_mk_set.append(dur)
                elif after:
                    after(args)

        return wrapper

    def _after_hooks(self):
        """Per-function counters of the work a call was given, taken from its arguments."""

        def vertices(args):
            self.vertices += args[1].n

        def maps(args):
            self.maps += args[1].size ** args[0].size

        def parsed(args):
            self.parsed_bytes += len(args[0].encode())

        return {
            "universe.SetUniverse.from_graph": vertices,
            "oracle.enum_simulations": maps,
            "parser.parse": parsed,
            "parser.parse_program": parsed,
        }

    # -- report ------------------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer figures of the pass just traced (times already scaled)."""
        t, c = self.times, self.calls
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = c[layer]
            out[f"{layer}.self_ms"] = t[layer] * 1e3
        for metric, key in _FUNCTION_CALLS.items():
            out[metric] = c[key]
        out["universe.mk_set.redundant"] = out["universe.mk_set.calls"] - self.interned
        out["universe.sets_interned"] = self.interned
        out["universe.mk_set.us"] = statistics.median(self.mk_set_us) if self.mk_set_us else 0.0
        out["universe.from_graph.vertices_per_s"] = _rate(
            self.vertices, t["universe.SetUniverse.from_graph.total"])
        out["ordinals.validate_ord.self_ms"] = t["ordinals.validate_ord"] * 1e3
        out["oracle.maps_per_s"] = _rate(self.maps, t["oracle.enum_simulations"])
        out["parser.bytes_per_s"] = _rate(self.parsed_bytes, t["parser"])
        return out


def _rate(work: int, seconds: float) -> float:
    return work / seconds if seconds else 0.0
