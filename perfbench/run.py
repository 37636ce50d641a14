"""hfkit benchmark: seeded workloads, checked outputs, drift-compensated times.

Run from the root of an hfkit checkout:

    python3 perfbench/run.py --workload collapse --seed 1 --seconds 10 --trace 0

One process runs one workload on one thread in a closed loop: each
operation starts when the previous one has returned. A run is a warm-up
pass followed by whole passes over the workload's fixed operation list
until `--seconds` have gone by, and every output is checked against the
benchmark's own model. Times are scaled to the reference speed of
`refclock.py`; the raw wall times are printed beside them.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. A traced run
alternates untraced and traced passes, so it can report its own overhead.
Raw figures of every run go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LayerTracer, per_layer_names  # noqa: E402
from model import FAILED, CheckFailed  # noqa: E402
from refclock import SpeedSampler  # noqa: E402

WORKLOADS = ("collapse", "translate", "decide", "script")
SETUP_PROBES = 7
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"))


class UsageError(Exception):
    """The benchmark cannot run here; it prints no result."""


@dataclass
class PassRecord:
    traced: bool
    raw_s: float = 0.0  # wall time of the operations
    scaled_s: float = 0.0  # the same at the reference speed
    latencies: list[tuple[str, float, float]] = field(default_factory=list)  # kind, raw, scaled
    layers: dict[str, float] = field(default_factory=dict)


class Runner:
    """Times operations in a closed loop and scales them to the reference speed."""

    def __init__(self, sampler: SpeedSampler, tracer: LayerTracer | None = None):
        self.sampler = sampler
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.current: PassRecord | None = None
        self._ops: list[tuple[str, float, float, float, bool]] = []  # kind, t0, t1, raw, ok

    def op(self, kind: str, fn, *args):
        """Run one operation. An exception it raises counts as a failed operation."""
        tracing = self.current.traced
        if tracing:
            self.tracer.on = True
        stolen = self.sampler.stolen
        t0 = perf_counter()
        ok = True
        try:
            result = fn(*args)
        except CheckFailed:
            raise
        except Exception as exc:  # a fault of the program under test, counted
            ok = False
            self.failed += 1
            name = f"{kind}: {type(exc).__name__}"
            self.errors[name] = self.errors.get(name, 0) + 1
            result = FAILED
        finally:
            t1 = perf_counter()
            if tracing:
                self.tracer.on = False
        self._ops.append((kind, t0, t1, t1 - t0 - (self.sampler.stolen - stolen), ok))
        self.attempted += 1
        return result

    def _close(self) -> None:
        """Scale the operations recorded since the last call into the current pass."""
        rec = self.current
        raw_sum = scaled_sum = 0.0
        for kind, t0, t1, raw, ok in self._ops:
            scaled = raw * self.sampler.factor(t0, t1)
            raw_sum += raw
            scaled_sum += scaled
            if ok:
                rec.latencies.append((kind, raw, scaled))
        self._ops.clear()
        rec.raw_s += raw_sum
        rec.scaled_s += scaled_sum
        if rec.traced and raw_sum:
            self.tracer.flush(scaled_sum / raw_sum)

    def traced_setup(self, fn, *args):
        """Run the workload's set-up calls as one traced operation."""
        self.current = PassRecord(traced=True)
        self.tracer.install()
        try:
            result = self.op("setup", fn, *args)
        finally:
            self.tracer.uninstall()
        self._close()
        return result

    def run_pass(self, wl, hf, ctx, inputs, traced: bool = False) -> PassRecord:
        gc.collect()  # every pass starts from the same collector state
        self.current = PassRecord(traced=traced)
        if traced:
            self.tracer.reset_pass()
            self.tracer.install()
        try:
            wl.run_pass(hf, ctx, inputs, self.op)
        finally:
            if traced:
                self.tracer.uninstall()
        self._close()
        if traced:
            self.current.layers = self.tracer.pass_metrics()
        return self.current


def find_program(root: Path) -> Path:
    src = root / "src"
    if not (src / "hfkit" / "__init__.py").is_file():
        raise UsageError(f"no hfkit sources under {src}; run from the root of an hfkit checkout")
    return src


def import_hfkit(src: Path):
    sys.path.insert(0, str(src))
    import hfkit

    if Path(hfkit.__file__).resolve().parent != (src / "hfkit").resolve():
        raise UsageError(f"imported hfkit from {hfkit.__file__}, not from {src}")
    return hfkit


def measure_setup(workload: str, src: Path) -> list[dict]:
    """Set-up time in fresh interpreters: import hfkit plus the workload's set-up calls."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(src)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise UsageError(f"set-up probe failed:\n{proc.stderr.strip()}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
                 root: Path | None = None, setup_probes: bool = True) -> dict:
    """Run one workload and return its raw record; raises CheckFailed on a wrong output."""
    root = Path.cwd() if root is None else root
    src = find_program(root)
    probes = measure_setup(name, src) if setup_probes else []
    hf = import_hfkit(src)
    wl = importlib.import_module(name)
    workdir = HERE / "out" / "work" / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    with SpeedSampler() as sampler:
        tracer = LayerTracer(sampler) if trace else None
        runner = Runner(sampler, tracer)
        enumerate_ms = 0.0
        if trace:
            ctx = runner.traced_setup(wl.setup, hf)
            enumerate_ms = tracer.times["oracle.enumerate_mewos.total"] * 1e3
        else:
            ctx = wl.setup(hf)
        inputs = wl.build(hf, ctx, seed, small, workdir)
        # The benchmark's own inputs and models live for the whole run; keep
        # the collector from walking them during the program's operations.
        gc.collect()
        gc.freeze()

        runner.run_pass(wl, hf, ctx, inputs)  # warm-up: caches fill, lazy set-up finishes
        runner.attempted = runner.failed = 0
        runner.errors.clear()
        passes: list[PassRecord] = []
        start = perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(runner.run_pass(wl, hf, ctx, inputs, traced))
            if len(passes) == 1:
                # after a fixed amount of work: the warm-up pass and one timed pass
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
                break
    gc.unfreeze()

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "small": small,
        "setup_probes": probes,
        "passes": passes,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "ref_samples": len(sampler.durations),
        "ref_sample_ms": _quartiles(sampler.durations),
        "enumerate_mewos_ms": enumerate_ms,
        "peak_rss_mb": peak_rss_mb,
    }


def _quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile, in ms."""
    return [v * 1e3 for v in statistics.quantiles(values, n=4)] if len(values) > 1 else []


def end_to_end(rec: dict) -> tuple[dict, dict]:
    """(metrics at the reference speed, the same figures from raw wall times)."""
    untraced = [p for p in rec["passes"] if not p.traced]
    lat = [x for p in untraced for x in p.latencies]
    ops = len(lat)
    setup = [p["scaled_s"] for p in rec["setup_probes"]] or [0.0]
    setup_raw = [p["raw_s"] for p in rec["setup_probes"]] or [0.0]
    per_pass = ops / len(untraced)
    scaled = {
        "setup_s": statistics.median(setup),
        "ops_per_s": per_pass / statistics.median(p.scaled_s for p in untraced),
        "op_p50_ms": statistics.median(s for _, _, s in lat) * 1e3,
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    raw = {
        "setup_s": statistics.median(setup_raw),
        "ops_per_s": per_pass / statistics.median(p.raw_s for p in untraced),
        "op_p50_ms": statistics.median(r for _, r, _ in lat) * 1e3,
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    return scaled, raw


def per_layer(rec: dict) -> dict:
    traced = [p for p in rec["passes"] if p.traced]
    untraced = [p for p in rec["passes"] if not p.traced]
    out = {}
    for name, unit, _ in per_layer_names():
        if name == "trace.overhead_ms":
            out[name] = (statistics.median(p.scaled_s for p in traced)
                         - statistics.median(p.scaled_s for p in untraced)) * 1e3
        elif name == "oracle.enumerate_mewos.ms":
            out[name] = rec["enumerate_mewos_ms"]
        elif unit == "count":  # the same in every traced pass; median_low keeps it whole
            out[name] = statistics.median_low(p.layers[name] for p in traced)
        else:
            out[name] = statistics.median(p.layers[name] for p in traced)
    return out


def kinds(rec: dict) -> dict:
    """Count per pass and median latency, raw and scaled in ms, of each kind of operation."""
    untraced = [p for p in rec["passes"] if not p.traced]
    by: dict[str, list[tuple[float, float]]] = {}
    for p in untraced:
        for kind, raw, scaled in p.latencies:
            by.setdefault(kind, []).append((raw, scaled))
    return {k: {"count_per_pass": len(v) // len(untraced),
                "raw_ms": statistics.median(r for r, _ in v) * 1e3,
                "scaled_ms": statistics.median(s for _, s in v) * 1e3}
            for k, v in sorted(by.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced inputs, for a quick check")
    args = ap.parse_args(argv)

    try:
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1

    scaled, raw = end_to_end(rec)
    units = dict(END_TO_END)
    if args.trace:
        layer_units = {n: u for n, u, _ in per_layer_names()}
        values = per_layer(rec)
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in values.items()}
    else:
        values = {}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in scaled.items()}

    out_dir = HERE / "out" / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        **{k: v for k, v in rec.items() if k != "passes"},
        "end_to_end": scaled,
        "end_to_end_raw": raw,
        "per_layer": values,
        "kinds": kinds(rec),
        "passes": [{"traced": p.traced, "raw_s": p.raw_s, "scaled_s": p.scaled_s,
                    "ops": len(p.latencies), "layers": p.layers} for p in rec["passes"]],
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    timed = [p for p in rec["passes"] if not p.traced]
    print(f"{args.workload} seed {args.seed}: {len(rec['passes'])} passes "
          f"({len(timed)} untraced), {rec['attempted']} ops, {rec['failed']} failed {rec['errors']}")
    for k, u in END_TO_END:
        print(f"  {k:12s} {scaled[k]:12.4f} {u:4s} (raw {raw[k]:.4f})")
    if args.trace:
        print(f"  tracing overhead {values['trace.overhead_ms']:.1f} ms per pass")
    print(json.dumps({"correct": True, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
