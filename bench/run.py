#!/usr/bin/env python3
"""phasesync benchmark: one workload in one single-threaded process.

    python3 bench/run.py --workload finite-seeds --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; phasesync is imported from its
src/ directory. Workloads: finite-seeds, finite-large-n, kinetic-sweep,
stationary-kc (see workloads.py for what each stresses and why).

A run sets up several times (fresh import of phasesync plus the workload's
inputs), computes its oracle references, warms up, then repeats passes of
the workload for --seconds; every operation is checked and a failing one
is counted. End-to-end times are given at a reference host speed (see
Clock and README.md). With --trace 0 it prints the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes, times each
layer's public functions on this seed's inputs, writes the spans to
.bench_out/trace-<workload>-<seed>.json, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the run
facts (machine, versions, BLAS threads, sample counts).
"""
import os

# single-threaded BLAS, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from contextlib import contextmanager  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
WORKLOADS = ("finite-seeds", "finite-large-n", "kinetic-sweep", "stationary-kc")

# The host's speed swings by up to 1.8x, in bursts from a fraction of a
# second to minutes long (CPU time tracks wall time, so it is not
# scheduling). End-to-end times are therefore given at a reference speed:
# while an item runs, a timer interrupts it every TICK_S to time a fixed
# reference kernel, and each stretch of the item between two kernel times
# is scaled by REF_S over their mean. The pauses are not counted.
REF_S = 0.01
TICK_S = 0.1

perf = time.perf_counter


class HostReference:
    """Fixed work, independent of phasesync, in three parts of about equal
    time: the interpreter, numpy calls on 10 elements, and numpy
    transcendentals on 4096 elements."""

    def __init__(self):
        import numpy

        self.np = numpy
        self.small = numpy.linspace(0.0, 1.0, 10)
        self.mid = numpy.linspace(0.0, 100.0, 4096)
        self.samples: list = []  # (time, kernel seconds)

    def kernel(self) -> float:
        np = self.np
        t0 = perf()
        s = 0
        for i in range(30_000):
            s += (i * i) % 7
        y = self.small
        for _ in range(700):
            y = np.sin(y) + 0.5 * np.cos(y) * self.small
        for _ in range(30):
            np.sin(np.cos(self.mid))
        t = perf() - t0
        self.samples.append((perf(), t))
        return t

    def sample(self) -> float:
        """Median of three back-to-back kernel times."""
        return statistics.median(self.kernel() for _ in range(3))


class Clock:
    """Times items at the reference speed of HostReference."""

    def __init__(self, host: HostReference):
        self.host = host
        self.items: list = []  # (seconds, seconds at reference speed)
        self._last = None  # (time, kernel seconds) of the latest sample
        self._marks: list = []

    def _sample(self):
        self._last = (perf(), self.host.sample())

    def _tick(self, signum, frame):
        t0 = perf()
        v = self.host.kernel()
        self._marks.append((t0, perf(), v))

    @contextmanager
    def item(self):
        if self._last is None or perf() - self._last[0] > 0.05:
            self._sample()
        before = self._last[1]
        self._marks = []
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = perf()
        try:
            yield
        finally:
            end = perf()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        self._sample()
        # stretches between pauses, each with the kernel times at its ends
        edges = [(start, before)] + [(b, v) for _, b, v in self._marks]
        stops = [(a, v) for a, _, v in self._marks] + [(end, self._last[1])]
        raw = scaled = 0.0
        for (t0, v0), (t1, v1) in zip(edges, stops):
            raw += t1 - t0
            scaled += (t1 - t0) * REF_S / (0.5 * (v0 + v1))
        self.items.append((raw, scaled))


def fresh_import():
    """Import phasesync (and its CLI module) with every module executed anew."""
    for name in [m for m in sys.modules if m == "phasesync" or m.startswith("phasesync.")]:
        del sys.modules[name]
    ps = importlib.import_module("phasesync")
    importlib.import_module("phasesync.cli")
    return ps


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return int(fn())
    return None


def percentile(values, q: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _number(x):
    return x if x is not None and math.isfinite(x) else None


def end_to_end(timing: dict, tally, acc) -> dict:
    m = {
        **{k: (v, "s") for k, v in timing.items()},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "fraction"),
        "kc_abs_err": (acc["kc_abs_err"], "1"),
        "r_abs_err": (acc["r_abs_err"], "1"),
    }
    return {k: {"value": _number(v), "unit": u} for k, (v, u) in m.items()}


def timings(setups, passes, items, scaled: bool) -> dict:
    """setup_s (median set-up), wall_s (median pass) and item percentiles,
    each raw or scaled to the reference host speed."""
    setup = [w if scaled else t for t, w in setups]
    walls = [w if scaled else t for traced, t, w in passes if not traced]
    its = [w if scaled else t for t, w in items]
    return {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
            "item_s.p50": percentile(its, 0.5), "item_s.p90": percentile(its, 0.9)}


def per_layer(tracer, passes, first_traced, probes, host) -> dict:
    from spans import span_seconds

    m = dict(probes)
    m["host.ref_ms"] = 1e3 * statistics.median(v for _, v in host.samples)
    # one-step sweeps and short probe runs are left out of the run time
    ksims = [s for s in tracer.named("kinetic.kinetic_simulate") if s[4].get("steps", 0) >= 100]
    m["kinetic.simulate_s"] = statistics.median(span_seconds(s) for s in ksims)

    # exact counts from the first traced pass, whose inputs every run shares
    a, b = first_traced
    run_sims = tracer.named("integrate.simulate", a, b)
    run_ksims = tracer.named("kinetic.kinetic_simulate", a, b)
    m["integrate.steps"] = sum(s[4]["steps"] for s in run_sims)
    m["integrate.records"] = sum(s[4]["records"] for s in run_sims)
    m["integrate.stationary_frac"] = sum(s[4]["stationary"] for s in run_sims) / max(len(run_sims), 1)
    m["kinetic.steps"] = sum(s[4]["steps"] for s in run_ksims)
    m["kinetic.stationary_frac"] = sum(s[4]["stationary"] for s in run_ksims) / max(len(run_ksims), 1)
    m["stationary.roots_found"] = sum(s[4]["roots"] for s in tracer.named("stationary.self_consistency_roots", a, b))

    traced = statistics.median(w for t, _, w in passes if t)
    untraced = statistics.median(w for t, _, w in passes if not t)
    m["trace.overhead_frac"] = traced / untraced - 1.0
    out = {}
    for name, value in m.items():
        tokens = re.split(r"[._]", name)
        unit = next((t for t in ("ns", "us", "ms", "s") if t in tokens),
                    "fraction" if "frac" in tokens else "count")
        out[name] = {"value": _number(float(value)), "unit": unit}
    return out


def run(args, out: Path) -> int:
    import workloads
    from spans import Tracer

    cls = {w.name: w for w in (workloads.FiniteSeeds, workloads.FiniteLargeN,
                               workloads.KineticSweep, workloads.StationaryKc)}[args.workload]
    host = HostReference()
    setups = Clock(host)
    for _ in range(SETUP_REPEATS):
        with setups.item():
            ps = fresh_import()
            work = cls(ps, args.seed, out)
    if SRC.resolve() not in Path(ps.__file__).resolve().parents:
        print(f"phasesync was imported from {ps.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tally = workloads.Tally()
    trace = bool(args.trace)
    tracer = Tracer(False)
    t0 = perf()
    work.prepare()
    oracle_s = perf() - t0
    work.warmup(tally, tracer, Clock(host))

    # with tracing, pass 2j+1 repeats the inputs of pass 2j with spans on
    clock = Clock(host)
    bounds, first_traced = [], None
    deadline = perf() + args.seconds
    p = 0
    while p < (2 if trace else 1) or perf() < deadline:
        traced = trace and p % 2 == 1
        tracer.enabled = traced
        start, n0 = len(tracer.spans), len(clock.items)
        with tracer.span("pass", index=p):
            work.run_pass(p // 2 if trace else p, tally, tracer, clock)
        if traced and first_traced is None:
            first_traced = (start, len(tracer.spans))
        bounds.append((traced, n0, len(clock.items)))
        p += 1
    # passes hold (traced, seconds, scaled seconds), items (seconds, scaled seconds)
    res = clock.items
    passes = [(traced, sum(t for t, _ in res[a:b]), sum(w for _, w in res[a:b]))
              for traced, a, b in bounds]
    items = [r for traced, a, b in bounds if not traced for r in res[a:b]]
    tracer.enabled = trace
    acc = work.accuracy(tally, tracer)

    import numpy
    import scipy

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "phasesync": ps.__version__,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": sum(len(f.read_text().splitlines()) for f in sorted((SRC / "phasesync").glob("*.py"))),
        "setup_samples": len(setups.items),
        "passes": sum(1 for t, _, _ in passes if not t),
        "traced_passes": sum(1 for t, _, _ in passes if t),
        "items": len(items),
        "oracle_s": oracle_s,
        "ref_s": statistics.median(v for _, v in host.samples),
        "unscaled": timings(setups.items, passes, items, scaled=False),
    }
    if trace:
        probes = workloads.layer_probes(ps, args.seed, out, tally, tracer)
        metrics = per_layer(tracer, passes, first_traced, probes, host)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json", facts)
    else:
        metrics = end_to_end(timings(setups.items, passes, items, scaled=True), tally, acc)
    facts.update(attempted=tally.attempted, failed=tally.failed, accuracy=acc)
    correct = tally.failed == 0 and all(v["value"] is not None for v in metrics.values())
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phasesync" / "__init__.py").is_file():
        print(f"no phasesync sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
