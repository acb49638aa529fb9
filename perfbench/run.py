"""Benchmark of the nangle package, timed from outside the package.

    python3 perfbench/run.py --workload axioms-z4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run times the workload untraced
and reports the end-to-end metrics; with ``--trace 1`` it runs a fixed list
of ops once untraced and once with per-layer wrappers installed, and reports
the per-layer metrics.  Every op's result is checked.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  One process, one thread, closed loop.

End-to-end times are scaled to a reference machine speed.  On a shared host
the same code runs up to 1.6x slower from one minute to the next, so each op
and each set-up is followed by a short fixed piece of pure-Python work, the
speed probe, and its time is divided by what the probe takes at the
reference speed.  The report line gives the unscaled times too.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
# A run has at least this many timed ops, so the slowest tenth holds at least ten.
MIN_OPS = 100

E2E_UNITS = {
    "setup_s": "s",
    "op_ms_iqm": "ms",
    "op_ms_top10": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def load_nangle():
    """Import nangle from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "nangle" / "__init__.py").is_file():
        raise SystemExit(f"error: no nangle package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import nangle

    if Path(nangle.__file__).resolve().parent != SRC / "nangle":
        raise SystemExit(f"error: imported nangle from {nangle.__file__}, not from {SRC}")
    return nangle


# Inputs of the speed probe.
_PROBE_ROWS = [[(i * 7 + j) % 9 for j in range(6)] for i in range(6)]
_PROBE_P = 10007
_PROBE_MAT = [[(i * i * 31 + j * 17 + i * j + 5) % _PROBE_P for j in range(24)] for i in range(16)]
# The probe's time at the reference speed: about its time on the 2-core host
# the benchmark was written on, in that host's faster state.
PROBE_REF_S = 0.0015


def speed_probe_s() -> float:
    """Time one fixed piece of pure-Python work, independent of nangle.

    It mixes the kinds of work the library does (an integer loop, building
    small lists, tuples and dicts, and a row reduction mod p), because a
    slower state of the host slows object-heavy code more than a bare
    integer loop.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(6_000):
        x = (x * 1_103_515_245 + i) & 0xFFFFFFFF
    d = {}
    for k in range(40):
        m = [[(a * b + k) % 9 for a, b in zip(r, c)] for r in _PROBE_ROWS for c in _PROBE_ROWS[:2]]
        d[(k % 10, len(m))] = m
        x += sum(map(len, d.values()))
    m = [row[:] for row in _PROBE_MAT]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], _PROBE_P - 2, _PROBE_P)
        m[r] = [v * inv % _PROBE_P for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % _PROBE_P for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return time.perf_counter() - t0


def speed_context_ms() -> float:
    """Median probe time over a few tenths of a second; context only."""
    return statistics.median(speed_probe_s() for _ in range(100)) * 1000


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_op(wl, op):
    """Time one op; an exception is a failed op, never the end of the run."""
    t0 = time.perf_counter()
    try:
        result = wl.run(op)
    except Exception as exc:  # noqa: BLE001 - counted as a failure below
        result = exc
    return time.perf_counter() - t0, result


def is_ok(wl, op, result) -> bool:
    if isinstance(result, Exception):
        return False
    try:
        return bool(wl.check(op, result))
    except Exception:  # noqa: BLE001 - a check that cannot run is a failure
        return False


def band_mean(values, lo: float, hi: float) -> float:
    """Mean of the values ranked from quantile ``lo`` up to quantile ``hi``.

    Latency is reported as band means rather than as percentiles because the
    machine's speed switches between a fast and a slow state for seconds at a
    time.  A percentile then lands in one state or the other depending on
    which held more of the run, and jumps between runs; a band mean moves in
    proportion to the share of the run spent in each state.
    """
    ranked = sorted(values)
    return statistics.fmean(ranked[int(lo * len(ranked)) : int(hi * len(ranked))])


def setup_once(wl, warm):
    """``make_ring`` plus the warm-up op: seconds taken, and the op's result."""
    t0 = time.perf_counter()
    wl.setup()
    _, result = run_op(wl, warm)
    return time.perf_counter() - t0, result


def scaled_setup(wl, warm):
    """A set-up timed between two speed probes: its seconds scaled to the
    reference speed, its raw seconds, and the warm-up op's result."""
    before = speed_probe_s()
    dt, result = setup_once(wl, warm)
    speed = PROBE_REF_S / ((before + speed_probe_s()) / 2)
    return dt * speed, dt, result


def timed_run(wl, seed: int, seconds: float) -> dict:
    ops = wl.inputs(seed)
    warm = wl.warmup()
    setups, raw_setups, setup_ok = [], [], 0

    def setup(reps):
        nonlocal setup_ok
        for _ in range(reps):
            dt, raw, result = scaled_setup(wl, warm)
            setups.append(dt)
            raw_setups.append(raw)
            setup_ok += is_ok(wl, warm, result)

    # Half the set-ups come before the timed phase and half after it, so that
    # their median does not rest on one moment of a machine whose speed drifts.
    setup((wl.setup_reps + 1) // 2)
    # Check and probe time are left out of the timed phase.  Each op is scaled
    # by the mean of the probes just before and just after it.  Each result is
    # checked as soon as its op returns, so no result is kept (kept results
    # would make peak RSS grow with speed).
    latencies, raw, ok, paused = [], [], 0, 0.0
    probe = speed_probe_s()
    start = time.perf_counter()
    while len(latencies) < MIN_OPS or time.perf_counter() - start - paused < seconds:
        op = ops[len(latencies) % len(ops)]
        dt, result = run_op(wl, op)
        t0 = time.perf_counter()
        before, probe = probe, speed_probe_s()
        latencies.append(dt * 1000 * PROBE_REF_S / ((before + probe) / 2))
        raw.append(dt * 1000)
        ok += is_ok(wl, op, result)
        paused += time.perf_counter() - t0
    wall = time.perf_counter() - start - paused
    setup(wl.setup_reps // 2)

    done = len(latencies)
    attempted = done + len(setups)
    failed = attempted - ok - setup_ok
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms_iqm": band_mean(latencies, 0.25, 0.75),
        "op_ms_top10": band_mean(latencies, 0.9, 1.0),
        "ops_per_s": done / (sum(latencies) / 1000),
        "ok_ratio": ok / done,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; unscaled {statistics.median(raw_setups):.4f} s",
        "op_ms_iqm": f"mean of the middle half of n={done} ops; median {statistics.median(latencies):.3f} ms; unscaled {band_mean(raw, 0.25, 0.75):.3f} ms",
        "op_ms_top10": f"mean of the slowest {done - int(0.9 * done)} of n={done} ops; p90 {statistics.quantiles(latencies, n=10)[8]:.3f} ms; unscaled {band_mean(raw, 0.9, 1.0):.3f} ms",
        "ops_per_s": f"{done} ops in {sum(latencies) / 1000:.3f} s scaled; unscaled {done / wall:.3f} 1/s over {wall:.3f} s",
        "ok_ratio": f"failed_ratio {(done - ok) / done:.4f}",
        "peak_rss_mb": "max RSS of the process",
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "units": E2E_UNITS, "notes": notes}


def ring_op_ns(ring, seed: int) -> float:
    """Mean cost of one ring add or mul on the uninstrumented ring."""
    rng = random.Random(seed)
    xs = [rng.randrange(ring.order) for _ in range(4096)]
    ys = [rng.randrange(ring.order) for _ in range(4096)]
    add, mul = ring.add, ring.mul
    reps = 5
    t0 = time.perf_counter_ns()
    for _ in range(reps):
        for x, y in zip(xs, ys):
            add(x, y)
            mul(x, y)
    return (time.perf_counter_ns() - t0) / (reps * 2 * len(xs))


def one_pass(wl, warm, ops):
    """Set-up once with its warm-up op, then ``ops``; returns wall time,
    summed op time and the (op, result) pairs."""
    start = time.perf_counter()
    setup_s, result = setup_once(wl, warm)
    durations, done = [setup_s], [(warm, result)]
    for op in ops:
        dt, result = run_op(wl, op)
        durations.append(dt)
        done.append((op, result))
    return time.perf_counter() - start, sum(durations), done


def trace_run(wl, seed: int, trace_ops: int | None = None) -> dict:
    import tracing

    pool = wl.inputs(seed)
    count = wl.trace_ops if trace_ops is None else trace_ops
    ops = [pool[i % len(pool)] for i in range(count)]
    warm = wl.warmup()

    untraced_wall, _, done_plain = one_pass(wl, warm, ops)
    tracer = tracing.Tracer()
    tracer.install(wl.input_ring())
    try:
        traced_wall, op_wall, done_traced = one_pass(wl, warm, ops)
    finally:
        tracer.remove()
    op_ns = ring_op_ns(wl.input_ring() or wl.setup(), seed)

    done = done_plain + done_traced
    failed = sum(not is_ok(wl, op, r) for op, r in done)
    metrics = tracer.metrics(op_wall, untraced_wall, traced_wall, op_ns, ops=len(done_traced))
    units = {name: unit for name, unit, _ in tracing.metric_specs()}
    notes = {
        "rings.est_s": "computed: rings.ops x rings.op_ns",
        "trace.overhead_ratio": f"traced {traced_wall:.3f} s / untraced {untraced_wall:.3f} s",
    }
    return {
        "attempted": len(done),
        "failed": failed,
        "metrics": metrics,
        "units": units,
        "notes": notes,
        "counts": {name: metrics[name] for name in tracing.count_names()},
        "self_sum_s": tracer.self_sum_s(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_nangle()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    probe_start = speed_context_ms()
    if args.trace:
        out = trace_run(wl, args.seed)
    else:
        out = timed_run(wl, args.seed, args.seconds)
    probe_end = speed_context_ms()

    mode = "traced" if args.trace else "untraced"
    print(f"workload {wl.name}, seed {args.seed}, {mode}: {out['attempted']} ops attempted, {out['failed']} failed")
    for name, value in out["metrics"].items():
        note = out["notes"].get(name, "")
        print(f"  {name:40s} {value:>16.6g} {out['units'][name]:6s} {note}")
    print(
        f"context: speed probe {probe_start:.3f} ms at start, {probe_end:.3f} ms at end"
        f" (end/start {probe_end / probe_start:.3f}; {PROBE_REF_S * 1000:.3f} ms at the reference speed)"
    )
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": out["units"][name]} for name, value in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
