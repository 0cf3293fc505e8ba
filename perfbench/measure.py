"""Timing core: speed correction, the closed loop, and metric reduction.

The shared 2-core x86-64 host this was built on drifts between speed
states up to 1.6x apart that last a few seconds, which moves raw
latencies far more than the benchmark's bounds.  Every operation is
therefore timed against a calibration loop that calls no library code:
small LU solves, small-array ufuncs and scalar Python arithmetic, the
mix the library itself runs.  The loop runs just before and just after
the operation and, from an interval timer, every SAMPLE_S seconds inside
it; each stretch of the operation's wall time is scaled by CAL_REF_S
over the loop's time around it, and the loop's own time is left out.
Of the loops tried, this mix tracked the library best: over 90 s its
10-second medians moved 8% while raw medians moved 30%.

Reported times are thus reference seconds: what the operation takes
while the calibration loop takes CAL_REF_S.  A slower library reads
slower; a slower host does not.  Raw medians are printed alongside.
"""

from __future__ import annotations

import cmath
import math
import signal
import statistics
import sys
import time
import traceback

import numpy as np
import scipy.linalg as sla

CAL_REF_S = 6.0e-4
CAL_FRESH_S = 0.02      # reuse a calibration taken this recently
SAMPLE_S = 0.1          # in-operation calibration interval
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10        # samples a tail percentile must have beyond it

_CAL_GRID = np.linspace(0.0, 1.0, 64) + 0.3j
_CAL_MATRIX = (np.random.default_rng(0).standard_normal((24, 24, 2)) @ [1.0, 1j]
               + 8.0 * np.eye(24))


def _calibration_loop() -> float:
    """Small LU solves, small-array ufuncs and scalar Python arithmetic."""
    t0 = time.perf_counter()
    acc = 0j
    for k in range(12):
        lu = sla.lu_factor(_CAL_MATRIX + k * np.eye(24), check_finite=False)
        acc += sla.lu_solve(lu, _CAL_GRID[:24], check_finite=False).sum()
        acc += (np.exp(_CAL_GRID * (k + 1)) / (1.0 + _CAL_GRID)).sum()
        for j in range(20):
            acc += cmath.exp(0.01j * j) * k
    return time.perf_counter() - t0


class Speed:
    """Host speed from the calibration loop, sampled around each operation.

    While an operation runs, an interval timer also runs the loop every
    SAMPLE_S seconds from a signal handler, so a long operation is
    corrected piecewise; the handler's own time is left out of the
    operation's time.
    """

    def __init__(self) -> None:
        self.last = 0.0
        self.when = -math.inf
        self.factors: list[float] = []

    def sample(self) -> float:
        self.last = min(_calibration_loop(), _calibration_loop())
        self.when = time.perf_counter()
        return self.last

    def before(self) -> float:
        if time.perf_counter() - self.when < CAL_FRESH_S:
            return self.last
        return self.sample()

    def time(self, fn, in_op: bool = True):
        """Run fn(); return (result or exception, raw s, reference s).

        With ``in_op`` false only the brackets around fn() are sampled,
        so time spent inside fn() is exactly its wall time (the tracer
        needs that).
        """
        c0 = self.before()
        marks = []

        def handler(signum, frame):
            t = time.perf_counter()
            c = min(_calibration_loop(), _calibration_loop())
            marks.append((t, time.perf_counter(), c))

        if in_op:
            previous = signal.signal(signal.SIGALRM, handler)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:        # the caller records it as a failure
            out = exc
        finally:
            t1 = time.perf_counter()
            if in_op:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
        c1 = self.sample()
        raw = ref = 0.0
        prev_t, prev_c = t0, c0
        for start, end, cal in marks:
            if start >= t1:
                break
            raw += start - prev_t
            ref += (start - prev_t) * CAL_REF_S / (0.5 * (prev_c + cal))
            prev_t, prev_c = end, cal
        raw += t1 - prev_t
        ref += (t1 - prev_t) * CAL_REF_S / (0.5 * (prev_c + c1))
        self.factors.append(ref / raw if raw > 0 else CAL_REF_S / c1)
        return out, raw, ref


class Stats:
    def __init__(self) -> None:
        self.latency: dict[str, list] = {}    # kind -> [(group, ref, raw)]
        self.busy = 0.0             # reference seconds
        self.raw_busy = 0.0
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.pass_busy: list[float] = []
        self.pass_units: list[int] = []
        self.digits: dict[str, float] = {}
        self.failures: list[dict] = []


def run_op(op, stats: Stats, speed: Speed, check: bool = True,
           in_op: bool = True) -> float:
    """Time one operation, then check it outside the timed span.

    Returns its duration in reference seconds.
    """
    out, raw, ref = speed.time(op.run, in_op)
    stats.busy += ref
    stats.raw_busy += raw
    if isinstance(out, Exception):
        record_failure(stats, op, out, "run")
        return ref
    if not check:
        return ref
    try:
        chk = op.check(out)
    except Exception as exc:            # a failing check route is a failure too
        record_failure(stats, op, exc, "check")
        return ref
    units = op.units or len(chk.entries)
    stats.units += units
    stats.attempted += units
    bad = chk.failed
    if bad:
        stats.failed += len(bad) if op.units != 1 else 1
        stats.failures.append({"kind": op.kind, "stage": "check",
                               "inputs": repr(op.inputs), "checks": bad})
        print(f"FAILED {op.kind} (check) {bad} inputs={op.inputs!r}",
              file=sys.stderr)
    else:
        per = max(op.units, 1)
        stats.latency.setdefault(op.kind, []).append(
            (op.group, ref / per, raw / per))
    digits = chk.margin_digits() if op.kind == "suite" else chk.digits()
    stats.digits[op.kind] = min(stats.digits.get(op.kind, math.inf), digits)
    return ref


def record_failure(stats: Stats, op, exc: Exception, stage: str) -> None:
    units = op.units or 1
    stats.attempted += units
    stats.failed += units
    stats.failures.append({
        "kind": op.kind, "stage": stage, "inputs": repr(op.inputs),
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": "".join(traceback.format_exception(exc, limit=6))})
    print(f"FAILED {op.kind} ({stage}) {type(exc).__name__}: {exc} "
          f"inputs={op.inputs!r}", file=sys.stderr)


def timed_phase(workload, seconds: float, speed: Speed) -> Stats:
    """Closed loop over the workload's passes until `seconds` have passed.

    Only complete passes give pass times and throughput; at least one
    pass completes.
    """
    stats = Stats()
    start = time.perf_counter()
    for ops in workload.passes():
        busy0, units0 = stats.busy, stats.units
        for op in ops:
            if time.perf_counter() - start >= seconds and stats.pass_busy:
                return stats
            run_op(op, stats, speed)
        stats.pass_busy.append(stats.busy - busy0)
        stats.pass_units.append(stats.units - units0)
        if time.perf_counter() - start >= seconds:
            return stats


def tail(samples, percentile: float) -> tuple[float, float, int]:
    """The value at `percentile`, with the samples beyond it.

    When fewer than TAIL_BEYOND samples lie beyond it, the highest ladder
    percentile that has that many is used instead (the maximum, reported
    as percentile 100, if none has).  Returns (value, percentile, beyond).
    """
    xs = np.asarray(samples)
    for p in (percentile,) + tuple(q for q in TAIL_LADDER[::-1] if q < percentile):
        v = float(np.percentile(xs, p))
        beyond = int(np.sum(xs > v))
        if beyond >= TAIL_BEYOND:
            return v, p, beyond
    return float(xs.max()), 100.0, 0


def balanced(samples: list) -> list:
    """The same number of samples, the earliest, from every group.

    Grid operations are grouped by context; a run that stops part-way
    through the rotation would otherwise weight some moduli more.
    """
    groups: dict = {}
    for g, *rest in samples:
        groups.setdefault(g, []).append(rest)
    n = min(len(v) for v in groups.values())
    return [s for v in groups.values() for s in v[:n]]


def end_to_end(workload, stats: Stats, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics of a timed phase, plus what qualifies them."""
    metrics = {"setup_s": setup_s,
               "wall_s": statistics.median(stats.pass_busy),
               "ops_per_s": sum(stats.pass_units) / sum(stats.pass_busy)}
    info = {"passes": len(stats.pass_busy), "busy_ref_s": stats.busy,
            "busy_raw_s": stats.raw_busy}
    for kind in ("eps", "rho", "sphere"):
        if not stats.latency.get(kind):
            raise RuntimeError(f"no successful {kind} operation to time")
        samples = balanced(stats.latency[kind])
        xs = [ref for ref, _ in samples]
        metrics[f"{kind}_p50_ms"] = 1e3 * statistics.median(xs)
        info[f"{kind}_raw_p50_ms"] = 1e3 * statistics.median(r for _, r in samples)
        info[f"{kind}_samples"] = len(xs)
        if kind != "sphere":
            value, pct, beyond = tail(xs, workload.tail_percentile[kind])
            metrics[f"{kind}_tail_ms"] = 1e3 * value
            info[f"{kind}_tail"] = {"percentile": pct, "beyond": beyond,
                                    "samples": len(xs)}
    kinds = ["suite"] if workload.name == "verify" else ["eps", "rho", "sphere"]
    metrics["accuracy_digits"] = min(stats.digits.get(k, 0.0) for k in kinds)
    info["digits_by_kind"] = stats.digits
    return metrics, info


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------

def traced_run(lib, workload, seconds: float, speed: Speed):
    """Alternate untraced and traced runs of the same fixed passes.

    Per-layer figures come from the traced repetition with the median
    traced time; every span is scaled by its operation's speed factor, so
    self times plus the time outside all spans add up to ``trace.wall_s``.
    """
    from spans import SPAN_NAMES, VERIFY_SUITES, Tracer
    stats = Stats()
    work = [op for p in range(workload.trace_passes)
            for op in workload.make_pass(p)]
    tracer = Tracer(lib)
    reps = []
    start = time.perf_counter()
    while True:
        untraced = sum(run_op(op, stats, speed, in_op=False) for op in work)
        first, flops0, errors0 = len(tracer.start), tracer.lu_flops, dict(tracer.errors)
        factors = []
        traced = 0.0
        tracer.install()
        try:
            for i, op in enumerate(work):
                tracer.op = i
                traced += run_op(op, Stats(), speed, check=False, in_op=False)
                factors.append(speed.factors[-1])
        finally:
            tracer.uninstall()
        summ = tracer.summary(first, factors, traced)
        summ["lu_flops"] = tracer.lu_flops - flops0
        summ["errors"] = {k: v - errors0.get(k, 0)
                          for k, v in tracer.errors.items()}
        reps.append((traced, untraced, summ))
        if time.perf_counter() - start >= seconds:
            break
    traced, _, summ = sorted(reps, key=lambda r: r[0])[len(reps) // 2]
    untraced = statistics.median(r[1] for r in reps)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = summ["calls"].get(name, 0)
        metrics[f"{name}.self_ms"] = 1e3 * summ["self_s"].get(name, 0.0)
        metrics[f"{name}.errors"] = summ["errors"].get(name, 0)
    metrics["numerics.lu_flops_computed"] = summ["lu_flops"]
    for suite in VERIFY_SUITES:
        metrics[f"verify.{suite}.s"] = summ["total_s"].get(f"verify.{suite}", 0.0)
    metrics.update({
        "trace.wall_s": traced, "trace.untraced_wall_s": untraced,
        "trace.overhead_frac": traced / untraced - 1.0,
        "trace.outside_s": summ["outside_s"], "trace.spans": summ["spans"],
        "trace.missing": len(tracer.missing),
    })
    info = {"reps": len(reps), "missing": tracer.missing,
            "self_plus_outside_s": sum(summ["self_s"].values()) + summ["outside_s"]}
    return stats, metrics, info, tracer
