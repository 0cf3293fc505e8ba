"""Layered benchmark of the szegosew sewing pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|grid|verify --seed N \
        --seconds S --trace 0|1

Workloads (see workloads.py):

* ``sweep``  - scan moduli: fresh contexts, det() and a few kernel values
  per operation, as ``szegosew scan`` does;
* ``grid``   - kernel values on 16x16 point grids over prebuilt contexts;
* ``verify`` - the verify suites plus operations at their pinned moduli.

The run is single-process and single-threaded (BLAS pinned to one
thread) in a closed loop: one caller, each call finishing before the next
starts.  It stops starting operations once ``--seconds`` have passed.
Times are in reference seconds, corrected for the host's speed drift
(see measure.py); raw medians are printed as ``info`` lines.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
set of passes untraced and then traced, alternately until the time is
used, and prints per-layer calls and self times with the tracing
overhead.  Either way the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name and unit with the run's
environment.  A full record, with every failure's input and error, goes
to ``perfbench/out/``.

``--quick`` shrinks every workload to a tiny size (used by selftest.py).
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3
# The CLI example of the README, run once cold in a subprocess.
CLI_EVAL = ["eval", "--scheme", "eps", "--tau1", "0.3,1.0", "--tau2", "0.1,1.2",
            "--eps", "0.01,0.02", "--alpha1", "0.17", "--beta1", "0.38",
            "--alpha2", "0.07", "--beta2=-0.29", "--points", "1:0.4,1.1,2:0.2,2.0"]

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
    "eps_p50_ms": "ms", "eps_tail_ms": "ms", "rho_p50_ms": "ms",
    "rho_tail_ms": "ms", "sphere_p50_ms": "ms", "accuracy_digits": "digits",
}
PER_LAYER_UNITS = {"calls": "count", "self_ms": "ms", "errors": "count",
                   "lu_flops_computed": "flop", "s": "s", "eval_cold_ms": "ms",
                   "wall_s": "s", "untraced_wall_s": "s", "overhead_frac": "1",
                   "outside_s": "s", "spans": "count", "missing": "count"}


class BenchError(Exception):
    """The benchmark cannot run or measure here."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def load_library():
    """Import szegosew from this checkout's src/, never from elsewhere."""
    if not (SRC / "szegosew" / "__init__.py").is_file():
        raise BenchError(f"no szegosew sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import szegosew
    if Path(szegosew.__file__).resolve().parent != (SRC / "szegosew").resolve():
        raise BenchError(f"szegosew imported from {szegosew.__file__}, "
                         f"not from {SRC}")
    return szegosew


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------

def blas_threads() -> dict:
    """Thread counts reported by each OpenBLAS bundled with numpy/scipy."""
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "lib*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = int(fn())
                    break
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse",
                          "HEAD"], capture_output=True, text=True, timeout=30)
    return res.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    nproc = len(os.sched_getaffinity(0))
    if any(t > nproc for t in threads.values()):
        raise BenchError(f"BLAS threads {threads} exceed nproc {nproc}")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "nproc": nproc, "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "git_commit": git_commit(), "src_sha256": source_digest(),
    }


# ----------------------------------------------------------------------
# set-up and the cold CLI call
# ----------------------------------------------------------------------

def import_seconds() -> float:
    """`import szegosew` in a fresh interpreter, as a CLI call pays it."""
    code = ("import time; t = time.perf_counter(); import szegosew; "
            "print(time.perf_counter() - t)")
    res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise BenchError(f"importing szegosew failed: {res.stderr.strip()}")
    return float(res.stdout.strip().splitlines()[-1])


def set_up(workload, speed) -> tuple[float, dict]:
    """Median import time plus median in-process set-up, SETUP_REPS each.

    Both are speed-corrected like the operations.
    """
    imports, builds = [], []
    for _ in range(SETUP_REPS):
        # bracket only: the import runs in a child process
        out, _, _ = speed.time(import_seconds, in_op=False)
        if isinstance(out, Exception):
            raise BenchError(f"import timing failed: {out}")
        imports.append(out * speed.factors[-1])
    for _ in range(SETUP_REPS):
        out, _, ref = speed.time(workload.setup)
        if isinstance(out, Exception):
            raise BenchError(f"set-up failed: {type(out).__name__}: {out}")
        builds.append(ref)
    info = {"import_s": imports, "build_s": builds}
    return statistics.median(imports) + statistics.median(builds), info


def cold_cli(speed) -> tuple[float, bool]:
    """Reference milliseconds of one cold `szegosew eval` subprocess."""
    def call():
        return subprocess.run([sys.executable, "-m", "szegosew.cli", *CLI_EVAL],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
    res, _, ref = speed.time(call, in_op=False)
    ok = (not isinstance(res, Exception) and res.returncode == 0
          and len(res.stdout.strip().splitlines()) == 3)
    return 1e3 * ref, ok


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def parse_args(argv=None):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny problem sizes, for the self-test")
    return ap.parse_args(argv)


def run(args) -> dict:
    lib = load_library()
    import measure
    from workloads import WORKLOADS, Sizes
    sizes = Sizes.quick() if args.quick else Sizes()
    workload = WORKLOADS[args.workload](lib, args.seed, sizes)
    env = environment(args)
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    speed = measure.Speed()
    setup_s, setup_info = set_up(workload, speed)
    if args.workload == "grid":
        workload.build_check_contexts()
    OUT.mkdir(exist_ok=True)
    if args.trace:
        stats, values, info, tracer = measure.traced_run(
            lib, workload, args.seconds, speed)
        cli_ms, cli_ok = cold_cli(speed)
        values["cli.eval_cold_ms"] = cli_ms
        stats.attempted += 1
        if not cli_ok:
            stats.failed += 1
            stats.failures.append({"kind": "cli", "error": "szegosew eval failed"})
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        units = {k: PER_LAYER_UNITS[k.rsplit(".", 1)[1]] for k in values}
    else:
        stats = measure.timed_phase(workload, args.seconds, speed)
        try:
            values, info = measure.end_to_end(workload, stats, setup_s)
        except RuntimeError as exc:
            raise BenchError(str(exc)) from exc
        units = END_TO_END_UNITS
    info["setup"] = setup_info
    info["speed_factor_median"] = statistics.median(speed.factors)
    failed_frac = stats.failed / max(stats.attempted, 1)

    for name, value in values.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(f"{'failed_frac':40s} {failed_frac:.6g} 1 "
          f"({stats.failed} of {stats.attempted})")
    for key, value in info.items():
        print(f"info {key} {json.dumps(value)}")
    result = {"correct": stats.failed == 0, "attempted": stats.attempted,
              "failed": stats.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    record = dict(result, env=env, info=info, failed_frac=failed_frac,
                  failures=stats.failures[:200])
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return result


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
