"""Self-test of the benchmark, in quick mode.

    python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json at a tiny size (``--quick``),
   untraced and traced, and checks that the last line names exactly the
   end-to-end resp. per-layer metrics with their units, and that the
   human-readable lines carry ``failed_frac`` and the tail percentiles.
2. Checks that a kernel value (or determinant, or verify residual)
   perturbed by a relative 1e-6 fails its correctness check.
3. Checks that the benchmark exits non-zero, printing no result, in a
   directory holding only BENCHMARK.json and the benchmark's files.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PERTURB = 1.0 + 1e-6

problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        problems.append(what)


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_outputs(spec: dict) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for wl in spec["workloads"]:
            name = wl["name"]
            res = run_bench(ROOT, name, trace)
            expect(res.returncode == 0, f"{name} trace={trace} exits 0")
            if res.returncode != 0:
                print(res.stderr[-2000:])
                continue
            lines = res.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace} result keys")
            expect(last["correct"] is True and last["failed"] == 0
                   and last["attempted"] >= 1,
                   f"{name} trace={trace} correct with no failures")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            expect(got == want, f"{name} trace={trace} emits every {group} "
                   f"metric with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"])
                       for v in last["metrics"].values()),
                   f"{name} trace={trace} values are finite numbers")
            text = "\n".join(lines[:-1])
            expect("failed_frac" in text, f"{name} trace={trace} prints failed_frac")
            for metric in want:
                expect(any(line.split()[:1] == [metric] and line.split()[-1] == want[metric]
                           for line in lines[:-1]),
                       f"{name} trace={trace} prints {metric} with its unit")
            if trace == 0:
                expect('"percentile"' in text, f"{name} prints tail percentiles")


def check_perturbations() -> None:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import szegosew as lib
    import inputs
    import workloads as wls

    sizes = wls.Sizes.quick()
    rng = np.random.default_rng(11)

    def caught(op, perturb, what):
        out = op.run()
        expect(not op.check(out).failed, f"{what}: unperturbed value passes")
        expect(bool(op.check(perturb(out)).failed),
               f"{what}: relative 1e-6 perturbation is caught")

    ecfg = inputs.draw_eps_config(rng)
    op = wls.eps_op(lib, ecfg, inputs.eps_label_pairs(rng, ecfg),
                    sizes.eps_orders, 0)

    def eps_value(out):
        chars, moduli, pts, res = out
        ctx, det, vals = res[0]
        return chars, moduli, pts, [(ctx, det, [vals[0] * PERTURB] + vals[1:])] + res[1:]

    def eps_det(out):
        chars, moduli, pts, res = out
        return chars, moduli, pts, [(c, d * PERTURB, v) for c, d, v in res]
    caught(op, eps_value, "eps kernel value")
    caught(op, eps_det, "eps determinant")

    rcfg = inputs.draw_rho_config(rng)
    x = inputs.rho_points(rng, rcfg, 1, 1)[0]
    pairs = [(x, inputs.rho_points(rng, rcfg, 2, 1, [x])[0])]
    op = wls.rho_op(lib, rcfg, pairs, sizes.rho_orders, 0)

    def rho_value(out):
        tw1, handle, moduli, res = out
        ctx, det, vals = res[0]
        return tw1, handle, moduli, [(ctx, det, [vals[0] * PERTURB] + vals[1:])] + res[1:]
    caught(op, rho_value, "rho kernel value")

    scfg = inputs.draw_sphere_config(rng)
    spairs = [(inputs.sphere_log_points(rng, scfg, 1, inputs.X_BAND)[0],
               inputs.sphere_log_points(rng, scfg, 1, inputs.Y_BAND)[0])]
    op = wls.sphere_op(lib, scfg, spairs, sizes.sphere_order)
    caught(op, lambda out: (out[0], out[1], [out[2][0] * PERTURB]),
           "sphere kernel value")

    grid = wls.Grid(lib, 5, sizes)
    grid.setup()
    grid.build_check_contexts()
    for op in grid.make_pass(0):
        if op.kind in ("eps", "rho"):
            caught(op, lambda vals: [vals[0] * PERTURB] + vals[1:],
                   f"grid {op.kind} kernel value")

    report = lib.run_suite("dehn")
    expect(not wls.verify_check(report).failed, "verify report passes")
    worse = json.loads(json.dumps(report))
    c = worse["checks"][0]
    c["residual"] = c["tolerance"] * PERTURB
    expect(bool(wls.verify_check(worse).failed),
           "verify residual above its tolerance is caught")
    flagged = json.loads(json.dumps(report))
    flagged["checks"][0]["passed"] = False
    expect(bool(wls.verify_check(flagged).failed),
           "verify check with a false pass flag is caught")


def check_bare_directory(spec: dict) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        res = run_bench(bare, spec["workloads"][0]["name"], 0)
        last = res.stdout.strip().splitlines()[-1:] or [""]
        expect(res.returncode != 0 and not last[0].startswith("{"),
               "without the sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_perturbations()
    check_outputs(spec)
    check_bare_directory(spec)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
