"""Steadiness check: do two sets of runs of the same code agree?

Runs the benchmark command of ``BENCHMARK.json`` (untraced) for every
workload in two consecutive sets, ``--runs`` times per set with a
different seed each time (seeds 0, 1, ... in the first set and 1000,
1001, ... in the second), from the root of the checkout::

    python3 e2ebench/steady.py --runs 10

For every end-to-end metric on every workload it prints each set's
median and quartiles and the quartile spread (q3 - q1) / median, and
whether the two sets agree: the second median differs from the first by
at most the metric's bound in either direction, each spread is within
the bound, and the share of failed operations is the same.  Exit code 0
when everything agrees, 1 otherwise.  The raw results are written to
``.e2ebench-out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    calib = [line for line in proc.stdout.splitlines() if line.startswith("calibration_ms")]
    result["calibration"] = calib[0] if calib else ""
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)`` with ``statistics.quantiles(n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def report(spec: dict, sets: list[dict]) -> bool:
    ok = True
    for workload in sets[0]:
        runs = [s[workload] for s in sets]
        shares = [
            sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs
        ]
        print(f"\n{workload}  (failed share per set: {shares})")
        if len(set(shares)) > 1:
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            meds = []
            for rs in runs:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in rs])
                meds.append(med)
                spread_ok = spread <= bound
                ok &= spread_ok
                mark = " (over bound)" if not spread_ok else (
                    " (over a third of the bound)" if spread > bound / 3 else ""
                )
                cells.append(
                    f"median {med:.5g} [{q1:.5g}, {q3:.5g}] spread {100 * spread:.1f}%{mark}"
                )
            line = f"  {name:<12} bound {100 * bound:.0f}%  " + " | ".join(cells)
            change = (meds[1] - meds[0]) / meds[0]
            agrees = abs(change) <= bound
            ok &= agrees
            line += f" | set 2 vs 1: {100 * change:+.1f}% {'ok' if agrees else 'DIFFERS'}"
            print(line)
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 (quartiles need two values)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    workloads = [w["name"] for w in spec["workloads"]]
    sets: list[dict] = []
    for s in range(2):
        results: dict = {w: [] for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                seed = 1000 * s + i
                r = one_run(spec, w, seed)
                results[w].append(r)
                values = ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()
                )
                print(
                    f"set {s + 1} run {i + 1} {w} seed {seed}: {values} "
                    f"({r['elapsed_s']:.1f} s; {r['calibration']})",
                    flush=True,
                )
        sets.append(results)
    out_dir = os.path.join(ROOT, ".e2ebench-out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fp:
        json.dump(sets, fp)
    ok = report(spec, sets)
    print(f"\nraw results: {os.path.relpath(path, ROOT)}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
