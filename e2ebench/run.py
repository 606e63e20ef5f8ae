"""End-to-end benchmark of the BabelFlow reproduction.

Run from the root of a source checkout::

    python3 e2ebench/run.py --workload mergetree_sim --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics (untraced operations);
``--trace 1`` is the separate traced run that prints per-layer figures
and each workload's tracing overhead.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md in this directory for the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("mergetree_sim", "registration_local", "stats_traced")
#: Set-up samples per run: this process's own set-up plus fresh processes.
SETUP_SAMPLES = 3

#: Calibration-loop milliseconds at the reference host speed (the
#: typical figure on the 2-core container the README's numbers come from).
CALIBRATION_REF_MS = 45.0

END_TO_END_UNITS = {"run_s": "s", "tasks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Units of the per-layer figures (``_s`` seconds per operation).
LAYER_UNITS = {
    "mergetree.local_s": "s",
    "mergetree.join_s": "s",
    "mergetree.correction_s": "s",
    "mergetree.segmentation_s": "s",
    "registration.extract_s": "s",
    "registration.correlate_s": "s",
    "registration.evaluate_s": "s",
    "registration.place_s": "s",
    "registration.correlate_calls": "count",
    "statistics.summarize_s": "s",
    "statistics.merge_s": "s",
    "costs.model_s": "s",
    "runtimes.sim_self_s": "s",
    "runtimes.sim_self_us_per_task": "us",
    "runtimes.tasks": "count",
    "runtimes.messages": "count",
    "runtimes.bytes_sent": "B",
    "local.queue_wait_s": "s",
    "local.idle_s": "s",
    "local.busy_share": "ratio",
    "obs.emit_s": "s",
    "obs.events": "count",
    "obs.trace_bytes": "B",
    "obs.bytes_per_event": "B",
    "api.facade_s": "s",
    "sched.plan_hits": "count",
    "sched.plan_misses": "count",
    "sched.plan_hit_ratio": "ratio",
    "sched.fallbacks": "count",
    "graphs.materialize_s": "s",
    "data.field_s": "s",
    "data.grid_s": "s",
}


def calibration_ms() -> float:
    """Milliseconds of a fixed pure-Python + numpy loop.

    Not a metric.  It runs before the first and after every timed
    operation; the timed figures are scaled by it (see
    :func:`host_scaled`), and its figures are printed so a reader can
    tell a slower host from a slower program.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.arange(200_000, dtype=np.float64)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return 1e3 * (time.perf_counter() - t0)


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return seed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=seed_arg, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only", action="store_true",
        help="set up and warm up, print the set-up seconds, and exit "
        "(one set-up sample, taken in a fresh process)",
    )
    return p.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"error: no program source at {SRC}/repro\n")
        sys.exit(2)
    sys.path.insert(0, SRC)


class Outcome:
    """Counts and timings of a run's operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.walls: list[float] = []
        self.tasks = 0

    def record(self, workload, prepared, fn, traced: bool = False) -> tuple:
        """Run ``fn()`` as one attempted operation and check its output.

        A traced operation returns ``(output, per-layer figures)``.
        Returns ``(what fn returned, wall seconds)``, or ``(None, None)``
        when the operation raised (counted as failed).
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None, None
        wall = time.perf_counter() - t0
        try:
            self.tasks += workload.check(prepared, out[0] if traced else out)
        except AssertionError as exc:
            self.correct = False
            sys.stderr.write(f"{workload.name}: check failed: {exc}\n")
        self.walls.append(wall)
        return out, wall


def set_up(name: str, seed: int, scratch: str):
    """Build the workload and run one untimed, checked warm-up operation."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, scratch)
    prepared = wl.prepare()
    out = wl.operation(prepared)
    wl.check(prepared, out)
    return wl


def setup_sample_in_fresh_process(args) -> float:
    """Set-up seconds of a new process."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up sample failed with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child
    (a pool worker), in MiB.  Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def host_scaled(seconds: float, calib_ms: float) -> float:
    """``seconds`` at the reference host speed: scaled by how much longer
    or shorter than :data:`CALIBRATION_REF_MS` the calibration loop took
    while the measurement ran.  An operation is scaled by the mean of the
    two loops around it; the set-up median, whose samples lie at both ends
    of the run, by the median of all the run's loops."""
    return seconds * CALIBRATION_REF_MS / calib_ms


def measure(args, scratch: str) -> tuple:
    """The untraced run: end-to-end metrics of one workload."""
    wl = set_up(args.workload, args.seed, scratch)
    own_setup = time.perf_counter() - T_START
    calibs = [calibration_ms()]
    outcome = Outcome()
    scaled = []
    deadline = time.perf_counter() + args.seconds
    while True:
        prepared = wl.prepare()
        _, wall = outcome.record(wl, prepared, lambda: wl.operation(prepared))
        calibs.append(calibration_ms())
        if wall is not None:
            scaled.append(host_scaled(wall, (calibs[-2] + calibs[-1]) / 2))
        if time.perf_counter() >= deadline:
            break
    rss = peak_rss_mb()
    setups = [own_setup] + [
        setup_sample_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)
    ]
    calib_median = statistics.median(calibs)
    walls = outcome.walls
    print(
        f"calibration_ms start={calibs[0]:.2f} end={calibs[-1]:.2f} "
        f"median={calib_median:.2f} (fixed pure-Python+numpy loop, "
        f"reference {CALIBRATION_REF_MS} ms)"
    )
    print(
        f"{args.workload}: {len(walls)} operations timed, "
        f"{outcome.attempted} attempted, {outcome.failed} failed; "
        f"wall s: {', '.join(f'{w:.3f}' for w in walls)}"
    )
    print("setup samples (wall s): " + ", ".join(f"{s:.3f}" for s in setups))
    metrics = {}
    if walls:
        print(f"unscaled: run_s {statistics.median(walls):.4f} s, "
              f"tasks_per_s {outcome.tasks / sum(walls):.2f} 1/s, "
              f"setup_s {statistics.median(setups):.4f} s")
        metrics = {
            "run_s": statistics.median(scaled),
            "tasks_per_s": outcome.tasks / sum(scaled),
            "setup_s": host_scaled(statistics.median(setups), calib_median),
            "peak_rss_mb": rss,
        }
    return outcome, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def trace_run(args, scratch: str) -> tuple:
    """The traced run: per-layer figures and tracing overheads.

    Every workload runs here, the named one first, alternating untraced
    and traced operations.  A per-layer figure comes from the named
    workload when that workload exercises the layer, otherwise from the
    first other workload (in the fixed order) that does.
    """
    from layers import Tracer

    order = [args.workload] + [w for w in WORKLOAD_NAMES if w != args.workload]
    share = args.seconds / len(order)
    tracer = Tracer()
    outcome = Outcome()
    calib_start = calibration_ms()
    layers: dict = {}
    overheads: dict = {}
    for name in order:
        wl = set_up(name, args.seed, scratch)
        plain, traced, per_op = [], [], []
        deadline = time.perf_counter() + share
        while len(traced) < 2 or time.perf_counter() < deadline:
            prepared = wl.prepare()
            _, wall = outcome.record(wl, prepared, lambda: wl.operation(prepared))
            plain.append(wall)
            prepared = wl.prepare()
            out, wall = outcome.record(
                wl, prepared, lambda: wl.traced_operation(tracer, prepared), traced=True
            )
            if outcome.failed:
                return outcome, {}
            traced.append(wall)
            per_op.append(out[1])
        overheads[name] = statistics.median(traced) / statistics.median(plain)
        print(
            f"{name}: untraced run_s {statistics.median(plain):.4f}, traced "
            f"run_s {statistics.median(traced):.4f}, tracing overhead "
            f"{overheads[name]:.3f}x ({len(traced)} traced operations)"
        )
        for key in per_op[0]:
            if key not in layers:
                layers[key] = statistics.median(op[key] for op in per_op)
    print(
        f"calibration_ms start={calib_start:.2f} end={calibration_ms():.2f} "
        f"(fixed pure-Python+numpy loop; not a metric)"
    )
    out_dir = os.path.join(ROOT, ".e2ebench-out")
    os.makedirs(out_dir, exist_ok=True)
    span_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(span_path)
    print(f"spans written to {os.path.relpath(span_path, ROOT)}")
    metrics = {k: (v, LAYER_UNITS[k]) for k, v in layers.items()}
    for name, ratio in overheads.items():
        metrics[f"trace.overhead.{name}"] = (ratio, "x")
    return outcome, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    scratch_root = os.path.join(ROOT, ".e2ebench-tmp")
    scratch = os.path.join(scratch_root, str(os.getpid()))
    os.makedirs(scratch)
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, scratch)
            print(json.dumps({"setup_s": time.perf_counter() - T_START}))
            return 0
        if args.trace:
            outcome, metrics = trace_run(args, scratch)
        else:
            outcome, metrics = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:  # another run's scratch is still there
            pass
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = outcome.correct and outcome.attempted > outcome.failed
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
