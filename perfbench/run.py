"""taitkit benchmark: the invariants and flype-check commands on seeded inputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (closed loop, one caller, each item one CLI command run in-process
through ``taitkit.cli.main``; see ``BENCHMARK.json`` for why each exists):

  table_invariants  one ``invariants`` command per entry of the bundled table
                    and of generated families
  flype_check       one ``flype-check`` command per pair

With ``--trace 0`` the end-to-end metrics come from untraced processes:
set-up-only processes before and after one timed process, which runs the
items in turn until ``--seconds`` of command time have gone by.  Their
times are scaled to a reference machine by a calibration kernel timed
around each command and after each set-up (``calibrate.py``), so that the
host's drifting speed moves them little; the unscaled figures are printed
too.  With ``--trace 1`` a separate process runs each item untraced and
then at once traced, and the per-layer metrics come from the traced runs.
Every process runs single-threaded with ``TAITKIT_THREADS`` unset and string
hashing fixed (``PYTHONHASHSEED=0``).  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# set-up is measured this many times per run, half before and half after
# the timed phase; the median is reported
SETUP_RUNS = 11
# a worker that runs longer than this is stopped and the run fails
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> tuple[dict, float]:
    """Run one worker process; returns its result and the monotonic time
    it was started at."""
    env = dict(os.environ)
    env.pop("TAITKIT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed nothing")
    return json.loads(lines[-1]), started


def tail(values: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least ten samples above
    it, as ``(percentile, value)``; the maximum when there are ten samples
    or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end_metrics(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, str]:
    """End-to-end metrics of a timed worker result, and a line saying how
    they were taken.

    Every time is scaled to the reference machine by the calibration kernel
    timed around it (``calibrate.py``): a command's wall time by the kernel
    runs before and after it, a set-up by the kernel runs right after it.
    ``setups`` holds ``(set-up seconds, kernel seconds)`` pairs.

    The commands are deterministic, so the runs of one command differ only
    by what else the machine was doing.  Latency and throughput therefore
    rest on one value per distinct command, the median of its scaled runs.
    ``latency_p50_ms`` is the median of these values, ``latency_tail_ms``
    the highest of them that has ten beyond it, and their maximum when there
    are ten or fewer.  Throughput is one pass over the commands at these
    values.
    """
    samples = result["samples"]
    names = result["names"]
    repeats = [[calibrate.scaled(s["wall"], s["kernel"]) for s in samples if s["item"] == i]
               for i in range(len(names))]
    per_item = [statistics.median(walls) for walls in repeats]
    pct, tail_value = tail(per_item)
    failed = sum(1 for s in samples if not s["ok"])
    raw_p50 = statistics.median(statistics.median(s["wall"] for s in samples if s["item"] == i)
                                for i in range(len(names)))
    note = (f"{len(samples)} commands in {sum(s['wall'] for s in samples):.3f} s, "
            f"each of the {len(names)} distinct commands run {min(map(len, repeats))} "
            f"to {max(map(len, repeats))} times; latency_tail_ms is p{pct:.1f} of "
            f"{len(per_item)} per-command medians; calibration kernel median "
            f"{statistics.median(s['kernel'] for s in samples) * 1000:.2f} ms against "
            f"{calibrate.REFERENCE_S * 1000:.2f} ms, unscaled latency_p50_ms "
            f"{raw_p50 * 1000:.2f}, unscaled setup_s "
            f"{statistics.median(wall for wall, _ in setups):.4f}; "
            f"failed_ratio {failed / len(samples):.4f}")
    metrics = {
        "throughput_per_s": (len(names) / sum(per_item), "1/s"),
        "latency_p50_ms": (statistics.median(per_item) * 1000, "ms"),
        "latency_tail_ms": (tail_value * 1000, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(calibrate.scaled(wall, kernel)
                                      for wall, kernel in setups), "s"),
    }
    return metrics, note


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list]:
    def setup_once() -> tuple[float, float]:
        result, started = run_worker(workload, seed, "setup", 0.0, deadline)
        return result["ready"] - started, result["setup_kernel"]

    setups = [setup_once() for _ in range(SETUP_RUNS // 2)]
    result, started = run_worker(workload, seed, "timed", seconds, deadline)
    setups.append((result["ready"] - started, result["setup_kernel"]))
    setups += [setup_once() for _ in range(SETUP_RUNS - len(setups))]
    metrics, note = end_to_end_metrics(result, setups)
    print(f"{workload}: {note}")
    return metrics, result["samples"]


def layer_metrics(layers_spec: dict, trace: dict, plain_wall: float,
                  traced_wall: float) -> dict:
    """Per-layer metrics of a traced worker result."""
    metrics = {}
    for layer in layers_spec["layers"]:
        entry = trace["layers"].get(layer, {"self_s": 0.0, "calls": 0})
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
    counts = trace["counts"]
    members = counts.get("orbit.members", 0)
    edges = counts.get("orbit.edges", 0)
    orbits = trace["layers"].get("orbit.flype_orbit", {"calls": 0})["calls"]
    metrics["goeritz.form_dim_max"] = (trace["form_dim_max"], "count")
    metrics["flype.sites"] = (counts.get("flype.sites", 0), "count")
    metrics["flype.invalid_site"] = (
        counts.get("flype.apply_flype.raised.InvalidSite", 0), "count")
    metrics["orbit.members"] = (members, "count")
    metrics["orbit.edges"] = (edges, "count")
    metrics["orbit.new_member_ratio"] = (
        (members - orbits) / edges if edges else 0.0, "ratio")
    metrics["orbit.isomorphic_child_ratio"] = (
        counts.get("orbit.self_loops", 0) / edges if edges else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    sweep = layers_spec["sweep"]
    for layer in sweep["layers"]:
        for n in sweep["ns"]:
            inclusive, calls = trace["sweep"].get(str(n), {}).get(layer, (0.0, 0))
            metrics[f"{layer}.ms_per_call.n{n}"] = (
                1000 * inclusive / calls if calls else 0.0, "ms")
    return metrics


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, list]:
    layers_spec = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    result, _ = run_worker(workload, seed, "traced", 0.0, deadline)
    trace = result["trace"]
    plain_wall = sum(s["wall"] for s in result["samples"])
    traced_wall = sum(s["wall"] for s in result["traced_samples"])
    self_total = sum(e["self_s"] for e in trace["layers"].values())
    print(f"{workload}: traced pass {traced_wall:.3f} s, untraced pass {plain_wall:.3f} s; "
          f"layer self time {self_total:.3f} s, outside any span "
          f"{traced_wall - trace['root_s']:.3f} s")
    metrics = layer_metrics(layers_spec, trace, plain_wall, traced_wall)
    return metrics, result["samples"] + result["traced_samples"]


def commit() -> str | None:
    """The checkout's git commit, or None outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit(), "TAITKIT_THREADS": "unset"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="table_invariants or flype_check")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "taitkit" / "cli.py").is_file():
        print(f"perfbench: no taitkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    print("environment: " + json.dumps(environment()))
    try:
        if args.trace:
            metrics, samples = per_layer(args.workload, args.seed, deadline)
        else:
            metrics, samples = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {args.workload} failed: {exc!r}", file=sys.stderr)
        return 1
    if any(not math.isfinite(v) for v, _ in metrics.values()):
        print("perfbench: a metric is not finite", file=sys.stderr)
        return 1
    failed = sum(1 for s in samples if not s["ok"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
