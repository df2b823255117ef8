"""One workload process of the taitkit benchmark.

Started by ``run.py``; prints one JSON object on standard output.  The
process imports taitkit from ``src/`` of the checkout, generates the
workload's inputs and writes their tables (the set-up), then runs the items
through ``taitkit.cli.main`` and checks every output.

Modes:
  setup   set up, report the moment set-up ended and the calibration
          kernel's time right after it, exit;
  timed   run the items in turn until ``--seconds`` of command time have
          gone by (each item once with the default of 0), untraced, with a
          run of the calibration kernel before each command and after the
          last (see ``calibrate.py``);
  traced  run each item once untraced and once under the tracer, back to
          back, and report per-layer times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
from oracles import CHECKS, load_reference
from tracing import Tracer, layer_times, load_layers, root_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# runs of the calibration kernel that scale one set-up time
SETUP_KERNEL_RUNS = 5


def import_taitkit() -> None:
    sys.path.insert(0, str(SRC))
    import taitkit
    if Path(taitkit.__file__).resolve().parent != SRC / "taitkit":
        raise ImportError(f"taitkit imported from {taitkit.__file__}, not {SRC}")


def write_inputs(items, workdir: Path) -> None:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for item in items:
        with open(workdir / f"{item.name}.json", "w", encoding="utf-8") as fh:
            json.dump(item.table, fh)
    with open(workdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump([{"name": item.name, "class": item.cls, "argv": item.argv,
                    **item.manifest} for item in items], fh, indent=1)


def run_item(item, workdir: Path, reference: dict, tracer=None, index: int = -1):
    """Run one command; returns ``(wall seconds, problems)``.

    An exception escaping ``cli.main`` is a failed item, not an aborted run.
    """
    from taitkit import cli

    table = workdir / f"{item.name}.json"
    out = workdir / f"{item.name}.out"
    argv = [a.format(table=table, out=out) for a in item.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.item = index
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        wall = time.perf_counter() - start
        return wall, [f"exception escaped cli.main: {traceback.format_exc()}"]
    wall = time.perf_counter() - start
    if "{out}" in item.argv:
        try:
            output = out.read_text(encoding="utf-8")
            out.unlink()
        except OSError as exc:
            return wall, [f"no output file: {exc}"]
    else:
        output = stdout.getvalue()
    try:
        problems = CHECKS[item.argv[0]](code, output, item, reference)
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"output not understood: {exc!r}"]
    return wall, problems


def run_sample(item, workdir: Path, reference: dict, index: int, tracer=None) -> dict:
    wall, problems = run_item(item, workdir, reference, tracer, index)
    for problem in problems:
        print(f"FAIL {item.name}: {problem}", file=sys.stderr)
    return {"item": index, "wall": wall, "ok": not problems}


def run_items(items, workdir: Path, reference: dict, seconds: float = 0.0) -> list[dict]:
    """Run the items in order, and again from the first, until ``seconds``
    of command time have gone by; every item runs at least once.

    The calibration kernel runs before each command and after the last;
    each sample's ``kernel`` is the mean of the two runs around it."""
    samples = []
    elapsed = 0.0
    k = 0
    kernel_before = calibrate.kernel_seconds()
    while k < len(items) or elapsed < seconds:
        sample = run_sample(items[k % len(items)], workdir, reference, k % len(items))
        kernel_after = calibrate.kernel_seconds()
        sample["kernel"] = (kernel_before + kernel_after) / 2
        kernel_before = kernel_after
        samples.append(sample)
        elapsed += sample["wall"]
        k += 1
    return samples


def run_traced(items, workdir: Path, reference: dict, tracer) -> tuple[list, list]:
    """Run each item untraced and then at once under the tracer, so that
    both runs of an item meet the same machine and their ratio is the
    tracing overhead."""
    plain, traced = [], []
    for index, item in enumerate(items):
        plain.append(run_sample(item, workdir, reference, index))
        tracer.install()
        try:
            traced.append(run_sample(item, workdir, reference, index, tracer))
        finally:
            tracer.restore()
    return plain, traced


def traced_summary(tracer, items) -> dict:
    times = layer_times(tracer.spans)
    sweep = {}
    for index, item in enumerate(items):
        if item.cls != "distinguished":
            continue
        item_times = layer_times(tracer.spans, index)
        sweep[str(item.n)] = {layer: [t["inclusive_s"], t["calls"]]
                              for layer, t in item_times.items()}
    return {
        "layers": times,
        "root_s": root_time(tracer.spans),
        "counts": dict(tracer.counts),
        "form_dim_max": tracer.form_dim_max,
        "sweep": sweep,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    import_taitkit()
    import generate

    items = generate.build_workload(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    write_inputs(items, workdir)
    ready = time.monotonic()
    result = {"ready": ready, "names": [item.name for item in items],
              "setup_kernel": statistics.median(
                  calibrate.kernel_seconds() for _ in range(SETUP_KERNEL_RUNS))}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    reference = load_reference()
    if args.mode == "timed":
        result["samples"] = run_items(items, workdir, reference, args.seconds)
    else:
        tracer = Tracer(load_layers())
        result["samples"], result["traced_samples"] = run_traced(
            items, workdir, reference, tracer)
        result["trace"] = traced_summary(tracer, items)
        tracer.write_spans(workdir / "spans.json")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
