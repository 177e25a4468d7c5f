"""Run one workload of the kneserdom benchmark and print its metrics.

    python3 bench/run.py --workload dom-search --seed 1 --seconds 24 --trace 0

Every call goes through ``kneserdom.cli.main(argv)`` in this process, with
stdout captured, and every output is checked outside the timed region
(workloads.py). The run first imports the package and builds the workload
several times (the median is ``setup_s``), then repeats passes over the
workload's calls, in a seeded order, until the next pass would end after
``--seconds``. At least one pass always runs.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` passes alternate between untraced and traced (tracing.py), and
the last line holds the per-layer metrics and the tracing overhead. Either
way a result file with provenance, per-call records and, when traced, the
spans is written to ``bench/results/``. The exit code is 0 when every call
passed its checks and 1 otherwise; 2 means the program could not be run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

from speed import SpeedMeter
from tracing import Tracer, median_metrics
from workloads import EXIT_BUDGET, WORKLOADS, Tally

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9


def import_program(src: Path):
    """Import kneserdom from `src` afresh, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "kneserdom" or m.startswith("kneserdom.")]:
        del sys.modules[name]
    kd = importlib.import_module("kneserdom")
    importlib.import_module("kneserdom.cli")
    if Path(kd.__file__).resolve().parent != (src / "kneserdom").resolve():
        raise ImportError(f"kneserdom was imported from {kd.__file__}, "
                          f"not from {src}")
    return kd


def setup(src: Path, workload: str, seed: int):
    """Import the program and generate the workload's argv lists and
    documents; returns (package, calls)."""
    kd = import_program(src)
    return kd, WORKLOADS[workload](random.Random(seed))


def run_pass(cli, calls, order, tracer: Tracer | None = None):
    """Run the calls in `order`; returns, per call,
    (call, exit code, stdout, stderr, start, end)."""
    records = []
    saved = sys.stdin, sys.stdout, sys.stderr
    for i in order:
        call = calls[i]
        out, err = io.StringIO(), io.StringIO()
        stdin = io.StringIO(call.stdin or "")
        if tracer is not None:
            tracer.call = i
        sys.stdin, sys.stdout, sys.stderr = stdin, out, err
        t0 = perf_counter()
        try:
            code = cli.main(call.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed call, not a failed run
            code = None
            err.write(traceback.format_exc())
        finally:
            t1 = perf_counter()
            sys.stdin, sys.stdout, sys.stderr = saved
        records.append((call, code, out.getvalue(), err.getvalue(), t0, t1))
    return records


def measure(kd, calls, seconds: float, order_rng: random.Random, trace: bool,
            meter: SpeedMeter):
    """Repeat rounds (one pass, or an untraced and a traced pass) until the
    next round would end after `seconds`. Pass times are kept both raw and
    in reference seconds."""
    walls: dict[bool, list[float]] = {False: [], True: []}
    raw_walls: list[float] = []
    tallies: list[Tally] = []
    layers: list[dict] = []
    spans: list[dict] = []
    call_seconds: list[list[float]] = [[] for _ in calls]
    start = perf_counter()
    rounds = 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            order = list(range(len(calls)))
            order_rng.shuffle(order)
            tracer = Tracer() if traced else None
            gc.collect()
            if tracer is not None:
                tracer.install(kd)
            try:
                records = run_pass(kd.cli, calls, order, tracer)
            finally:
                if tracer is not None:
                    tracer.remove()
            # A call stopped by its wall budget lasts the budget whatever
            # the machine's speed, so it is counted in wall seconds.
            walls[traced].append(sum(
                t1 - t0 if code == EXIT_BUDGET else meter.scaled(t0, t1)
                for _, code, _, _, t0, t1 in records))
            tally = Tally()
            for (call, code, out, err, t0, t1), i in zip(records, order):
                tally.add(call, code, out, err)
                if not traced:
                    call_seconds[i].append(t1 - t0)
            if not traced:
                raw_walls.append(sum(t1 - t0 for *_, t0, t1 in records))
            tallies.append(tally)
            if tracer is not None:
                layers.append(tracer.layer_metrics())
                spans.extend(span.as_dict() for span in tracer.spans)
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    return walls, raw_walls, tallies, layers, spans, call_seconds


def tail(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples above it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    idx = len(ordered) - 11
    return f"p{100 * (idx + 1) / len(ordered):.0f}", ordered[idx]


def git_commit(root: Path) -> str:
    """The commit checked out at `root`, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(src: Path, seed: int, calls) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "git_commit": git_commit(src.parent),
        "seed": seed,
        "budgets_s": {call.label: call.timeout for call in calls
                      if call.timeout is not None},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the kneserdom package")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

    setups, raw_setups = [], []
    with SpeedMeter() as meter:
        try:
            for _ in range(SETUP_REPEATS):
                # a set-up is shorter than the sampling interval, so it is
                # scaled by samples taken just before and after it
                lo = len(meter.refs)
                for _ in range(3):
                    meter.sample()
                t0 = perf_counter()
                kd, calls = setup(src, args.workload, args.seed)
                t1 = perf_counter()
                for _ in range(3):
                    meter.sample()
                setups.append((t1 - t0) * meter.factor(lo, len(meter.refs)))
                raw_setups.append(t1 - t0)
        except ImportError as exc:
            print(f"error: cannot import kneserdom from {src}: {exc}",
                  file=sys.stderr)
            return 2
        order_rng = random.Random(f"order:{args.seed}")
        walls, raw_walls, tallies, layers, spans, call_seconds = measure(
            kd, calls, args.seconds, order_rng, bool(args.trace), meter)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    untraced = walls[False]
    counts = {key: median(getattr(t, key) for t in tallies)
              for key in ("search_nodes", "open_gap", "candidate_values")}
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(untraced), "s"),
        "raw_setup_s": (median(raw_setups), "s"),
        "raw_wall_s": (median(raw_walls), "s"),
        "reference_us": (median(meter.refs) * 1e6, "us"),
        "search_nodes": (counts["search_nodes"], "count"),
        "open_gap": (counts["open_gap"], "count"),
        "candidate_values": (counts["candidate_values"], "count"),
        "fail_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(untraced)} untraced pass(es), {len(walls[True])} traced")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:18} {value:>14.6g} {unit}")
    tail_wall = tail(untraced)
    print(f"  wall_s samples {len(untraced)}, " + (
        f"{tail_wall[0]} {tail_wall[1]:.6g} s" if tail_wall else
        "too few for a tail percentile"))
    for t in tallies:
        for failure in t.failures:
            print(f"  FAILED {failure}")

    if args.trace:
        layer = median_metrics(layers)
        layer["trace.untraced_wall_s"] = median(untraced)
        layer["trace.traced_wall_s"] = median(walls[True])
        layer["trace.overhead_s"] = (layer["trace.traced_wall_s"]
                                     - layer["trace.untraced_wall_s"])
        units = {name: _unit(name) for name in layer}
        for name in sorted(layer):
            print(f"  {name:32} {layer[name]:>14.6g} {units[name]}")
        metrics = {name: {"value": layer[name], "unit": units[name]}
                   for name in layer}
    else:
        reported = ("setup_s", "wall_s", "search_nodes", "candidate_values",
                    "peak_rss_mb")
        metrics = {name: {"value": end_to_end[name][0],
                          "unit": end_to_end[name][1]} for name in reported}

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "provenance": provenance(src, args.seed, calls),
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()},
        "metrics": metrics,
        "setup_s_samples": {"scaled": setups, "raw": raw_setups},
        "wall_s_samples": {"untraced": untraced, "traced": walls[True],
                           "raw_untraced": raw_walls},
        "reference_s_samples": meter.refs,
        "calls": [{"label": c.label, "argv": c.argv, "seconds": s}
                  for c, s in zip(calls, call_seconds)],
        "failures": [f for t in tallies for f in t.failures],
        "spans": spans,
    }
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
