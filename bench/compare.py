"""Compare a change against its parent on one workload of the benchmark.

    python3 bench/compare.py --parent ../parent --change . --workload dom-search

`--parent` and `--change` are the roots of two source trees, each holding
``src/kneserdom``. Both are measured by this copy of ``bench/run.py`` with
the run length of BENCHMARK.json, in pairs that share a seed; the side that
runs first alternates from pair to pair. For each end-to-end metric the
verdict is:

- ``gain``: the change wins at least 9 of every 10 pairs (ties count for
  neither), its median beats the parent's by more than the distance between
  the parent's quartiles, and no more calls fail than at the parent;
- ``unresolved``: the parent's own spread (quartile distance over median)
  exceeds the metric's bound, and not every change run beats every parent
  run;
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``unchanged``: otherwise.

The exit code is 1 when any metric regresses or the change fails a call.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PAIRS = 10


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
           "--src", str(root / "src")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1])


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, parent_failed: int, change_failed: int) -> dict:
    """Section 8 of the choosing-metrics method, for one metric."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    mp, mc = median(parent), median(change)
    q1, _, q3 = quantiles(parent, n=4)
    spread = q3 - q1
    gain = sign * (mp - mc)            # > 0 when the change is better
    every_run_better = all(sign * (p - c) > 0
                           for p in parent for c in change)
    rel_spread = spread / abs(mp) if mp else float("inf")
    worse = -gain / abs(mp) if mp else (float("inf") if gain < 0 else 0.0)
    if (wins >= 0.9 * len(parent) and gain > spread
            and change_failed <= parent_failed):
        result = "gain"
    elif rel_spread > bound and not every_run_better:
        result = "unresolved"
    elif worse > bound:
        result = "regression"
    else:
        result = "unchanged"
    cq1, _, cq3 = quantiles(change, n=4)
    return {"verdict": result, "wins": wins, "pairs": len(parent),
            "parent": {"median": mp, "q1": q1, "q3": q3},
            "change": {"median": mc, "q1": cq1, "q3": cq3},
            "parent_spread": rel_spread, "bound": bound}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side], args.workload, seed,
                                       spec["run_seconds"]))
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
            f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.4g}"
            for side in order), flush=True)

    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    report = {"workload": args.workload, "seconds": spec["run_seconds"],
              "failed": failed, "metrics": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs}
        report["metrics"][name] = verdict(
            values["parent"], values["change"], metric["better"],
            metric["bound"], failed["parent"], failed["change"])

    print(f"{'metric':18} {'parent median [q1,q3]':>30} "
          f"{'change median [q1,q3]':>30} {'wins':>6}  verdict")
    for name, v in report["metrics"].items():
        p, c = v["parent"], v["change"]
        print(f"{name:18} {p['median']:>12.5g} [{p['q1']:.5g},{p['q3']:.5g}]"
              f" {c['median']:>12.5g} [{c['q1']:.5g},{c['q3']:.5g}]"
              f" {v['wins']:>3}/{v['pairs']}  {v['verdict']}")
    print(f"failed calls: parent {failed['parent']}, change {failed['change']}")
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"compare-{args.workload}.json").write_text(
        json.dumps({**report, "runs": runs}, indent=1))
    regressed = any(v["verdict"] == "regression"
                    for v in report["metrics"].values())
    return 1 if regressed or failed["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
