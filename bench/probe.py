"""Budget-margin probe for the open-budget workload.

    python3 bench/probe.py

Runs each open-budget call at half, at exactly and at twice its budget and
prints the bracket each one ends with. The workload's open_gap and
candidate_values are steady only if the bracket is the same across that
range; README.md records the result beside the budgets.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, import_program, run_pass
from workloads import OPEN_BUDGET, Tally, bracket

SCALES = (0.5, 1.0, 2.0)


def main(specs=OPEN_BUDGET) -> int:
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    kd = import_program(src)
    failed = 0
    for invariant, n, r, k, budget, known in specs:
        cells = []
        for scale in SCALES:
            probe = bracket(invariant, n, r, k, budget * scale, known)
            [(_, code, out, err, _, _)] = run_pass(kd.cli, [probe], [0])
            tally = Tally()
            tally.add(probe, code, out, err)
            failed += tally.failed
            doc = json.loads(out) if out else {}
            cells.append(f"{probe.timeout:g}s [{doc.get('lower_bound')},"
                         f"{doc.get('upper_bound')}]"
                         + (" FAILED" if tally.failed else ""))
        label = bracket(invariant, n, r, k, budget, known).label
        print(f"{label:34} " + "  ".join(cells), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
