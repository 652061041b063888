"""Record the analytic_phase reference values that checks.py compares against.

    python3 bench/record_reference.py

Runs the analytic_phase ops once and writes, per op, the spectral radius,
verdict, fixed point and extinction probability (per grid point for the
sweep) to bench/reference.json.  Rerun only when the package's answers are
meant to change, and say why in the change that commits the new file.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import worker


def main() -> int:
    workdir = worker.BENCH.parent / ".bench_work" / "record_reference"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        ops = worker.prepare("analytic_phase", 0, 0, workdir)
        reference = {op["name"]: checks.analytic_summary(worker.run_op(op)) for op in ops}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {checks.REFERENCE_PATH.name} for {len(ops)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
