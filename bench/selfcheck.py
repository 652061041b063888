"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py

1. The same seed gives the same op list, and another seed a different one.
2. Corrupted reports count as failed ops: a negative mean in a census
   report, a spectral radius off by 1e-6, a miscounted or mismatched
   histogram, a survival ladder that rises with the threshold.
3. An untraced and a traced batch with the same inputs write byte-identical
   reports, for every workload.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import copy
import shutil
import sys
import time

import checks
import run
import worker
import workloads

failures = 0


def expect(ok: bool, label: str) -> None:
    global failures
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {label}")


def flagged(workload: str, ops, outputs) -> list[bool]:
    return [bool(p) for p in checks.batch_problems(worker.cc, workload, ops, outputs)]


def check_op_lists() -> None:
    for name in workloads.WORKLOADS:
        same = workloads.build_ops(name, 7, 0) == workloads.build_ops(name, 7, 0)
        expect(same, f"{name}: seed 7 gives the same op list twice")
    for name in ("census_deep", "graph_coupling"):
        differs = workloads.build_ops(name, 7, 0) != workloads.build_ops(name, 8, 0)
        expect(differs, f"{name}: seeds 7 and 8 give different op lists")


def check_corruption(workdir) -> None:
    ops = worker.prepare("census_deep", 7, 0, workdir / "census")
    reports = [worker.run_op(op) for op in ops]
    expect(not any(flagged("census_deep", ops, reports)), "census_deep: clean reports pass")
    bad = copy.deepcopy(reports)
    bad[3]["mean_active_by_depth"][5] = -1.0
    expect(flagged("census_deep", ops, bad)[3], "census_deep: a negative mean fails its op")
    bad = copy.deepcopy(reports)
    for report in bad:
        report["mean_active_by_depth"][10] *= 1.5
        report["mean_vertices_by_depth"][10] *= 1.5
    expect(all(flagged("census_deep", ops, bad)), "census_deep: biased means fail the pool")

    ops = workloads.build_ops("analytic_phase", 0, 0)
    reference = checks.load_reference()
    outputs = []
    for op in ops:
        ref = reference[op["name"]]
        if op["argv"][0] == "sweep":
            rows = [f"{t},{r['rho']!r},{r['verdict']},false" for t, r in ref.items()]
            outputs.append("theta,rho,verdict,boundary\n" + "\n".join(rows) + "\n")
        else:
            outputs.append({
                "spectral_radius": ref["spectral_radius"],
                "verdict": {"kind": ref["verdict"]},
                "branching": {
                    "fixed_point": ref["fixed_point"],
                    "extinction_probability": ref["extinction"],
                },
            })
    expect(not any(flagged("analytic_phase", ops, outputs)), "analytic_phase: reference values pass")
    bad = copy.deepcopy(outputs)
    bad[2]["spectral_radius"] *= 1 + 1e-6
    expect(flagged("analytic_phase", ops, bad)[2], "analytic_phase: rho off by 1e-6 fails")
    bad = copy.deepcopy(outputs)
    bad[0] = bad[0].replace("FiniteAlmostSurely", "CascadePossible", 1)
    expect(flagged("analytic_phase", ops, bad)[0], "analytic_phase: a flipped verdict fails")

    ops = workloads.build_ops("graph_coupling", 7, 0)
    n = workloads.COUPLING_REPLICATES
    outputs = [
        {"graph": {"1": n}, "branching": {"1": n}, "match": True, "worst_z": 0.0}
        if op["kind"] == "coupling"
        else {"survival": [1.0 - i / 10 for i in range(len(op["thetas"]))]}
        for op in ops
    ]
    expect(not any(flagged("graph_coupling", ops, outputs)), "graph_coupling: consistent outputs pass")
    bad = copy.deepcopy(outputs)
    bad[0]["graph"] = {"1": n - 1}
    bad[1]["graph"] = {"1": n // 2, "2": n - n // 2}
    bad[-1]["survival"][4] = 1.0
    expect(flagged("graph_coupling", ops, bad) == [True, True] + [False] * (len(ops) - 3) + [True],
           "graph_coupling: miscounted, mismatched and rising outputs fail")


def check_trace_out_of_band(workdir) -> None:
    deadline = time.monotonic() + run.TIME_LIMIT_S
    for name in workloads.WORKLOADS:
        runner = run.Runner(name, 7, workdir, deadline)
        plain = runner.batch("run", 0)
        traced = runner.batch("trace", 0)
        same = plain["out_digest"] == traced["out_digest"]
        expect(same, f"{name}: traced and untraced reports are byte-identical")


def main() -> int:
    workdir = worker.BENCH.parent / ".bench_work" / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        check_op_lists()
        check_corruption(workdir)
        check_trace_out_of_band(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{failures} self-check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
