"""One batch of one workload in a fresh interpreter.

Started by run.py, never imported by it.  Set-up ends once the package is
imported and the batch's configs are generated, written and parsed back;
the first call into a computing layer comes after it.  Table building
(clique laws, mean matrices, census tables) happens inside the ops and so
counts in ``wall_s``: a CLI user pays for it on every call, since each CLI
call is a fresh process.

Modes: ``setup`` stops after set-up, ``run`` times the ops with tracing
off, ``trace`` installs the tracer first.  The result goes to ``--result``
as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import cliquecascade as cc  # noqa: E402
from cliquecascade import cli, verification  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document, sort_keys=True) + "\n", encoding="utf-8")


def prepare(workload: str, seed: int, batch: int, batch_dir: Path) -> list[dict]:
    """Generate the op list, write each op's config, and parse it back."""
    ops = workloads.build_ops(workload, seed, batch)
    batch_dir.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(ops):
        op["config_path"] = str(batch_dir / f"op{i}.config.json")
        op["out_path"] = str(batch_dir / f"op{i}.out")
        _write_json(Path(op["config_path"]), op["model"])
        if json.loads(Path(op["config_path"]).read_text(encoding="utf-8")) != op["model"]:
            raise RuntimeError(f"config of {op['name']} does not round-trip")
    return ops


def _params(op: dict):
    return checks.params_of(cc, op["model"])


def run_op(op: dict):
    """Run one op; returns its parsed output, written to op["out_path"]."""
    out = Path(op["out_path"])
    if op["kind"] == "cli":
        argv = op["argv"][:1] + ["--config", op["config_path"]] + op["argv"][1:]
        code = cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"cli exit code {code}")
        text = out.read_text(encoding="utf-8")
        return text if op["argv"][0] == "sweep" else json.loads(text)
    if op["kind"] == "coupling":
        params = _params(op)
        graph = verification.depth1_active_counts(params, op["replicates"], op["graph_seed"])
        branching = verification.branching_root_counts(
            params, op["replicates"], op["branch_seed"]
        )
        match, worst = verification.histogram_match(graph, branching, sigmas=checks.Z_BOUND)
        output = {"graph": graph, "branching": branching, "match": match, "worst_z": worst}
    elif op["kind"] == "ladder":
        base = _params(op)
        thetas = [cc.Threshold.from_string(t) for t in op["thetas"]]
        config = cc.SimConfig(depth=op["depth"], replicates=op["replicates"], seed=op["seed"])
        output = {"survival": list(cc.survival_by_threshold(base, thetas, config))}
    else:
        raise ValueError(f"unknown op kind {op['kind']!r}")
    _write_json(out, output)
    return json.loads(out.read_text(encoding="utf-8"))


def _flag(op: dict, flag: str):
    argv = op.get("argv", [])
    return argv[argv.index(flag) + 1] if flag in argv else None


def problem_sizes(ops: list[dict], outputs: list) -> list[dict]:
    """Sizes of each distinct problem in the batch; computed after the timed ops.

    Ops whose sizes agree are merged into one entry listing their names, with
    the census vertex count averaged over them.
    """
    merged: dict[str, dict] = {}
    for op, output in zip(ops, outputs):
        params = _params(op)
        support = cc.child_count_pmf(params).support
        w_max = params.community_sizes.support_max
        grid = op.get("thetas") or (_flag(op, "--grid") or "").split(",")
        entry = {
            "memberships_support": len(params.memberships.support),
            "community_sizes_support": len(params.community_sizes.support),
            "child_count_support": len(support),
            "matrix_dim": params.max_child_count + 1,
            # sorted child-count tuples of the largest clique
            "config_tuples": math.comb(len(support) + w_max - 2, w_max - 1),
            "replicates": int(_flag(op, "--replicates") or op.get("replicates", 0)),
            "depth": int(_flag(op, "--depth") or op.get("depth", 0)),
            "theta_grid": [t for t in grid if t],
        }
        entry = merged.setdefault(json.dumps(entry, sort_keys=True), {**entry, "ops": []})
        entry["ops"].append(op["name"])
        if _flag(op, "--depth") and output is not None:
            vertices = entry.setdefault("vertices_per_replicate", [])
            vertices.append(sum(output["mean_vertices_by_depth"]))
    sizes = list(merged.values())
    for entry in sizes:
        if "vertices_per_replicate" in entry:
            entry["vertices_per_replicate"] = statistics.fmean(entry["vertices_per_replicate"])
    return sizes


def layer_metrics(tracer: tracing.Tracer, ops: list[dict], outputs: list, sizes) -> dict:
    s = tracer.summary()

    def span(name):
        return s["span_s"].get(name, 0.0)

    def own(name):
        return s["self_s"].get(name, 0.0)

    def calls(name):
        return s["calls"].get(name, 0)

    def tally(name):
        return s["tally_s"].get(name, 0.0)

    census = [
        (int(_flag(op, "--replicates")), out)
        for op, out in zip(ops, outputs)
        if op["kind"] == "cli" and op["argv"][0] == "simulate" and out is not None
    ]
    census_reps = sum(n for n, _ in census)
    census_vertices = sum(n * sum(out["mean_vertices_by_depth"]) for n, out in census)
    prob_calls = calls("clique_dynamics.clique_outcome_prob")
    return {
        "dist_core.pgf_calls": calls("dist_core.Pmf.pgf"),
        "dist_core.pgf_s": tally("dist_core.Pmf.pgf"),
        "dist_core.child_count_pmf_s": span("dist_core.child_count_pmf"),
        "clique_dynamics.outcome_prob_calls": prob_calls,
        "clique_dynamics.outcome_prob_nonzero_ratio": (
            s["work"].get("clique_dynamics.clique_outcome_prob", 0) / prob_calls if prob_calls else 0.0
        ),
        "clique_dynamics.outcome_law_s": span("clique_dynamics.clique_outcome_law"),
        "cascade_matrix.mean_matrix_s": span("cascade_matrix.mean_matrix"),
        "cascade_matrix.mean_active_s": span("cascade_matrix.mean_active_of_type"),
        "cascade_matrix.active_count_prob_calls": calls("cascade_matrix.active_count_prob"),
        "cascade_matrix.spectral_radius_s": span("cascade_matrix.spectral_radius"),
        "cascade_matrix.verdict_s": span("cascade_matrix.cascade_verdict"),
        "cascade_matrix.dim": max(e["matrix_dim"] for e in sizes),
        "cascade_matrix.config_tuples": max(e["config_tuples"] for e in sizes),
        "analytic_graph.extinction_s": span("analytic_graph.extinction_probability"),
        "analytic_graph.fixed_point_s": span("analytic_graph.smallest_fixed_point"),
        "analytic_graph.fixed_point_pgf_calls": tracer.calls_within(
            "dist_core.Pmf.pgf", "analytic_graph.smallest_fixed_point"
        ),
        "analytic_graph.root_degree_s": span("analytic_graph.root_degree_pmf"),
        "analytic_graph.clustering_s": span("analytic_graph.clustering_coefficient"),
        "mc_sim.estimate_s": span("mc_sim.estimate"),
        "mc_sim.replicate_us": span("mc_sim.estimate") / census_reps * 1e6 if census_reps else 0.0,
        "mc_sim.census_vertices_per_replicate": (
            census_vertices / census_reps if census_reps else 0.0
        ),
        "mc_sim.sample_local_graph_s": tally("mc_sim.sample_local_graph"),
        "mc_sim.sample_local_graph_calls": calls("mc_sim.sample_local_graph"),
        "mc_sim.vertices_sampled": s["work"].get("mc_sim.sample_local_graph", 0),
        "mc_sim.run_contagion_s": tally("mc_sim.run_contagion"),
        "mc_sim.run_contagion_calls": calls("mc_sim.run_contagion"),
        "mc_sim.activation_process_init_s": span("mc_sim.ActivationProcess.__init__"),
        "mc_sim.root_step_s": tally("mc_sim.ActivationProcess.root_step"),
        "mc_sim.root_step_calls": calls("mc_sim.ActivationProcess.root_step"),
        "mc_sim.survival_by_threshold_self_s": own("mc_sim.survival_by_threshold"),
        "verification.depth1_active_counts_self_s": own("verification.depth1_active_counts"),
        "verification.branching_root_counts_self_s": own("verification.branching_root_counts"),
        "verification.histogram_match_s": span("verification.histogram_match"),
        "cli.load_model_s": span("cli.load_model"),
        "cli.emit_json_s": span("cli.emit_json"),
        "cli.main_self_s": own("cli.main"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--batch", required=True, type=int)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--t0", required=True, type=float, help="parent's monotonic clock at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    if not Path(cc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported {cc.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2
    batch_dir = Path(args.workdir) / f"{args.mode}-{args.batch}"
    ops = prepare(args.workload, args.seed, args.batch, batch_dir)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        _write_json(Path(args.result), result)
        return 0

    tracer = tracing.install() if args.mode == "trace" else None
    outputs = []
    started = time.perf_counter()
    for op in ops:
        try:
            outputs.append(run_op(op))
        except Exception as exc:  # an op that raises counts as failed, the batch goes on
            print(f"op {op['name']} raised {exc!r}", file=sys.stderr)
            outputs.append(None)
    wall_s = time.perf_counter() - started
    if tracer is not None:
        tracer.active = False

    try:
        problems = checks.batch_problems(cc, args.workload, ops, outputs)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems = [[f"malformed output: {exc!r}"]] * len(ops)
    digest = hashlib.sha256()
    for op in ops:
        path = Path(op["out_path"])
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    sizes = problem_sizes(ops, outputs)
    result.update({
        "wall_s": wall_s,
        "attempted": len(ops),
        "failed": sum(1 for p in problems if p),
        "units_ok": sum(op["units"] for op, p in zip(ops, problems) if not p),
        "problems": {op["name"]: p for op, p in zip(ops, problems) if p},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "out_digest": digest.hexdigest(),
        "sizes": sizes,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
    })
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, ops, outputs, sizes)
        _write_json(batch_dir / "trace.json", tracer.dump())
    _write_json(Path(args.result), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
