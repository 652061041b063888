"""Command-line front end.

Subcommands:
    analyze   full analytic report for one model (JSON)
    simulate  Monte Carlo estimate of cascade survival (JSON)
    sweep     spectral radius and verdict across a threshold grid (CSV)
    verify    oracle cross-checks for the configured model (JSON)

Model configs are JSON objects with "memberships" and "community_sizes" as
[value, probability] pair lists and "threshold" as a string, either decimal
("0.3") or fraction ("3/10"), parsed to an exact rational either way.

Exit codes: 0 success, 1 bad config, infeasible enumeration or a simulation
count beyond int64, 2 model violates the contagion assumptions, 3 iteration
failed to converge, 4 verification checks failed.

Floats in reports carry 17 significant digits so they round-trip exactly.
The only environment coupling is CLIQUECASCADE_LOG, which sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .analytic_graph import (
    clustering_coefficient,
    extinction_probability,
    root_degree_pmf,
    survival_criterion,
)
from .cascade_matrix import (
    BOUNDARY_TOL,
    cascade_verdict,
    mean_matrix,
    spectral_radius,
)
from .dist_core import ModelParams, Pmf, Threshold, child_count_pmf
from .errors import (
    AssumptionViolated,
    CascadeError,
    CensusOverflow,
    ConfigInvalid,
    EnumerationTooLarge,
    NoConvergence,
)
from .mc_sim import SimConfig, estimate
from .verification import oracle_equivalence_checks

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigInvalid(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cliquecascade", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analytic report for one model")
    analyze.add_argument("--config", required=True)
    analyze.add_argument("--out")

    simulate = sub.add_parser("simulate", help="Monte Carlo survival estimate")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--depth", required=True, type=int)
    simulate.add_argument("--replicates", required=True, type=int)
    simulate.add_argument("--seed", required=True, type=int)
    simulate.add_argument("--out")

    sweep = sub.add_parser("sweep", help="rho and verdict across thresholds")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--grid", required=True, help="comma-separated thresholds")
    sweep.add_argument("--out")

    verify = sub.add_parser("verify", help="oracle cross-checks")
    verify.add_argument("--config", required=True)
    verify.add_argument("--out")
    return parser


def load_model(path: str) -> ModelParams:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    for key in ("memberships", "community_sizes", "threshold"):
        if key not in raw:
            raise ConfigInvalid(f"config is missing {key!r}")
    try:
        memberships = _parse_pmf(raw["memberships"], "memberships")
        community_sizes = _parse_pmf(raw["community_sizes"], "community_sizes")
        threshold = Threshold.from_string(str(raw["threshold"]))
        return ModelParams(memberships, community_sizes, threshold)
    except ConfigInvalid:
        raise
    except (CascadeError, ValueError, TypeError) as exc:
        raise ConfigInvalid(str(exc)) from exc


def _parse_pmf(entries, name: str) -> Pmf:
    if not isinstance(entries, list):
        raise ConfigInvalid(f"{name} must be a list of [value, probability] pairs")
    pairs = []
    for item in entries:
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigInvalid(f"{name} entries must be [value, probability] pairs")
        value, prob = item
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigInvalid(f"{name} values must be integers")
        if not isinstance(prob, (int, float)) or isinstance(prob, bool):
            raise ConfigInvalid(f"{name} probabilities must be numbers")
        pairs.append((value, float(prob)))
    return Pmf.from_pairs(pairs)


def _model_echo(params: ModelParams) -> dict:
    return {
        "memberships": [[v, p] for v, p in params.memberships.items],
        "community_sizes": [[v, p] for v, p in params.community_sizes.items],
        "threshold": str(params.threshold),
    }


def _pmf_pairs(pmf: Pmf) -> list:
    return [[v, p] for v, p in pmf.items]


def _rho_and_verdict(params: ModelParams):
    """Spectral radius and verdict from a single Perron solve."""
    verdict = cascade_verdict(params)
    if verdict.rho is not None:
        return verdict.rho, verdict
    return spectral_radius(mean_matrix(params)), verdict


def cmd_analyze(params: ModelParams) -> dict:
    criterion = survival_criterion(params)
    branching = extinction_probability(params)
    clustering = clustering_coefficient(params)
    matrix = mean_matrix(params)
    rho, verdict = _rho_and_verdict(params)
    extra_members = params.extra_members
    return {
        "model": _model_echo(params),
        "moments": {
            "mean_memberships": params.mean_memberships,
            "mean_community_size": params.mean_community_size,
            "mean_degree": params.mean_memberships * extra_members.mean(),
        },
        "survival_criterion": {
            "lhs": criterion.lhs,
            "rhs": criterion.rhs,
            "supercritical": criterion.supercritical,
        },
        "branching": {
            "fixed_point": branching.fixed_point,
            "extinction_probability": branching.extinction,
            "degenerate": branching.degenerate,
        },
        "root_degree_pmf": _pmf_pairs(root_degree_pmf(params)),
        "clustering": {
            "value": clustering.value,
            "degenerate": clustering.degenerate_triples,
        },
        "child_count_pmf": _pmf_pairs(child_count_pmf(params)),
        "mean_matrix": [[float(v) for v in row] for row in matrix.entries],
        "spectral_radius": rho,
        "verdict": {
            "kind": verdict.kind.value,
            "reason": verdict.reason.value,
            "rho": verdict.rho,
            "boundary": verdict.boundary,
        },
    }


def cmd_simulate(params: ModelParams, config: SimConfig) -> dict:
    report = estimate(params, config)
    return {
        "model": _model_echo(params),
        "config": {
            "depth": config.depth,
            "replicates": config.replicates,
            "seed": config.seed,
        },
        "survival_frequency": report.survival_frequency,
        "graph_alive_frequency": report.graph_alive_frequency,
        "mean_active_by_depth": list(report.mean_active_by_depth),
        "mean_vertices_by_depth": list(report.mean_vertices_by_depth),
    }


def cmd_sweep(params: ModelParams, grid: list[str]) -> str:
    lines = ["theta,rho,verdict,boundary"]
    for token in grid:
        try:
            theta = Threshold.from_string(token)
        except ValueError as exc:
            raise ConfigInvalid(f"bad sweep threshold {token!r}: {exc}") from exc
        rho, verdict = _rho_and_verdict(params.with_threshold(theta))
        boundary = abs(rho - 1.0) <= BOUNDARY_TOL
        lines.append(
            f"{token},{_float_token(rho)},{verdict.kind.value},"
            f"{'true' if boundary else 'false'}"
        )
    return "\n".join(lines) + "\n"


def cmd_verify(params: ModelParams) -> dict:
    checks = oracle_equivalence_checks(params)
    return {
        "model": _model_echo(params),
        "checks": [
            {
                "name": c.name,
                "worst": c.worst,
                "tolerance": c.tolerance,
                "passed": c.passed,
            }
            for c in checks
        ],
        "all_passed": all(c.passed for c in checks),
    }


def _float_token(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in report")
    token = format(float(x), ".17g")
    if token.lstrip("-").isdigit():
        token += ".0"
    return token


def emit_json(document) -> str:
    out: list[str] = []
    _emit(document, out, 0)
    return "".join(out) + "\n"


def _emit(node, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(node.items()):
            out.append(f'{pad}  {json.dumps(key)}: ')
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(node) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(node, list):
        if not node:
            out.append("[]")
            return
        flat = all(not isinstance(v, (dict, list)) for v in node)
        if flat:
            out.append("[" + ", ".join(_scalar(v) for v in node) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(node):
            out.append(pad + "  ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(node) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(node))


def _scalar(node) -> str:
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, float):
        return _float_token(node)
    if isinstance(node, int):
        return str(node)
    if isinstance(node, str):
        return json.dumps(node)
    raise TypeError(f"cannot serialize {type(node).__name__}")


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dispatch(args) -> int:
    params = load_model(args.config)
    if args.command == "analyze":
        _write_output(emit_json(cmd_analyze(params)), args.out)
        return 0
    if args.command == "simulate":
        config = SimConfig(depth=args.depth, replicates=args.replicates, seed=args.seed)
        _write_output(emit_json(cmd_simulate(params, config)), args.out)
        return 0
    if args.command == "sweep":
        tokens = [t.strip() for t in args.grid.split(",") if t.strip()]
        if not tokens:
            raise ConfigInvalid("sweep grid is empty")
        _write_output(cmd_sweep(params, tokens), args.out)
        return 0
    if args.command == "verify":
        report = cmd_verify(params)
        _write_output(emit_json(report), args.out)
        return 0 if report["all_passed"] else 4
    raise ConfigInvalid(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    level = os.environ.get("CLIQUECASCADE_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssumptionViolated as exc:
        print(f"error: model violates contagion assumptions: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"error: iteration did not converge: {exc}", file=sys.stderr)
        return 3
    except EnumerationTooLarge as exc:
        print(f"error: enumeration too large: {exc}", file=sys.stderr)
        return 1
    except CensusOverflow as exc:
        print(f"error: simulation overflow: {exc}", file=sys.stderr)
        return 1
    except CascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
