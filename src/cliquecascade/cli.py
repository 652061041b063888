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
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .analytic_graph import (
    clustering_coefficient,
    extinction_probability,
    root_degree_pmf,
    survival_criterion,
)
from .cascade_matrix import BOUNDARY_TOL, cascade_verdict, mean_matrix
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

_FAILURES = (
    (AssumptionViolated, 2, "model violates contagion assumptions: "),
    (NoConvergence, 3, "iteration did not converge: "),
    (EnumerationTooLarge, 1, "enumeration too large: "),
    (CensusOverflow, 1, "simulation overflow: "),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigInvalid(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args keeps no state between calls."""
    parser = _Parser(prog="cliquecascade", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--out")

    sub.add_parser("analyze", parents=[common], help="analytic report for one model")

    simulate = sub.add_parser("simulate", parents=[common], help="Monte Carlo survival estimate")
    simulate.add_argument("--depth", required=True, type=int)
    simulate.add_argument("--replicates", required=True, type=int)
    simulate.add_argument("--seed", required=True, type=int)

    sweep = sub.add_parser("sweep", parents=[common], help="rho and verdict across thresholds")
    sweep.add_argument("--grid", required=True, help="comma-separated thresholds")

    sub.add_parser("verify", parents=[common], help="oracle cross-checks")
    return parser


def load_model(path: str) -> ModelParams:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past Python's int-to-str digit limit
        raise ConfigInvalid(f"config holds a number too large to read: {exc}") from exc
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
    except (CascadeError, ValueError, TypeError, OverflowError) as exc:
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
        "memberships": _pmf_pairs(params.memberships),
        "community_sizes": _pmf_pairs(params.community_sizes),
        "threshold": str(params.threshold),
    }


def _pmf_pairs(pmf: Pmf) -> list:
    return [[v, p] for v, p in pmf.items]


def cmd_analyze(params: ModelParams) -> dict:
    matrix = mean_matrix(params)
    block = matrix.block  # first: its walk and |support|^2 prices refuse cheapest
    criterion = survival_criterion(params)
    branching = extinction_probability(params)
    clustering = clustering_coefficient(params)
    verdict = cascade_verdict(params)
    return {
        "model": _model_echo(params),
        "moments": {
            "mean_memberships": params.mean_memberships,
            "mean_community_size": params.mean_community_size,
            "mean_degree": params.mean_memberships * params.extra_members.mean(),
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
        "mean_matrix": {"types": matrix.types.tolist(), "entries": block.tolist()},
        "spectral_radius": matrix.rho,
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
        point = params.with_threshold(theta)
        verdict, rho = cascade_verdict(point), mean_matrix(point).rho
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
    if not math.isfinite(x):
        raise ValueError("non-finite float in report")
    token = format(float(x), ".17g")
    if "." not in token and "e" not in token:
        token += ".0"
    return token


def emit_json(document) -> str:
    return _emit(document, 0) + "\n"


def _emit(node, indent: int) -> str:
    pad = "  " * indent
    if isinstance(node, dict):
        items = (f"{pad}  {json.dumps(key)}: {_emit(value, indent + 1)}" for key, value in node.items())
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if node else "{}"
    if isinstance(node, list) and any(isinstance(v, (dict, list)) for v in node):
        entries = (f"{pad}  {_emit(value, indent + 1)}" for value in node)
        return "[\n" + ",\n".join(entries) + f"\n{pad}]"
    if isinstance(node, list):
        return "[" + ", ".join(_scalar(v) for v in node) + "]"
    return _scalar(node)


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


def _dispatch(args) -> int:
    params = load_model(args.config)
    code = 0
    if args.command == "analyze":
        text = emit_json(cmd_analyze(params))
    elif args.command == "simulate":
        config = SimConfig(depth=args.depth, replicates=args.replicates, seed=args.seed)
        text = emit_json(cmd_simulate(params, config))
    elif args.command == "sweep":
        tokens = [t.strip() for t in args.grid.split(",") if t.strip()]
        if not tokens:
            raise ConfigInvalid("sweep grid is empty")
        text = cmd_sweep(params, tokens)
    else:
        report = cmd_verify(params)
        text = emit_json(report)
        code = 0 if report["all_passed"] else 4
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigInvalid(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        return _dispatch(parser.parse_args(argv))
    except CascadeError as exc:
        code, prefix = next(((c, p) for kind, c, p in _FAILURES if isinstance(exc, kind)), (1, ""))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
