"""Sweep the activation threshold for one model and print the phase picture.

For each theta on the grid the script reports the spectral radius of the
mean offspring matrix, the verdict, and a coupled survival estimate from
replicated simulation (same graphs reused across all thetas, so the
simulated column is monotone by construction, not only in expectation).

Example:
    python3 scripts/phase_sweep.py --memberships "2:0.5,4:0.5" \
        --community-sizes "2:0.5,3:0.5" --grid 0.05:0.5:10 --depth 3
"""

import argparse

from cliquecascade import (
    ModelParams,
    SimConfig,
    Threshold,
    cascade_verdict,
    mean_matrix,
    survival_by_threshold,
)


def parse_pmf(text: str) -> dict[int, float]:
    out = {}
    for part in text.split(","):
        value, prob = part.split(":")
        out[int(value)] = float(prob)
    return out


def parse_grid(text: str) -> list[Threshold]:
    lo, hi, count = text.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    step = (hi - lo) / (count - 1) if count > 1 else 0.0
    return [Threshold.from_string(f"{lo + i * step:.6f}") for i in range(count)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--memberships", default="2:0.5,4:0.5",
                    help="membership pmf as value:prob pairs")
    ap.add_argument("--community-sizes", default="2:0.5,3:0.5",
                    help="community size pmf as value:prob pairs")
    ap.add_argument("--grid", default="0.05:0.5:10",
                    help="theta grid as lo:hi:count")
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--replicates", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    thetas = parse_grid(args.grid)
    base = ModelParams.create(
        parse_pmf(args.memberships), parse_pmf(args.community_sizes), thetas[0]
    )
    config = SimConfig(depth=args.depth, replicates=args.replicates, seed=args.seed)
    simulated = survival_by_threshold(base, thetas, config)

    print(f"model: p={args.memberships}  q={args.community_sizes}")
    print(f"simulated survival to depth {args.depth}, {args.replicates} replicates")
    print(f"{'theta':>10} {'rho':>10} {'verdict':>20} {'survival':>10}")
    for theta, freq in zip(thetas, simulated):
        params = base.with_threshold(theta)
        rho = mean_matrix(params).rho  # solved once; the verdict reads the same root
        verdict = cascade_verdict(params)
        print(f"{float(theta):>10.4f} {rho:>10.4f} {verdict.kind.value:>20} {freq:>10.4f}")


if __name__ == "__main__":
    main()
