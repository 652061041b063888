"""End-to-end gate: eight checks covering every layer at fixed tolerances.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and fails
honestly if its bound is missed.
"""

import json
import time

import numpy as np
import pytest

from cliquecascade import (
    SimConfig,
    Threshold,
    VerdictKind,
    brute_force_clique_law,
    cascade_verdict,
    child_count_pmf,
    cli,
    clique_cascade_size,
    clique_pgf,
    clustering_coefficient,
    estimate,
    extinction_probability,
    mean_active_of_type,
    mean_matrix,
    root_degree_pmf,
    survival_by_threshold,
)
from cliquecascade.verification import (
    _pgf_points,
    branching_root_counts,
    depth1_active_counts,
    histogram_match,
    iter_enumerated_outcomes,
    mean_active_by_type_oracle,
)

from conftest import law_pgf, model, standard_model_suite

THETAS = [Threshold(1, 10), Threshold(3, 10), Threshold(2, 5), Threshold(49, 100)]


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")


def suite_with_all_thetas():
    for base in standard_model_suite():
        for theta in THETAS:
            yield base.with_threshold(theta)


def test_1_clique_law_oracle_suite():
    bound = 1e-9
    started = time.monotonic()
    worst = 0.0
    sizes_exact = True
    for params in suite_with_all_thetas():
        points = _pgf_points(len(child_count_pmf(params).support))
        for w in params.community_sizes.support:
            brute = brute_force_clique_law(params, w)
            for s in points:
                worst = max(worst, abs(clique_pgf(params, w, s) - law_pgf(params, brute, s)))
            for xs, _, outcome in iter_enumerated_outcomes(params, w):
                direct = clique_cascade_size(params.threshold, w, tuple(sorted(xs)))
                if direct != outcome.ell:
                    sizes_exact = False
    elapsed = time.monotonic() - started
    ok = worst <= bound and sizes_exact and elapsed < 60.0
    report(1, "clique law vs round-based oracle", ok)
    assert worst <= bound
    assert sizes_exact
    assert elapsed < 60.0


def test_2_mean_count_agreement():
    worst = 0.0
    for params in suite_with_all_thetas():
        xp = child_count_pmf(params)
        for w in params.community_sizes.support:
            for x in xp.support:
                closed = mean_active_of_type(params, x, w)
                brute = mean_active_by_type_oracle(brute_force_clique_law(params, w)).get(x, 0.0)
                worst = max(worst, abs(closed - brute))
    ok = worst <= 1e-9
    report(2, "per-type mean counts vs enumeration", ok)
    assert worst <= 1e-9


def test_3_golden_values():
    triangle = model({3: 1.0}, {3: 1.0}, "1/10")
    checks = []
    checks.append(abs(clustering_coefficient(triangle).value - 0.2) <= 1e-12)
    checks.append(child_count_pmf(triangle).items == ((4, 1.0),))

    matrix = mean_matrix(triangle)
    nonzero = {
        (i, j): v
        for i, row in enumerate(matrix.entries)
        for j, v in enumerate(row)
        if v != 0.0
    }
    checks.append(set(nonzero) == {(4, 4)} and abs(nonzero[4, 4] - 4.0) <= 1e-9)
    checks.append(abs(matrix.rho - 4.0) <= 1e-10)
    checks.append(cascade_verdict(triangle).kind is VerdictKind.CASCADE_POSSIBLE)

    blocked = triangle.with_threshold("3/10")
    checks.append(np.all(mean_matrix(blocked).entries == 0.0))
    checks.append(cascade_verdict(blocked).kind is VerdictKind.FINITE_ALMOST_SURELY)

    mixture = model({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10")
    ext = extinction_probability(mixture)
    checks.append(abs(ext.fixed_point - 1 / 3) <= 1e-12)
    checks.append(abs(ext.extinction - 5 / 27) <= 1e-12)

    two_triangles = model({2: 1.0}, {3: 1.0}, "1/10")
    checks.append(root_degree_pmf(two_triangles).items == ((4, 1.0),))

    ok = all(checks)
    report(3, "hand-derived golden values", ok)
    assert all(checks), checks


def test_4_verdict_rules():
    random_models = standard_model_suite()[10:]
    assert len(random_models) == 10
    rule_half = all(
        cascade_verdict(m.with_threshold(theta)).kind is VerdictKind.FINITE_ALMOST_SURELY
        for m in random_models
        for theta in (Threshold.from_string("0.5"), Threshold.from_string("0.6"))
    )
    path = model({2: 1.0}, {2: 1.0}, "0.4")
    degenerate = cascade_verdict(path).kind is VerdictKind.CASCADE_ALMOST_SURE
    representation = all(
        cascade_verdict(m.with_threshold(Threshold(3, 10)))
        == cascade_verdict(m.with_threshold(Threshold(30, 100)))
        for m in standard_model_suite()
    )
    ok = rule_half and degenerate and representation
    report(4, "verdict rule coverage", ok)
    assert rule_half
    assert degenerate
    assert representation


def test_5_monotonicity():
    rho_monotone = True
    for params in standard_model_suite()[10:]:
        rhos = [
            mean_matrix(params.with_threshold(Threshold(j, 104))).rho
            for j in range(1, 52)
        ]
        if not all(a >= b - 1e-12 for a, b in zip(rhos, rhos[1:])):
            rho_monotone = False
    config = SimConfig(depth=3, replicates=2000, seed=77)
    base = model({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}, "1/10")
    freqs = survival_by_threshold(
        base, [Threshold(j, 20) for j in (1, 3, 5, 7, 9)], config
    )
    survival_monotone = all(a >= b for a, b in zip(freqs, freqs[1:]))
    ok = rho_monotone and survival_monotone
    report(5, "threshold monotonicity", ok)
    assert rho_monotone
    assert survival_monotone


def test_6_monte_carlo_vs_analytic():
    started = time.monotonic()
    triangle = model({3: 1.0}, {3: 1.0}, "1/10")
    survives = estimate(triangle, SimConfig(depth=5, replicates=100, seed=7))
    blocked = estimate(
        triangle.with_threshold("3/10"), SimConfig(depth=5, replicates=100, seed=7)
    )
    mixture = model({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10")
    alive = estimate(mixture, SimConfig(depth=30, replicates=10_000, seed=13))
    elapsed = time.monotonic() - started
    ok = (
        survives.survival_frequency == 1.0
        and blocked.survival_frequency == 0.0
        and abs(alive.graph_alive_frequency - 22 / 27) <= 0.02
        and elapsed < 60.0
    )
    report(6, "simulation matches analytic survival", ok)
    assert survives.survival_frequency == 1.0
    assert blocked.survival_frequency == 0.0
    assert alive.graph_alive_frequency == pytest.approx(22 / 27, abs=0.02)
    assert elapsed < 60.0


def test_7_coupling_graph_vs_branching():
    models = [
        model({3: 1.0}, {3: 1.0}, "1/10"),
        model({2: 1.0}, {2: 1.0}, "2/5"),
        model({1: 0.5, 3: 0.5}, {2: 1.0}, "1/10"),
        model({2: 0.5, 4: 0.5}, {2: 0.5, 3: 0.5}, "3/10"),
        model({3: 1.0}, {2: 0.3, 4: 0.7}, "1/4"),
    ]
    replicates = 100_000
    all_ok = True
    worst_overall = 0.0
    for i, params in enumerate(models):
        graph_hist = depth1_active_counts(params, replicates, seed=1000 + i)
        process_hist = branching_root_counts(params, replicates, seed=2000 + i)
        ok, worst = histogram_match(graph_hist, process_hist, sigmas=3.0)
        worst_overall = max(worst_overall, worst)
        all_ok = all_ok and ok
    report(7, "depth-1 graph law equals process root step", all_ok)
    assert all_ok, f"worst z-score {worst_overall:.2f}"


def test_8_cli_determinism(tmp_path):
    config_path = tmp_path / "model.json"
    config_path.write_text(
        json.dumps(
            {
                "memberships": [[3, 1.0]],
                "community_sizes": [[3, 1.0]],
                "threshold": "0.1",
            }
        ),
        encoding="utf-8",
    )
    outputs = []
    # 600 replicates span three random-stream blocks
    for attempt in ("a", "b"):
        out = tmp_path / f"run_{attempt}.json"
        code = cli.main(
            [
                "simulate",
                "--config", str(config_path),
                "--depth", "4",
                "--replicates", "600",
                "--seed", "99",
                "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = len(set(outputs)) == 1
    report(8, "byte-identical reports across runs", ok)
    assert ok
