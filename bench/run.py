"""Benchmark entry point: one workload, one seed, one measuring window.

    python3 bench/run.py --workload census_deep --seed 1 --seconds 30 --trace 0

Each workload is one client in a closed loop: a fixed batch of ops run
back to back, in one process and one thread.  Every batch runs in a fresh
interpreter (bench/worker.py), so no batch is served from a package cache
an earlier batch filled.  Batch b of seed s always gets the same inputs.

With ``--trace 0`` the run repeats, until ``--seconds`` have passed (and
at least MIN_BATCHES times): SETUP_PROBES interpreters that only set up,
then one untraced batch.  It prints the end-to-end metrics as medians over
batches, and for ``setup_s`` over every interpreter.  With ``--trace 1`` it runs pairs of batches with the same inputs,
one untraced and one traced, and prints the per-layer metrics as medians
over the traced batches, plus ``tracing_overhead_s``, the median traced
wall time minus the median untraced one.  The two batches of a pair must
write byte-identical reports, or all their ops count as failed.

The last stdout line is the result object; the line before it holds the
per-batch samples, problem sizes and the environment.  Exit status is
non-zero, with no result printed, if the package cannot be imported from
this checkout or a batch process fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 1  # set-up-only interpreters per batch
MIN_BATCHES = 3
MIN_PAIRS = 2
TIME_LIMIT_S = 170.0


class BatchFailed(RuntimeError):
    pass


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline

    def batch(self, mode: str, batch: int) -> dict:
        result_path = self.workdir / f"result-{mode}-{batch}.json"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BatchFailed("time limit reached")
        t0 = time.monotonic()
        proc = subprocess.run(
            [
                sys.executable, str(BENCH / "worker.py"),
                "--workload", self.workload,
                "--seed", str(self.seed),
                "--batch", str(batch),
                "--mode", mode,
                "--t0", repr(t0),
                "--workdir", str(self.workdir),
                "--result", str(result_path),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
        if proc.returncode != 0:
            raise BatchFailed(
                f"{mode} batch {batch} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        batch_dir = self.workdir / f"{mode}-{batch}"
        if mode == "trace":
            # spans of the last traced run of each workload and seed stay for inspection
            traces = self.workdir.parent / "traces"
            traces.mkdir(exist_ok=True)
            shutil.copyfile(
                batch_dir / "trace.json",
                traces / f"{self.workload}-seed{self.seed}-batch{batch}.json",
            )
        shutil.rmtree(batch_dir, ignore_errors=True)
        return result


def measure(runner: Runner, seconds: float) -> tuple[dict, dict, list[dict]]:
    started = time.monotonic()
    probes, batches = [], []
    while len(batches) < MIN_BATCHES or time.monotonic() - started < seconds:
        # interleaved, so that slow drifts in machine speed hit every metric alike
        probes += [runner.batch("setup", 0) for _ in range(SETUP_PROBES)]
        batches.append(runner.batch("run", len(batches)))
    setups = [r["setup_s"] for r in probes + batches]
    metrics = {
        "wall_s": statistics.median([b["wall_s"] for b in batches]),
        "units_per_s": statistics.median([b["units_ok"] / b["wall_s"] for b in batches]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([b["peak_rss_mb"] for b in batches]),
        "pass_rate": sum(b["attempted"] - b["failed"] for b in batches)
        / sum(b["attempted"] for b in batches),
    }
    samples = {
        "wall_s": [b["wall_s"] for b in batches],
        "setup_s": setups,
        "peak_rss_mb": [b["peak_rss_mb"] for b in batches],
    }
    return metrics, samples, batches


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict, list[dict]]:
    started = time.monotonic()
    plain, traced = [], []
    while len(traced) < MIN_PAIRS or time.monotonic() - started < seconds:
        plain.append(runner.batch("run", len(traced)))
        traced.append(runner.batch("trace", len(traced)))
        if traced[-1]["out_digest"] != plain[-1]["out_digest"]:
            traced[-1]["failed"] = traced[-1]["attempted"]
            traced[-1]["problems"]["all ops"] = ["traced reports differ from untraced ones"]
    metrics = {
        name: statistics.median([t["layers"][name] for t in traced])
        for name in traced[0]["layers"]
    }
    metrics["tracing_overhead_s"] = statistics.median(
        [t["wall_s"] for t in traced]
    ) - statistics.median([p["wall_s"] for p in plain])
    samples = {
        "wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [t["wall_s"] for t in traced],
    }
    return metrics, samples, plain + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    # on SIGTERM, subprocess.run kills and reaps the running batch as SystemExit unwinds
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "cliquecascade" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, workdir, deadline)
    try:
        # compiles bytecode and warms the file cache; not measured
        runner.batch("setup", 0)
        if args.trace:
            metrics, samples, batches = measure_traced(runner, args.seconds)
        else:
            metrics, samples, batches = measure(runner, args.seconds)
    except (BatchFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = {}
    for i, b in enumerate(batches):
        for op, text in b["problems"].items():
            problems[f"batch{i}:{op}"] = text
    if problems:
        print(json.dumps({"problems": problems}), file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "batches": len(batches),
        "samples": samples,
        "sizes": batches[0]["sizes"],
        "env": batches[0]["env"],
    }
    print(json.dumps(detail, sort_keys=True))
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print(f"error: measured {sorted(metrics)}, declared {sorted(units)}", file=sys.stderr)
        return 1
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
