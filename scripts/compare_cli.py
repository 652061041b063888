"""Check that two source trees give byte-identical CLI output.

Runs analyze, sweep, simulate and verify on a fixed set of models, once with
each tree alone on PYTHONPATH, and compares the stdout, the stderr and the
exit code of every command.  Each tree runs in one fresh interpreter that
calls cli.main once per command; an exception that escapes cli.main is
recorded as exit code 1 plus its last traceback line.  Prints one line per
difference and exits 1 if there is any, 0 if the trees agree.

Example:
    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 scripts/compare_cli.py /tmp/parent/src src
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GRID = "1/20,1/10,1/5,1/4,3/10,7/20,2/5,9/20,1/2"
SIMULATE = ["--depth", "6", "--replicates", "600", "--seed", "3"]


def uniform(values) -> list:
    return [[v, 1.0 / len(values)] for v in values]


# name: (memberships, community sizes, threshold).  p23-q23 is the one model
# whose simulate draws from a configuration table with several rows (a type-2
# vertex has one size-3 or two size-2 further communities); the wide models
# have such tables but die out too soon.
MODELS = {
    "census-deep": ([[1, 0.5], [3, 0.5]], [[2, 1.0]], "1/10"),
    "mixture": ([[2, 0.5], [4, 0.5]], [[2, 0.5], [3, 0.5]], "3/10"),
    "wide": (uniform([2, 3, 4]), uniform(range(2, 8)), "1/3"),
    "near-critical": ([[1, 0.75 - 1e-4], [3, 0.25 + 1e-4]], [[2, 1.0]], "1/10"),
    "qmax-20": (uniform([2, 3, 4]), uniform(range(2, 21)), "1/5"),
    "triangle": ([[3, 1.0]], [[3, 1.0]], "1/10"),
    "all-2s-path": ([[2, 1.0]], [[2, 1.0]], "2/5"),
    "p23-q25": ([[2, 0.5], [3, 0.5]], [[2, 0.5], [5, 0.5]], "1/4"),
    "p13-q23": ([[1, 0.5], [3, 0.5]], [[2, 0.5], [3, 0.5]], "1/5"),
    "p3-q24": ([[3, 1.0]], [[2, 0.3], [4, 0.7]], "1/4"),
    "p23-q23": ([[2, 0.5], [3, 0.5]], [[2, 0.5], [3, 0.5]], "1/5"),
}

RUNNER = """
import contextlib, io, json, sys, traceback
import cliquecascade
from cliquecascade import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            err.write(traceback.format_exception_only(type(exc), exc)[-1])
            code = 1
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"package": cliquecascade.__file__, "results": results}))
"""


def commands(config_dir: Path) -> list[tuple[str, list[str]]]:
    out = []
    for name in MODELS:
        config = ["--config", str(config_dir / f"{name}.json")]
        out.append((f"{name} analyze", ["analyze"] + config))
        out.append((f"{name} sweep", ["sweep", "--grid", GRID] + config))
        out.append((f"{name} simulate", ["simulate"] + SIMULATE + config))
        out.append((f"{name} verify", ["verify"] + config))
    return out


def run_tree(src: Path, argvs: list[list[str]], cwd: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(argvs)],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    if proc.returncode != 0:
        sys.exit(f"the runner failed under {src}:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    if not Path(report["package"]).resolve().is_relative_to(src):
        sys.exit(f"{src} does not hold the package; it was imported from {report['package']}")
    return report["results"]


def first_difference(a: str, b: str) -> str:
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"first differs at character {at} ({a[at:at + 40]!r} vs {b[at:at + 40]!r})"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path, help="source directory holding the cliquecascade package")
    ap.add_argument("new_src", type=Path, help="the other source directory")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        config_dir = Path(tmp)
        for name, (p, q, theta) in MODELS.items():
            payload = {"memberships": p, "community_sizes": q, "threshold": theta}
            (config_dir / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
        named = commands(config_dir)
        argvs = [argv for _, argv in named]
        old = run_tree(args.old_src.resolve(), argvs, config_dir)
        new = run_tree(args.new_src.resolve(), argvs, config_dir)
    differ = 0
    for (label, _), (old_code, *old_text), (new_code, *new_text) in zip(named, old, new):
        lines = []
        if old_code != new_code:
            lines.append(f"{label}: exit code {old_code} vs {new_code}")
        for stream, a, b in zip(("stdout", "stderr"), old_text, new_text):
            if a != b:
                lines.append(f"{label}: {stream} {first_difference(a, b)}")
        for line in lines:
            print(line)
        differ += bool(lines)
    print(f"{len(named)} commands compared, {differ} differ")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
