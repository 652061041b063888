"""Check that two source trees give byte-identical CLI output.

Runs analyze, sweep, simulate and verify on a fixed set of models, once with
each tree alone on PYTHONPATH, and compares the stdout, the stderr and the
exit code of every command.  Each model's analyze also runs once with --out;
the file it writes is appended to that command's stdout.  Each tree runs in
one fresh interpreter that calls cli.main once per command; an exception
that escapes cli.main is recorded as exit code 1 plus its last traceback
line.  Prints one line per difference and exits 1 if there is any, 0 if the
trees agree.

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


# name: (memberships, community sizes, threshold).  p23-q23 and p247-q234
# are the models whose simulate draws from a configuration table with several
# rows (in p23-q23 a type-2 vertex has one size-3 or two size-2 further
# communities; p247-q234 has 13 such types and 36 rows, and survives); the
# wide models have such tables but die out too soon.  subcritical is the one
# model whose extinction probability is 1 without iterating.  No model
# reaches the gcd reduction in Threshold: the CLI parses thresholds through
# Fraction, which has already reduced them.  p61-underflow is the one model whose child-count
# law drops its top types (their masses underflow), so its dense mean matrix
# (121 rows) reaches past the support's largest type, 116.  deeply-subcritical
# has one 10-type component with rho about 3.4e-9, far below its row sums
# (about 1.8), and underflowed-size a community size whose size-biased mass
# underflows to zero, so the root's spread holds a 0.0, and subnormal-size one
# whose size-biased mass, 2e-310 / 5, is subnormal, and with it type 1's mass
# in the mean matrix.  one-community is the one model where no individual has
# a further community: every non-root vertex is of type 0, and the mean
# matrix composes no other communities.  tiny-type has types 2 and 6 of
# masses 5e-201 and 1.5e-200, so its block holds entries of 1e-200 and 3e-200
# and its rho is 1e-199.  subnormal-root has a subnormal rho, about 8.9e-322,
# which the Perron solve reaches only by lifting its component by 2^1066.
# no-reach has 12 memberships over sizes 2..20 at 1/10: every type is at least
# 11, no walk activates one, and simulate prices and lists no configuration
# row, where a price over every size counted C(29, 11) = 34,597,290.
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
    "p247-q234": ([[2, 0.3], [4, 0.4], [7, 0.3]], [[2, 0.3], [3, 0.3], [4, 0.4]], "1/12"),
    "subcritical": ([[1, 0.9], [2, 0.1]], [[2, 1.0]], "1/10"),
    "p61-underflow": ([[61, 1.0]], [[2, 1.0 - 1e-6], [3, 1e-6]], "1/100"),
    "deeply-subcritical": ([[3, 0.5], [7, 0.5]], [[2, 2e-17], [5, 1.0]], "1/10"),
    "underflowed-size": ([[3, 1.0]], [[2, 5e-324], [3, 0.5], [400, 0.5]], "1/5"),
    "subnormal-size": ([[2, 1.0]], [[2, 1e-310], [5, 1.0]], "1/10"),
    "one-community": ([[1, 1.0]], [[3, 1.0]], "1/10"),
    "tiny-type": ([[1, 1.0], [2, 1e-200]], [[3, 0.4375], [7, 0.5625]], "1/10"),
    "subnormal-root": (
        [[1, 1.0], [7, 5e-324]],
        [[5, 0.05263157894736842], [6, 0.47368421052631576], [7, 1e-300], [9, 0.47368421052631576]],
        "1/20",
    ),
    "no-reach": ([[12, 1.0]], uniform(range(2, 21)), "1/10"),
}

RUNNER = """
import contextlib, io, json, os, sys, traceback
import cliquecascade
from cliquecascade import cli
results = []
for argv in json.loads(sys.argv[1]):
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if path and os.path.exists(path):
        os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            err.write(traceback.format_exception_only(type(exc), exc)[-1])
            code = 1
    if path and os.path.exists(path):
        with open(path, "rb") as fh:
            out.write(fh.read().decode("utf-8"))
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"package": cliquecascade.__file__, "results": results}))
"""


def write_configs(config_dir: Path) -> list[tuple[str, list[str]]]:
    """Write each model's config into config_dir; returns the labelled commands."""
    for name, (p, q, theta) in MODELS.items():
        payload = {"memberships": p, "community_sizes": q, "threshold": theta}
        (config_dir / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
    return commands(config_dir)


def commands(config_dir: Path) -> list[tuple[str, list[str]]]:
    out = []
    for name in MODELS:
        config = ["--config", str(config_dir / f"{name}.json")]
        out.append((f"{name} analyze", ["analyze"] + config))
        out_file = ["--out", str(config_dir / f"{name}.out")]
        out.append((f"{name} analyze --out", ["analyze"] + config + out_file))
        out.append((f"{name} sweep", ["sweep", "--grid", GRID] + config))
        out.append((f"{name} simulate", ["simulate"] + SIMULATE + config))
        out.append((f"{name} verify", ["verify"] + config))
    return out


def run_tree(src: Path, named: list, cwd: Path) -> list:
    """[exit code, stdout, stderr] of each command, run by one fresh interpreter on src."""
    src = src.resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    argvs = [argv for _, argv in named]
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


def compare(named: list, old: list, new: list) -> list[str]:
    """One line per difference, then the count of commands that differ."""
    lines, differ = [], 0
    for (label, _), (old_code, *old_text), (new_code, *new_text) in zip(named, old, new):
        found = []
        if old_code != new_code:
            found.append(f"{label}: exit code {old_code} vs {new_code}")
        for stream, a, b in zip(("stdout", "stderr"), old_text, new_text):
            if a != b:
                found.append(f"{label}: {stream} {first_difference(a, b)}")
        lines += found
        differ += bool(found)
    return lines + [f"{len(named)} commands compared, {differ} differ"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path, help="source directory holding the cliquecascade package")
    ap.add_argument("new_src", type=Path, help="the other source directory")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        named = write_configs(Path(tmp))
        old = run_tree(args.old_src, named, Path(tmp))
        new = run_tree(args.new_src, named, Path(tmp))
    lines = compare(named, old, new)
    print("\n".join(lines))
    sys.exit(1 if len(lines) > 1 else 0)


if __name__ == "__main__":
    main()
