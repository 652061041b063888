"""List the package statements that no CLI command or sampler check runs.

Under sys.settrace, runs every compare_cli.py command, then
depth1_active_counts, branching_root_counts, histogram_match and
survival_by_threshold, on each model until one refuses it with a typed
error, and prints module:line: statement for each statement in a package
function that nothing ran (docstrings skipped, and a decorator's own
statements, which the package's import runs before tracing starts).

Example:
    PYTHONPATH=src python3 scripts/unreached.py
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import cliquecascade
from cliquecascade import CascadeError, SimConfig, Threshold, cli, survival_by_threshold
from cliquecascade.verification import branching_root_counts, depth1_active_counts, histogram_match

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare_cli  # noqa: E402

PACKAGE = Path(cliquecascade.__file__).parent
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef)


def decorators() -> set[str]:
    """Names of the functions that decorate a module-level function of the package."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    functions = [fn for tree in trees for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    return {d.id for fn in functions for d in fn.decorator_list if isinstance(d, ast.Name)}


def statements(path: Path, at_import: set[str]) -> dict[int, str]:
    """First line -> its text, for each statement inside a function; at_import names the decorators."""
    source = path.read_text(encoding="utf-8")
    lines, tree = source.splitlines(), ast.parse(source)
    skipped = {id(n.body[0]) for n in ast.walk(tree) if isinstance(n, SCOPES) and ast.get_docstring(n)}
    # a decorator's own statements run at import; the function it returns runs later
    imported = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in at_import]
    skipped |= {id(n) for fn in imported for n in fn.body}
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    nodes = [n for fn in functions for n in ast.walk(fn) if isinstance(n, ast.stmt) and n is not fn]
    return {n.lineno: lines[n.lineno - 1].strip() for n in nodes if id(n) not in skipped}


def exercise(models: dict, config_dir: Path) -> None:
    """Run the commands, then the sampler checks, of the compare_cli models named in models."""
    for label, argv in compare_cli.write_configs(config_dir):
        if label.split()[0] in models:
            cli.main(argv)
    for name in models:
        params = cli.load_model(str(config_dir / f"{name}.json"))
        with contextlib.suppress(CascadeError):  # a forest past the budget is refused
            graph = depth1_active_counts(params, 300, 1)
            histogram_match(graph, branching_root_counts(params, 300, 2))
            survival_by_threshold(params, [Threshold(1, 10), params.threshold], SimConfig(2, 300, 3))


def unreached(models: dict) -> list[str]:
    """Unrun statements as module:line: text; package caches are cleared first."""
    for module in [m for name, m in sys.modules.items() if name.startswith("cliquecascade.")]:
        for obj in vars(module).values():
            getattr(obj, "cache_clear", lambda: None)()
    hits, prefix, quiet, previous = set(), str(PACKAGE), io.StringIO(), sys.gettrace()

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return trace

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(quiet):
        sys.settrace(trace)
        try:
            with contextlib.redirect_stderr(quiet):
                exercise(models, Path(tmp))
        finally:
            sys.settrace(previous)
    at_import = decorators()
    return [
        f"{path.stem}:{line}: {text}" for path in sorted(PACKAGE.glob("*.py"))
        for line, text in sorted(statements(path, at_import).items()) if (str(path), line) not in hits
    ]


if __name__ == "__main__":
    print("\n".join(unreached(compare_cli.MODELS)))
