"""Tier-1's reach over ``src/textchar``, and its mutation check; stdlib and
pytest only, and pytest does not collect this file. From the repository root:

    PYTHONPATH=src python tests/mutants.py
    PYTHONPATH=src python tests/mutants.py textchar.io [function] [-v]

The first runs Tier-1 once under a line tracer, and exits 1 on a statement
that no test runs, apart from the blocks in ``UNREACHED``. The second
mutates the module (``textchar``: every module), or one function of it, one
statement at a time on a temporary copy of ``src/``, and reports each
module's mutants, kills and survivors, and each test that alone kills some
mutant; README "Tests and demos" explains the report.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "textchar"
# Plain asserts: rewriting would recompile the hypothesis plugin in every
# run when bytecode is not written.
PYTEST_OPTIONS = ["-q", "-p", "no:cacheprovider", "--assert=plain", "--hypothesis-profile=ci"]
# Imported once before the test runs fork; numpy's OpenBLAS stops its
# threads around a fork (pthread_atfork), so each forked run starts clean.
WARM_IMPORTS = ("numpy", "scipy.stats", "hypothesis.strategies")

# Blocks that no Tier-1 test runs, by file and the text of their first
# statement, with the reason.
UNREACHED = {
    ("cli.py", "sys.exit(main())"):
        "runs only as a script; CI runs the console script",
    ("analysis.py", "from .io import LabeledEmbeddings"):
        "runs only for a type checker",
    ("metrics.py", "chains[f] = 'a point has zero total edge weight; distances are "
                   "below the floating-point range'"):
        "the zero-strength skip; ROADMAP item 3 decides whether a test or a "
        "deletion settles it",
}

_FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
          ast.Is: ast.IsNot, ast.IsNot: ast.Is}


class Statement:
    """A statement, its lines (a compound one's decorators and header only),
    its function's qualified name, and whether it runs at import."""

    def __init__(self, node: ast.stmt, qualname: str, at_import: bool):
        self.node, self.qualname, self.at_import = node, qualname or "<module>", at_import
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        self.lines = set(range(first, max(node.lineno, last) + 1))


def statements(tree: ast.Module) -> list[tuple[Statement, list]]:
    """Every statement but a docstring or ``try:``, with the body it is in."""
    found = []

    def visit(body: list, qualname: str, at_import: bool) -> None:
        for node in body:
            docstring = (node is body[0] and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if not docstring and not isinstance(node, ast.Try):
                found.append((Statement(node, qualname, at_import), body))
            inner = qualname
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{qualname}.{node.name}" if qualname else node.name
                at_import_inside = at_import and isinstance(node, ast.ClassDef)
            else:
                at_import_inside = at_import
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner, at_import_inside)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner, at_import_inside)

    visit(tree.body, "", True)
    return found


class Reach:
    """pytest plugin: each test's time and failure and, traced, the ``(file,
    line)`` pairs of ``src/`` that it runs (``<import>``: outside any test)."""

    def __init__(self):
        self.prefix = str(PACKAGE) + os.sep
        self.lines: dict[str, set] = {"<import>": set()}
        self.times: dict[str, float] = {}
        self.failed: list[str] = []
        self.hits = self.lines["<import>"]

    def trace(self, frame, event, arg):
        return self.local if frame.f_code.co_filename.startswith(self.prefix) else None

    def local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.hits = self.lines.setdefault(item.nodeid, set())
        yield
        self.hits = self.lines["<import>"]

    def pytest_runtest_logreport(self, report):
        self.times[report.nodeid] = self.times.get(report.nodeid, 0.0) + report.duration
        if report.failed:
            self.failed.append(report.nodeid)

    def run(self, src: Path = SRC, args=("tests",), trace: bool = True) -> int:
        sys.path.insert(0, str(src))
        sys.settrace(self.trace if trace else None)
        try:
            return pytest.main([*PYTEST_OPTIONS, *args], plugins=[self])
        finally:
            sys.settrace(None)


def check_reach() -> int:
    """Tier-1 under the tracer, then every block of statements no test runs."""
    reach = Reach()
    if reach.run() != 0:
        print("mutants.py: Tier-1 fails under the tracer")
        return 1
    hit = {pair for lines in reach.lines.values() for pair in lines}
    expected, unexpected = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        blocks: dict[int, list[Statement]] = {}
        for stmt, body in statements(ast.parse(path.read_text(encoding="utf-8"))):
            if not any((str(path), line) in hit for line in stmt.lines):
                blocks.setdefault(id(body), []).append(stmt)
        for first, *rest in blocks.values():
            text = ast.unparse(first.node).splitlines()[0]
            reason = UNREACHED.get((path.name, text))
            entry = (f"  {path.relative_to(ROOT)}:{first.node.lineno} {first.qualname}: "
                     f"{text} [{1 + len(rest)} statement{'s' * bool(rest)}]")
            (expected if reason else unexpected).append(entry + f" -- {reason}" * bool(reason))
    print(f"{len(expected)} blocks run in no test, as expected:", *expected, sep="\n")
    if unexpected:
        print(f"{len(unexpected)} blocks run in no test; test them or delete them:",
              *unexpected, sep="\n")
    return 1 if unexpected else 0


class Mutant:
    def __init__(self, stmt: Statement, operator: str, node: ast.AST, text: str):
        self.stmt, self.node, self.text = stmt, node, text
        before = ast.unparse(node).splitlines()[0]
        self.label = f"{stmt.qualname}: {operator}: {before} -> {text.splitlines()[0]}"


def mutants(stmt: Statement) -> list[Mutant]:
    """The mutants of a statement, in source order: a negated condition (of
    an ``if``, ``while``, conditional expression or comprehension filter), a
    flipped comparison (``_FLIPS``), a ``raise`` made ``pass``, an integer
    constant plus one. Nothing inside an f-string is mutated."""
    node = stmt.node
    found = []
    if isinstance(node, ast.Raise):
        found.append(Mutant(stmt, "drop raise", node, "pass"))
    if isinstance(node, (ast.If, ast.While)):
        found.append(Mutant(stmt, "negate", node.test, f"not ({ast.unparse(node.test)})"))
    # The expressions of the statement itself, outside f-strings.
    stack = [child for child in ast.iter_child_nodes(node) if not isinstance(child, ast.stmt)]
    while stack:
        expr = stack.pop()
        if isinstance(expr, ast.JoinedStr):
            continue
        stack.extend(ast.iter_child_nodes(expr))
        tests = ([expr.test] if isinstance(expr, ast.IfExp)
                 else expr.ifs if isinstance(expr, ast.comprehension) else [])
        for test in tests:
            found.append(Mutant(stmt, "negate", test, f"(not ({ast.unparse(test)}))"))
        if isinstance(expr, ast.Compare):
            for i, op in enumerate(expr.ops):
                ops = [_FLIPS[type(op)]() if j == i else other for j, other in enumerate(expr.ops)]
                flipped = ast.Compare(expr.left, ops, expr.comparators)
                found.append(Mutant(stmt, "flip", expr, f"({ast.unparse(flipped)})"))
        if type(expr) is ast.Constant and type(expr.value) is int:
            found.append(Mutant(stmt, "add one", expr, str(expr.value + 1)))
    return sorted(found, key=lambda m: (m.node.lineno, m.node.col_offset))


def splice(source: str, node: ast.AST, text: str) -> str:
    """``source`` with ``node``'s span replaced by ``text``; the offsets of
    ``ast`` count UTF-8 bytes."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    head = b"".join(lines[:node.lineno - 1]) + lines[node.lineno - 1][:node.col_offset]
    tail = lines[node.end_lineno - 1][node.end_col_offset:] + b"".join(lines[node.end_lineno:])
    return (head + text.encode("utf-8") + tail).decode("utf-8")


def _in_child(work, limit: int = 0):
    """``work()`` in a forked process that writes nothing to the terminal,
    its result passed back as JSON; ``"<died>"`` if the process died first,
    of ``limit`` seconds (0: none) or otherwise."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os.dup2(1, 2)
        signal.alarm(limit)
        try:
            with os.fdopen(write, "w") as out:
                json.dump([work()], out)
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as inp:
        data = inp.read()
    os.waitpid(pid, 0)
    return json.loads(data)[0] if data else "<died>"


def _first_failure(copy: Path, tests: list[str], limit: int) -> str | None:
    """The first of ``tests`` to fail on the source copy, or None."""
    def work():
        reach = Reach()
        code = reach.run(copy, ["-x", *tests], trace=False)
        return reach.failed[0] if reach.failed else (
            None if code == 0 else f"<pytest exit {int(code)}>")

    return _in_child(work, limit) if tests else None


def _source(name: str) -> str:
    return (PACKAGE / f"{name}.py").read_text(encoding="utf-8")


def mutate(module: str, function: str | None, verbose: bool) -> int:
    """Each mutant runs the tests whose traced run reaches its statement (all
    that reach the module, for a statement run at import), cheapest first,
    up to the first failure; a killed mutant runs once more without its
    killer. Runs use hypothesis' derandomized ``ci`` profile, with no example
    database. A run that outlives its time limit, or dies, is a kill."""
    names = ([path.stem for path in sorted(PACKAGE.glob("*.py"))] if module == "textchar"
             else [module.removeprefix("textchar.")])
    if not all((PACKAGE / f"{name}.py").exists() for name in names):
        sys.exit(f"mutants.py: no module {module}")
    chosen = {name: [mutant for stmt, _ in statements(ast.parse(_source(name)))
                     if function in (None, stmt.qualname)
                     or stmt.qualname.startswith(f"{function}.")
                     for mutant in mutants(stmt)] for name in names}
    if not any(chosen.values()):
        sys.exit(f"mutants.py: no mutant in {module} {function or ''}")
    for name in WARM_IMPORTS:
        importlib.import_module(name)

    def traced():
        reach = Reach()
        return reach.run(), {test: sorted(lines) for test, lines in reach.lines.items()
                             if test != "<import>"}, reach.times

    code, lines, times = _in_child(traced)
    if code != 0:
        sys.exit("mutants.py: Tier-1 fails under the tracer")
    tests_at: dict[tuple[str, int], set] = {}
    for test, pairs in lines.items():
        for file, line in pairs:
            tests_at.setdefault((file, line), set()).add(test)
    unique: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="textchar-mutants-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for name in names:
            path, target = PACKAGE / f"{name}.py", copy / "textchar" / f"{name}.py"
            source = _source(name)
            module_tests = {test for (file, _), tests in tests_at.items() if file == str(path)
                            for test in tests}
            started, survivors = time.perf_counter(), []
            for mutant in chosen[name]:
                tests = module_tests if mutant.stmt.at_import else set().union(
                    *(tests_at.get((str(path), line), ()) for line in mutant.stmt.lines))
                tests = sorted(tests, key=lambda test: (times.get(test, 0.0), test))
                cost = sum(times.get(test, 0.0) for test in tests)
                limit = int(30 + 5 * cost)
                target.write_text(splice(source, mutant.node, mutant.text), encoding="utf-8")
                killer = _first_failure(copy, tests, limit)
                alone = killer in tests and _first_failure(
                    copy, [test for test in tests if test != killer], limit) is None
                if killer is None:
                    survivors.append(f"  survived {path.name}:{mutant.node.lineno} "
                                     f"{mutant.label} ({len(tests)} tests, {cost:.2f} s)")
                if alone:
                    unique[killer] = unique.get(killer, 0) + 1
                if verbose:
                    verdict = f"killed by {killer}" + " alone" * alone if killer else "survived"
                    print(f"  {path.name}:{mutant.node.lineno} {mutant.label}: {verdict}",
                          flush=True)
            target.write_text(source, encoding="utf-8")
            count = len(chosen[name])
            print(f"textchar.{name}{':' + function if function else ''}: {count} "
                  f"mutants, {count - len(survivors)} killed, {len(survivors)} "
                  f"survived ({time.perf_counter() - started:.1f} s)", *survivors,
                  sep="\n", flush=True)
    print("tests that alone kill some mutant (kills, traced time):")
    for test, count in sorted(unique.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {test}  {count}  {times.get(test, 0.0):.2f} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", nargs="?", help="textchar.<module>, or textchar for all")
    parser.add_argument("function", nargs="?", help="a function of it, or Class.method")
    parser.add_argument("-v", "--verbose", action="store_true", help="list every mutant")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # nothing written under src/
    return check_reach() if args.module is None else mutate(args.module, args.function,
                                                            args.verbose)


if __name__ == "__main__":
    sys.exit(main())
