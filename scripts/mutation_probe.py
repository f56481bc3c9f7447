#!/usr/bin/env python3
"""A seeded mutation probe: do the tests notice a one-token change?

Each mutant changes one node of one function in a copy of `src/` under a
temporary directory: a comparison flipped (== and !=, < and >=, > and <=,
is and is not, in and not in), an arithmetic operator swapped (+ and -,
* and /, // to *, % to //, ** to *), or an integer constant 0, 1 or 2
changed (0 to 1, 1 to 0, 2 to 1).  The repository's `src/` is never
written.  For each mutant pytest runs `tests/` on the copy with -x,
acceptance criteria 4f and 4i deselected (they fail on the unmutated
code), and a timeout of TIMEOUT seconds.  The table lists each mutant with
its result: killed (with the first failing test), survived, or timeout.

The sites are listed in source order, and the sample is drawn from them
with the seed, so the same seed, sample size and targets give the same
mutants; with the same tests the table is the same.

Usage:
  python scripts/mutation_probe.py TARGET ... [--seed N] [--sample K]

A target is a module of the package (`diameter8`), a class in it
(`diameter8.GElement`, every method) or a function or method
(`diameter8.witness_path8`, `diameter8._NormalForm.act`).
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = "commgraph"
TIMEOUT = 300  # seconds per mutant; all of tests/ runs in about a minute
DESELECTED = (
    "tests/test_acceptance.py::test_criterion_4f_cfc_order",
    "tests/test_acceptance.py::test_criterion_4i_centralizer_c_order",
)

COMPARE_FLIPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
BINOP_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
}
CONSTANT_CHANGES = {0: 1, 1: 0, 2: 1}
SYMBOLS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.Add: "+",
    ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
}


def _target_nodes(tree: ast.Module, path: list[str]) -> list:
    """The function nodes a target names inside one module's tree."""
    if not path:
        return [tree]
    scope = tree.body
    for depth, name in enumerate(path):
        found = [n for n in scope
                 if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
        if not found:
            raise SystemExit(f"error: no {'.'.join(path[:depth + 1])} in the module")
        scope = found[0].body
    return found


def _sites(tree: ast.Module, path: list[str]) -> list:
    """(node index in ast.walk order, operator index, (line, first and
    last column), description) of every mutable node under the target, in
    source order; docstrings hold no int."""
    nodes = list(ast.walk(tree))
    index = {id(n): i for i, n in enumerate(nodes)}
    seen, out = set(), []
    for top in _target_nodes(tree, path):
        for node in ast.walk(top):
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, ast.Compare):
                changes = [(k, f"{SYMBOLS[type(op)]} -> {SYMBOLS[COMPARE_FLIPS[type(op)]]}")
                           for k, op in enumerate(node.ops)]
            elif isinstance(node, ast.BinOp) and type(node.op) in BINOP_SWAPS:
                op = type(node.op)
                changes = [(0, f"{SYMBOLS[op]} -> {SYMBOLS[BINOP_SWAPS[op]]}")]
            elif (isinstance(node, ast.Constant) and type(node.value) is int
                  and node.value in CONSTANT_CHANGES):
                changes = [(0, f"{node.value} -> {CONSTANT_CHANGES[node.value]}")]
            else:
                continue
            where = (node.lineno, node.col_offset, node.end_col_offset)
            out += [(index[id(node)], k, where, text) for k, text in changes]
    return sorted(out, key=lambda site: (site[2], site[0], site[1]))


def _mutated_source(text: str, site) -> str:
    """The module's source with one site changed, by ast.unparse."""
    tree = ast.parse(text)
    node = list(ast.walk(tree))[site[0]]
    if isinstance(node, ast.Compare):
        node.ops[site[1]] = COMPARE_FLIPS[type(node.ops[site[1]])]()
    elif isinstance(node, ast.BinOp):
        node.op = BINOP_SWAPS[type(node.op)]()
    else:
        node.value = CONSTANT_CHANGES[node.value]
    return ast.unparse(tree) + "\n"


def _run_tests(copy_src: Path) -> tuple[str, str]:
    """("killed", first failing test), ("survived", "") or ("timeout", "")."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-rfE", "tests"]
    for test in DESELECTED:
        cmd += ["--deselect", test]
    env = dict(os.environ, PYTHONPATH=str(copy_src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", ""
    if proc.returncode == 0:
        return "survived", ""
    failed = [line.split(" ", 1)[1].partition(" - ")[0]
              for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0] if failed else f"pytest exit {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="module, class or function names")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=10, help="mutants to draw")
    args = parser.parse_args(argv)

    sites = []
    for target in args.targets:
        module, *path = target.split(".")
        text = (SRC / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        sites += [(module, target, site) for site in _sites(ast.parse(text), path)]
    if not sites:
        raise SystemExit("error: the targets hold no mutable node")
    sample = min(args.sample, len(sites))
    chosen = sorted(random.Random(args.seed).sample(range(len(sites)), sample))

    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy_src = Path(tmp) / "src"
        shutil.copytree(SRC, copy_src, ignore=shutil.ignore_patterns("__pycache__"))
        rows = []
        for n, k in enumerate(chosen, 1):
            module, target, site = sites[k]
            path = copy_src / PACKAGE / f"{module}.py"
            original = path.read_text(encoding="utf-8")
            path.write_text(_mutated_source(original, site), encoding="utf-8")
            try:
                result, killer = _run_tests(copy_src)
            finally:
                path.write_text(original, encoding="utf-8")
            where = "{}.py:{}:{}-{}".format(module, *site[2])
            rows.append((n, where, target, site[3], result, killer))
            print(*rows[-1], sep="\t", file=sys.stderr, flush=True)

    header = ("#", "where", "target", "mutation", "result", "first failing test")
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    results = [row[4] for row in rows]
    counts = {result: results.count(result) for result in ("killed", "survived", "timeout")}
    print(f"{len(rows)} mutants of {len(sites)} sites (seed {args.seed}): "
          + ", ".join(f"{n} {result}" for result, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
