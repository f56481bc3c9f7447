"""The benchmark's three workloads and the correctness gate on their outputs.

A workload is a list of CLI invocations.  Each invocation names the
end-to-end metrics its wall time adds to and a check that turns its exit
code and output file into a list of problems; an empty list means correct.

- ``witness_family``: ``paper-verify`` at (11, 5, 3221) then
  ``search-params --q-max 43`` (three times a round).  Loads ``fields`` and ``diameter8``;
  ``groups``, ``classify`` and ``graph`` do no work.  The paper fixes the
  triple, so the seed has no effect.
- ``analyze_ladder``: ``analyze --jobs 1`` over the 26 bundled corpus files
  and the 8 seeded ladder groups, then the same files with ``--jobs 2``,
  each pass as three invocations (ANALYZE_CHUNKS).
  Loads ``groups`` (mostly ``is_soluble``), ``classify`` and ``graph``;
  ``fields`` and ``diameter8`` do no work.
- ``graph_ladder``: one ``graph-export`` per seeded graph rung.  Loads
  ``graph.build_graph``, and ``fields`` through ``MatrixAutElement`` for the
  two matrix groups; ``classify`` and ``diameter8`` are unused.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import ladder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = ROOT / "src" / "commgraph" / "data"
EXPECTED = BENCH / "expected"

PAPER_TRIPLE = (11, 5, 3221)  # paper-verify's default
SEARCH_Q_MAX = 43
SEARCH_TRIPLES = [
    (11, 5, 3221), (23, 11, 3937230404603), (29, 7, 88009573),
    (31, 5, 11), (41, 5, 579281), (43, 7, 5839),
]


@dataclass
class Invocation:
    """One CLI run: arguments (without ``--out``), metrics it feeds, output check.

    ``repeat`` is how many times a round of the workload runs it; a short
    command is repeated so that a run holds enough samples of it.
    """

    args: list
    metrics: tuple
    check: object     # (exit code, output path) -> list of problems
    repeat: int = 1


# ---------------------------------------------------------------------------
# checks


def _read_json(out: Path):
    return json.loads(out.read_text(encoding="utf-8"))


def check_paper_verify(code, out):
    q, r, t = PAPER_TRIPLE
    if code != 0:
        return [f"paper-verify exit {code}"]
    problems = []
    if out.read_bytes() != (EXPECTED / "paper_verify.json").read_bytes():
        problems.append("paper-verify report differs from the recorded report")
    report = _read_json(out)
    failing = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    if failing:
        problems.append(f"paper-verify checks not passing: {failing}")
    if report["group_order"] != str(q ** (4 * r) * r * r * t):
        problems.append(f"group_order {report['group_order']} != q^(4r) r^2 t")
    return problems


def check_search_params(code, out):
    if code != 0:
        return [f"search-params exit {code}"]
    got = [(d["q"], d["r"], d["t"]) for d in _read_json(out)["triples"]]
    return [] if got == SEARCH_TRIPLES else [f"search-params triples {got}"]


def analyze_check(files, expected_rows):
    """Rows must come back in input order and match the expected verdicts."""

    def check(code, out):
        if code != 0:
            return [f"analyze exit {code}"]
        rows = _read_json(out)
        if [row.get("file") for row in rows] != files:
            return ["analyze rows are not in input order"]
        problems = []
        for row, want in zip(rows, expected_rows):
            got = {k: v for k, v in row.items() if k != "file"}
            if got != want:
                problems.append(f"{row['file']}: got {got}, expected {want}")
        return problems

    return check


def graph_invariants(report: dict) -> dict:
    """The label-invariant part of a graph-export report."""
    return {
        "class_sizes": dict(Counter(c["size"] for c in report["classes"])),
        "edges": len(report["edges"]),
        "diameter": report["diameter"],
        "components": report["components"],
    }


def graph_check(path, expected):
    def check(code, out):
        if code != 0:
            return [f"graph-export {path} exit {code}"]
        got = graph_invariants(_read_json(out))
        return [] if got == expected else [f"{path}: got {got}, expected {expected}"]

    return check


# ---------------------------------------------------------------------------
# workloads


def _rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def witness_family(seed, work):
    del seed, work  # the paper fixes the triple
    invocations = [
        Invocation(["paper-verify"], ("wall_s",), check_paper_verify),
        Invocation(["search-params", "--q-max", str(SEARCH_Q_MAX)],
                   ("secondary_s",), check_search_params, repeat=3),
    ]
    return invocations, []


# The 34 analyze files in three invocations of about equal work (the corpus
# goes with the first).  The machine's speed drifts within a run, so timing
# each pass as three commands at different moments steadies the run's value.
ANALYZE_CHUNKS = (
    ("agl1_19",),
    ("c2e4_c5c4", "s3wrc2"),
    ("agl1_13", "agaml1_8", "s4xs3", "agaml1_9", "s3cubed"),
)


def analyze_ladder(seed, work):
    expected_corpus = _read_json(EXPECTED / "corpus_analyze.json")
    corpus = sorted(CORPUS.glob("*.json"))
    rungs = dict(zip((r.name for r in ladder.ANALYZE_RUNGS),
                     ladder.write_rungs(ladder.ANALYZE_RUNGS, seed, work / "analyze")))
    verdicts = {r.name: r.verdict for r in ladder.ANALYZE_RUNGS}
    invocations, all_files = [], []
    for k, names in enumerate(ANALYZE_CHUNKS):
        paths = (corpus if k == 0 else []) + [rungs[n] for n in names]
        files = [_rel(p) for p in paths]
        expected = [expected_corpus.get(p.stem) for p in paths if p.parent == CORPUS]
        expected += [verdicts[n] for n in names]
        check = analyze_check(files, expected)
        invocations += [
            Invocation(["analyze", "--jobs", "1", *files], ("wall_s",), check),
            Invocation(["analyze", "--jobs", "2", *files], ("secondary_s",), check),
        ]
        all_files += files
    return invocations, all_files


def graph_ladder(seed, work):
    paths = ladder.write_rungs(ladder.GRAPH_RUNGS, seed, work / "graph")
    invocations = []
    for rung, path in zip(ladder.GRAPH_RUNGS, paths):
        # secondary_s isolates the matrix backend, whose field arithmetic runs
        # through MatrixAutElement rather than the log table
        is_matrix = _read_json(path)["type"] == "matrix"
        metrics = ("wall_s", "secondary_s") if is_matrix else ("wall_s",)
        invocations.append(
            Invocation(["graph-export", _rel(path)], metrics, graph_check(_rel(path), rung.graph))
        )
    return invocations, [_rel(p) for p in paths]


WORKLOADS = {
    "witness_family": witness_family,
    "analyze_ladder": analyze_ladder,
    "graph_ladder": graph_ladder,
}
