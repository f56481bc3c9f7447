"""Tests of the benchmark itself: ladder generation, the gate and the tracer.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ladder  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from commgraph import cli  # noqa: E402
from commgraph.classify import classify_group  # noqa: E402
from commgraph.corpus import load_group_file  # noqa: E402
from commgraph.graph import build_graph  # noqa: E402

ALL_RUNGS = ladder.ANALYZE_RUNGS + ladder.GRAPH_RUNGS
SMALL = {"s3wrc2", "s4xs3", "agaml1_9", "gl2_3", "agaml1_9_mat"}


def _write_all(seed, directory):
    return (ladder.write_rungs(ladder.ANALYZE_RUNGS, seed, directory / "a")
            + ladder.write_rungs(ladder.GRAPH_RUNGS, seed, directory / "g"))


def test_same_seed_gives_byte_identical_files(tmp_path):
    first = _write_all(7, tmp_path / "one")
    second = _write_all(7, tmp_path / "two")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]


def test_seeds_change_labels_but_not_invariants(tmp_path):
    one = _write_all(1, tmp_path / "one")
    two = _write_all(2, tmp_path / "two")
    perm_pairs = [(a, b) for a, b in zip(one, two) if b'"permutation"' in a.read_bytes()]
    assert perm_pairs and all(a.read_bytes() != b.read_bytes() for a, b in perm_pairs)
    for rung, a, b in zip(ALL_RUNGS, one, two):
        if rung.verdict:
            for path in (a, b):
                assert classify_group(load_group_file(path)).to_json() == rung.verdict
        if rung.graph:
            for path in (a, b):
                report = build_graph(load_group_file(path).materialize()).to_json()
                assert workloads.graph_invariants(report) == rung.graph


def test_permutation_and_matrix_agaml1_9_agree(tmp_path):
    paths = _write_all(3, tmp_path)
    by_name = {p.stem: p for p in paths}
    for name in ("agaml1_9", "agaml1_9_mat"):
        report = build_graph(load_group_file(by_name[name]).materialize()).to_json()
        assert workloads.graph_invariants(report) == ladder.AGAML1_9_GRAPH


def _element_bfs(elements):
    """Diameter and component count of the commuting graph, element by element."""
    central = {g for g in elements if all(g * h == h * g for h in elements)}
    vertices = [g for g in elements if g not in central]
    adj = {v: [w for w in vertices if w != v and v * w == w * v] for v in vertices}
    diameter, seen, components = 0, set(), 0
    for v in vertices:
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if v not in seen:
            components += 1
            seen |= set(dist)
        diameter = max(diameter, max(dist.values()))
    return (diameter if components == 1 else None), components


@pytest.mark.parametrize("rung", [r for r in ALL_RUNGS if r.name in SMALL],
                         ids=lambda r: r.name)
def test_small_rung_diameters_match_element_bfs(tmp_path, rung):
    (path,) = ladder.write_rungs([rung], 5, tmp_path)
    diameter, components = _element_bfs(load_group_file(path).materialize().elements)
    want = rung.graph or rung.verdict
    assert (diameter, components) == (want["diameter"], want["components"])


def _cli_output(tmp_path, args):
    out = tmp_path / "out.json"
    code = cli.main([*args, "--out", str(out)])
    return code, out


def test_gate_rejects_a_wrong_verdict(tmp_path):
    rung = ladder.ANALYZE_RUNGS[0]
    (path,) = ladder.write_rungs([rung], 1, tmp_path)
    files = [str(path)]
    code, out = _cli_output(tmp_path, ["analyze", *files])
    assert workloads.analyze_check(files, [rung.verdict])(code, out) == []
    wrong = dict(rung.verdict, kernel_order=rung.verdict["kernel_order"] + 1)
    assert workloads.analyze_check(files, [wrong])(code, out)
    assert workloads.analyze_check(files, [rung.verdict])(1, out)


def test_gate_rejects_wrong_graph_invariants(tmp_path):
    rung = next(r for r in ladder.GRAPH_RUNGS if r.name == "gl2_3")
    (path,) = ladder.write_rungs([rung], 1, tmp_path)
    code, out = _cli_output(tmp_path, ["graph-export", str(path)])
    assert workloads.graph_check(str(path), rung.graph)(code, out) == []
    wrong = dict(rung.graph, edges=rung.graph["edges"] + 1)
    assert workloads.graph_check(str(path), wrong)(code, out)


def test_gate_rejects_a_changed_paper_report(tmp_path):
    recorded = workloads.EXPECTED / "paper_verify.json"
    assert workloads.check_paper_verify(0, recorded) == []
    changed = tmp_path / "report.json"
    changed.write_text(recorded.read_text().replace('"pass"', '"fail"', 1))
    assert workloads.check_paper_verify(0, changed)
    assert workloads.check_paper_verify(4, recorded)


def test_gate_rejects_wrong_search_triples(tmp_path):
    out = tmp_path / "triples.json"
    triples = [{"q": q, "r": r, "t": t} for q, r, t in workloads.SEARCH_TRIPLES]
    out.write_text(json.dumps({"q_max": 43, "triples": triples}))
    assert workloads.check_search_params(0, out) == []
    out.write_text(json.dumps({"q_max": 43, "triples": triples[:-1]}))
    assert workloads.check_search_params(0, out)


def test_tracer_patches_every_namespace_and_restores(tmp_path):
    import commgraph.classify as classify_mod
    import commgraph.groups as groups_mod

    original = groups_mod.is_soluble
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert classify_mod.is_soluble is groups_mod.is_soluble is not original
        code = cli.main(["analyze", str(ROOT / "src/commgraph/data/sym4.json"),
                         "--out", str(tmp_path / "out.json")])
    finally:
        tracer.remove()
    assert code == 0
    assert classify_mod.is_soluble is groups_mod.is_soluble is original
    res = spans.analyse(tracer.spans)
    assert ("cli.main", "classify.classify_group", "groups.is_soluble") in res["tree"]
    assert res["calls"]["groups.fitting_subgroup"] == 3
    assert tracer.product_counts()["groups.perm_products"] > 0


def test_self_time_subtracts_overlapping_children():
    tree = [
        spans.Span(0, "a", 0.0, 10.0, None, None),
        spans.Span(1, "b", 1.0, 4.0, 0, None),
        spans.Span(2, "b", 3.0, 6.0, 0, None),
    ]
    res = spans.analyse(tree)
    assert res["self"]["a"] == pytest.approx(5.0)
    assert res["inclusive"]["b"] == pytest.approx(6.0)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "graph_ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()


def test_analyze_chunks_name_every_rung_once():
    names = [n for chunk in workloads.ANALYZE_CHUNKS for n in chunk]
    assert sorted(names) == sorted(r.name for r in ladder.ANALYZE_RUNGS)
    work = BENCH / ".work" / "test-chunks"  # the CLI gets paths relative to the root
    try:
        invocations, files = workloads.analyze_ladder(1, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert len(files) == len(set(files)) == 26 + len(ladder.ANALYZE_RUNGS)
    assert len(invocations) == 2 * len(workloads.ANALYZE_CHUNKS)
