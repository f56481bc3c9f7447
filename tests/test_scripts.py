"""Smoke tests of the read-only scripts, each run as its own process."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def test_corpus_survey_json():
    done = run_script("corpus_survey.py", "--json")
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    assert len(rows) == 26
    connected = [(row["name"], row["diameter"]) for row in rows if row["components"] == 1]
    assert connected == [("s3xs3", 3)]


def test_witness_family_report_base_triple():
    done = run_script("witness_family_report.py", "--q-max", "11")
    assert done.returncode == 0, done.stderr
    assert "  11   5            3221  54173193341944394740910525\n" in done.stdout
    assert done.stdout.endswith("  => all checks passed\n")


def test_mutation_probe_kills_a_known_mutant_outside_src():
    # one mutant of SubgroupHandle.is_trivial (== 1 made == 0 at seed 0):
    # no centre is then trivial, so the first acceptance test, which needs
    # eight soluble groups with a trivial centre, kills it at once; the
    # probe mutates a copy, so no file under src/ changes
    def digest():
        return {p: hashlib.sha256(p.read_bytes()).hexdigest() for p in (ROOT / "src").rglob("*.py")}

    before = digest()
    done = run_script(
        "mutation_probe.py", "groups.SubgroupHandle.is_trivial", "--seed", "0", "--sample", "1")
    assert done.returncode == 0, done.stderr
    header, row, summary = done.stdout.splitlines()
    n, where, *rest = row.split()
    assert n == "1" and where.startswith("groups.py:")
    assert rest == ["groups.SubgroupHandle.is_trivial", "1", "->", "0", "killed",
                    "tests/test_acceptance.py::test_criterion_1_dichotomy_suite"]
    assert summary == "1 mutants of 2 sites (seed 0): 1 killed, 0 survived, 0 timeout"
    assert digest() == before
