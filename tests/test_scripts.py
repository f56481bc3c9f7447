"""Smoke tests of the read-only scripts, each run as its own process."""

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
