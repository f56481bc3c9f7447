import json

import jsonschema
import pytest
from importlib import resources

from commgraph import diameter8
from commgraph.cli import (
    EXIT_CAP,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE,
    main,
)


def schema(name):
    return json.loads((resources.files("commgraph") / "schemas" / name).read_text())


def data_path(name):
    return str(resources.files("commgraph") / "data" / f"{name}.json")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_sym4(capsys):
    code, out, _ = run(["analyze", data_path("sym4")], capsys)
    assert code == EXIT_OK
    rows = json.loads(out)
    jsonschema.validate(rows, schema("analyze_report.schema.json"))
    (row,) = rows
    assert row["kind"] == "TwoFrobenius"
    assert row["K_order"] == 4 and row["L_order"] == 12


def test_analyze_abelian(tmp_path, capsys):
    path = tmp_path / "c6.json"
    path.write_text(json.dumps({
        "type": "permutation", "degree": 6,
        "generators": [[1, 2, 3, 4, 5, 0]],
    }))
    code, out, _ = run(["analyze", str(path)], capsys)
    assert code == EXIT_OK
    (row,) = json.loads(out)
    assert row["kind"] == "HasCentre"


def test_analyze_connected(capsys):
    code, out, _ = run(["analyze", data_path("s3xs3")], capsys)
    assert code == EXIT_OK
    (row,) = json.loads(out)
    assert row["kind"] == "ConnectedDiameter" and row["diameter"] == 3


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(["analyze", str(bad)], capsys)
    assert code == EXIT_PARSE
    assert "error" in err
    rows = json.loads(out)
    jsonschema.validate(rows, schema("analyze_report.schema.json"))
    assert rows[0]["error_kind"] == "parse"


def test_analyze_cap_exceeded(capsys):
    code, out, err = run(["analyze", data_path("sym4"), "--cap", "10"], capsys)
    assert code == EXIT_CAP
    rows = json.loads(out)
    assert rows[0]["error_kind"] == "cap"


def test_cap_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COMMGRAPH_CAP", "10")
    code, _, _ = run(["analyze", data_path("sym4")], capsys)
    assert code == EXIT_CAP
    monkeypatch.setenv("COMMGRAPH_CAP", "1000")
    code, _, _ = run(["analyze", data_path("sym4")], capsys)
    assert code == EXIT_OK


def test_cap_env_var_rejects_non_integer(capsys, monkeypatch):
    monkeypatch.setenv("COMMGRAPH_CAP", "lots")
    code, out, err = run(["analyze", data_path("sym4")], capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "error: COMMGRAPH_CAP must be an integer, got 'lots'\n"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_analyze_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(["analyze", data_path("sym4"), "--jobs", jobs], capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_analyze_multiple_files_jobs_preserve_order(capsys):
    files = [data_path("sym3"), data_path("alt4"), data_path("s3xs3")]
    code, out, _ = run(["analyze", *files, "--jobs", "3"], capsys)
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["file"] for r in rows] == files


def test_analyze_csv(capsys):
    code, out, _ = run(["analyze", data_path("sym4"), data_path("sym3"), "--format", "csv"], capsys)
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "file,kind,order,kernel_order,K_order,L_order,diameter,components"
    assert lines[1].endswith("TwoFrobenius,24,,4,12,,")
    assert lines[2].endswith("Frobenius,6,3,,,,")


def test_analyze_deterministic_bytes(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["analyze", data_path("sym4"), "--out", str(out1)]) == EXIT_OK
    assert main(["analyze", data_path("sym4"), "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_paper_verify_default(capsys):
    code, out, _ = run(["paper-verify"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, schema("paper_verify_report.schema.json"))
    assert report["group_order"] == "54173193341944394740910525"
    assert all(c["status"] == "pass" for c in report["checks"])


def test_paper_verify_rejects_r3(capsys):
    code, out, err = run(["paper-verify", "--q", "11", "--r", "3", "--t", "7"], capsys)
    assert code == EXIT_CHECK_FAILED
    assert "params" in err
    report = json.loads(out)
    assert report["checks"][0]["status"] == "fail"


def test_paper_verify_rejects_q13_r5(capsys):
    code, _, err = run(["paper-verify", "--q", "13", "--r", "5", "--t", "7"], capsys)
    assert code == EXIT_CHECK_FAILED
    assert "params" in err


def _raise_type_error(*args):
    raise TypeError("boom")


@pytest.mark.parametrize(
    "target, replacement, name, status, detail",
    [
        ("verify_f_class3", _raise_type_error, "f_class3", "error", "TypeError: boom"),
        ("verify_symplectic", lambda eg: False, "symplectic", "fail", "symplectic: A J A^T != J"),
        ("build_example", _raise_type_error, "build", "error", "TypeError: boom"),
    ],
)
def test_paper_verify_separates_error_from_fail(
    monkeypatch, capsys, example_group, target, replacement, name, status, detail
):
    monkeypatch.setattr(diameter8, "build_example", lambda params: example_group)
    monkeypatch.setattr(diameter8, target, replacement)
    code, out, err = run(["paper-verify"], capsys)
    assert code == EXIT_CHECK_FAILED
    verb = "raised" if status == "error" else "failed"
    assert err == f"check {verb}: {name}\n"
    report = json.loads(out)
    jsonschema.validate(report, schema("paper_verify_report.schema.json"))
    (check,) = [c for c in report["checks"] if c["status"] != "pass"]
    assert (check["name"], check["status"], check["detail"]) == (name, status, detail)


def test_search_params_q11(capsys):
    code, out, _ = run(["search-params", "--q-max", "11"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, schema("search_params.schema.json"))
    assert report["triples"] == [{"q": 11, "r": 5, "t": 3221}]


def test_search_params_q7_empty(capsys):
    code, out, _ = run(["search-params", "--q-max", "7"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["triples"] == []


def test_search_params_csv(capsys):
    code, out, _ = run(["search-params", "--q-max", "11", "--format", "csv"], capsys)
    assert code == EXIT_OK
    assert out == "q,r,t\n11,5,3221\n"


def test_graph_export_sym3(capsys):
    code, out, _ = run(["graph-export", data_path("sym3")], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, schema("graph_export.schema.json"))
    assert payload["components"] == 4
    assert payload["diameter"] is None
    assert payload["edges"] == []


def test_graph_export_matrix_group(capsys):
    code, out, _ = run(["graph-export", data_path("q8")], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, schema("graph_export.schema.json"))
    assert payload["components"] == 3


def test_graph_export_all_central_group(tmp_path, capsys):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({
        "type": "permutation", "degree": 3, "generators": [[1, 2, 0]],
    }))
    code, out, err = run(["graph-export", str(path)], capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: {path}: every element is central\n"


def test_analyze_whole_corpus_never_emits_sentinel(capsys):
    import time

    from commgraph.corpus import list_corpus

    files = [data_path(name) for name in list_corpus()]
    t0 = time.monotonic()
    code, out, _ = run(["analyze", *files, "--jobs", "4"], capsys)
    elapsed = time.monotonic() - t0
    assert code == EXIT_OK
    assert elapsed < 60
    rows = json.loads(out)
    jsonschema.validate(rows, schema("analyze_report.schema.json"))
    assert all(r["kind"] != "DisconnectedOther" for r in rows)
