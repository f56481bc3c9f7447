import ast
import contextlib
import copy
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from importlib import resources

from extra_groups import LADDER

from commgraph import cli, diameter8
from commgraph.corpus import list_corpus
from commgraph.fields import FIELD_CAP, Poly
from commgraph.cli import (
    EXIT_CAP,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SENTINEL,
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


def test_cap_env_var_ignored_without_a_group(capsys, monkeypatch):
    # only analyze and graph-export materialize a group, so only they read it
    monkeypatch.setenv("COMMGRAPH_CAP", "lots")
    code, out, err = run(["paper-verify"], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["group_order"] == "54173193341944394740910525"
    code, out, err = run(["search-params", "--q-max", "11"], capsys)
    assert (code, err) == (EXIT_OK, "")
    with pytest.raises(SystemExit):
        main(["paper-verify", "--cap", "10"])


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_analyze_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(["analyze", data_path("sym4"), "--jobs", jobs], capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


SUBCOMMANDS = {
    "analyze": ["analyze", data_path("sym4")],
    "paper-verify": ["paper-verify"],
    "search-params": ["search-params", "--q-max", "43"],
    "graph-export": ["graph-export", data_path("sym4")],
}


def _no_work(*args, **kwargs):
    raise AssertionError("ran before --out was checked")


# an --out that names a directory, or lies in one that does not exist, is
# refused before any group loads or any check runs: exit 1, one error line
@pytest.mark.parametrize("where", ["directory", "missing parent"])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, where):
    from commgraph import corpus, params

    for module, name in [(corpus, "load_group_file"), (diameter8, "run_all_checks"),
                         (params, "find_params")]:
        monkeypatch.setattr(module, name, _no_work)
    if where == "directory":
        out, reason = tmp_path, "it is a directory"
    else:
        out, reason = tmp_path / "missing" / "x.json", f"no directory {tmp_path / 'missing'}"
    code, stdout, err = run([*SUBCOMMANDS[command], "--out", str(out)], capsys)
    assert (code, stdout) == (EXIT_PARSE, "")
    assert err == f"error: cannot write {out}: {reason}\n"


# any other write error is reported as one error line after the run, not as
# a traceback
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_write_error_on_out_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    import commgraph.cli as cli

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    out = tmp_path / "x.json"
    code, stdout, err = run([*SUBCOMMANDS[command], "--out", str(out)], capsys)
    assert (code, stdout) == (EXIT_PARSE, "")
    assert err == f"error: cannot write {out}: Permission denied\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "graph-export"])
@pytest.mark.parametrize("flag, env, named", [
    (["--cap", "0"], None, "--cap must be at least 1, got 0"),
    (["--cap", "-1"], None, "--cap must be at least 1, got -1"),
    ([], "0", "COMMGRAPH_CAP must be at least 1, got 0"),
    ([], "-5", "COMMGRAPH_CAP must be at least 1, got -5"),
])
def test_cap_below_one_is_a_usage_error(capsys, monkeypatch, command, flag, env, named):
    if env is not None:
        monkeypatch.setenv("COMMGRAPH_CAP", env)
    code, out, err = run([command, data_path("sym4"), *flag], capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: {named}\n"


@pytest.mark.parametrize("argv", [
    ["graph-export", "F", "--format", "csv"],
    ["paper-verify", "--cap", "10"],
    ["analyze"],
    ["no-such-command"],
])
def test_usage_errors_exit_1(capsys, argv):
    # argparse's own code 2 would read as "element cap exceeded"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage: commgraph") and "error: " in err


def test_analyze_multiple_files_jobs_preserve_order(capsys):
    files = [data_path("sym3"), data_path("alt4"), data_path("s3xs3")]
    code, out, _ = run(["analyze", *files, "--jobs", "3"], capsys)
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["file"] for r in rows] == files


def test_cli_import_leaves_thread_pool_unloaded(tmp_path):
    # analyze runs its files one after another for every --jobs, so neither
    # importing the CLI nor analyze --jobs 3 loads a pool or starts a thread;
    # q8 is the corpus's one matrix group, so the field layer runs too
    src = str(Path(diameter8.__file__).parents[1])
    files = [data_path("q8"), data_path("sym4"), data_path("q8")]
    probe = (
        "import sys\n"
        "from commgraph.cli import main\n"
        "pool = ('concurrent.futures', 'threading')\n"
        "print([name in sys.modules for name in pool])\n"
        f"files, out = {files!r}, {str(tmp_path / 'rows')!r}\n"
        "rows = []\n"
        "for jobs in ('3', '1'):\n"
        "    code = main(['analyze', *files, '--jobs', jobs, '--out', out])\n"
        "    rows.append(open(out, 'rb').read())\n"
        "print(code, [name in sys.modules for name in pool], rows[0] == rows[1])\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert (done.returncode, done.stdout) == (
        0, "[False, False]\n0 [False, False] True\n"
    ), done.stderr


def run_process(*argv, unbuffered=False, **kwargs):
    """python ARGV in a fresh interpreter with the package on PYTHONPATH, and
    PYTHONUNBUFFERED set only if asked; stdout and stderr stay bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(diameter8.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *argv], stderr=subprocess.PIPE, env=env,
                          timeout=60, **kwargs)


@pytest.mark.parametrize("argv", [
    ["search-params", "--q-max", "43"],
    ["paper-verify"],
    ["analyze", data_path("sym4"), data_path("s3xs3")],
    ["graph-export", data_path("sym4")],
    ["analyze", data_path("sym4"), "--cap", "0"],  # EXIT_PARSE
    ["analyze", data_path("sym4"), "--cap", "5"],  # EXIT_CAP
    ["paper-verify", "--t", "0"],  # EXIT_CHECK_FAILED
], ids=["search-params", "paper-verify", "analyze", "graph-export", "exit-1", "exit-2", "exit-4"])
def test_process_entry_writes_what_main_writes(capsys, argv):
    # `python -m commgraph.cli` ends with os._exit after flushing, and loses
    # no byte of stdout or stderr and no exit code against main() in-process
    code, out, err = run(argv, capsys)
    done = run_process("-m", "commgraph.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())


def test_process_entry_skips_teardown_only_after_main_returns():
    # an atexit handler runs only when the process ends through the normal
    # shutdown: after a usage error (argparse's SystemExit), not after a
    # command that returned
    probe = (
        "import atexit, sys\n"
        "atexit.register(lambda: print('teardown ran', file=sys.stderr))\n"
        "from commgraph import cli\n"
        "cli.run()\n"
    )
    done = run_process("-c", probe, "search-params", "--q-max", "11")
    assert (done.returncode, done.stderr) == (EXIT_OK, b""), done.stderr
    assert json.loads(done.stdout)["q_max"] == 11
    done = run_process("-c", probe, "search-params")
    assert done.returncode == EXIT_PARSE
    assert done.stderr.endswith(b"required: --q-max\nteardown ran\n"), done.stderr


def test_process_entry_without_standard_streams(tmp_path):
    # a descriptor closed at start-up leaves its stream None, as under
    # `commgraph ... --out PATH >&- 2>&-`; the report still goes to --out
    # and the exit code is main's
    out = tmp_path / "params.json"
    probe = "import sys\nsys.stdout = sys.stderr = None\nfrom commgraph import cli\ncli.run()\n"
    done = run_process("-c", probe, "search-params", "--q-max", "11", "--out", str(out))
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, b"", b"")
    assert json.loads(out.read_text())["q_max"] == 11


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_is_reported_as_by_a_normal_exit(unbuffered):
    # a report under stdout's 8 KiB buffer and one over it (the corpus three
    # times, 8526 bytes): buffered or not, the write or its flush fails, and
    # the process ends with one error line and exit 1, as for an --out that
    # cannot be written, with no traceback and no second report of the pipe
    corpus = [data_path(name) for name in list_corpus()] * 3
    for argv in (["search-params", "--q-max", "43"], ["analyze", *corpus]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_process("-m", "commgraph.cli", *argv,
                               unbuffered=unbuffered, stdout=write_end)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (
            EXIT_PARSE, b"error: cannot write stdout: Broken pipe\n"), (argv[0], done.stderr)


def test_main_reports_a_stdout_it_cannot_write_and_leaves_it(monkeypatch, capsys):
    # in-process, main turns the failed write into the error line and exit
    # 1; a stream without a descriptor is left as it is
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    stdout = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["search-params", "--q-max", "43"]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"
    assert sys.stdout is stdout


def test_installed_command_is_the_process_entry():
    # [project.scripts] names the function the __main__ block calls; read by
    # regex, since tomllib arrived only in Python 3.11
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    module, name = re.search(r'^commgraph\s*=\s*"([\w.]+):(\w+)"$', scripts.group(1), re.M).groups()
    installed = getattr(importlib.import_module(module), name)
    (block,) = [
        node for node in ast.parse(Path(cli.__file__).read_text()).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (call,) = block.body
    assert isinstance(call, ast.Expr) and not call.value.args
    assert installed is getattr(cli, call.value.func.id) is cli.run


def test_analyze_and_graph_export_load_neither_witness_family_nor_dataclasses(tmp_path):
    # a fresh interpreter without site, so only commgraph's own imports count.
    # Each report lists the commgraph modules that have run so far: a lazy
    # module stays the loader's placeholder until its first attribute access,
    # and primes and params are not imported at all until a loaded module
    # imports them.  Each group file gets its own interpreter.  graph-export
    # on a permutation group runs only the walk and the graph, leaving the
    # structure algorithms in groups, classify, the matrices, the field
    # layer, primes, diameter8 and params unloaded; analyze on it then loads
    # groups and classify (and the primes groups imports), but neither the
    # matrices nor the field layer.  graph-export on a matrix group file
    # (q8) runs matrices, fields and primes but still not groups or
    # classify, and analyze on it adds those two.  search-params
    # runs only params and primes, and paper-verify leaves the classifier,
    # graph, corpus, the walk and groups lazy, which commgraph.MatrixAutElement
    # does not load either.  No subcommand imports typing, importlib.resources
    # or dataclasses.
    src = str(Path(diameter8.__file__).parents[1])
    probe = (
        "import sys\n"
        "from commgraph.cli import main\n"
        "def report(*argvs):\n"
        "    codes = [main([*argv, '--out', out]) for argv in argvs]\n"
        "    loaded = sorted(name.rpartition('.')[2] for name, m in sys.modules.items()\n"
        "                    if name.startswith('commgraph.')\n"
        "                    and type(m).__name__ != '_LazyModule')\n"
        "    stdlib = ('dataclasses', 'typing', 'importlib.resources')\n"
        "    print(codes, loaded, [name in sys.modules for name in stdlib])\n"
        f"out, sym4, q8 = {str(tmp_path / 'out')!r}, {data_path('sym4')!r}, {data_path('q8')!r}\n"
        "if sys.argv[1] == 'permutation':\n"
        "    report(['graph-export', sym4])\n"
        "    report(['analyze', sym4])\n"
        "elif sys.argv[1] == 'matrix':\n"
        "    report(['graph-export', q8])\n"
        "    report(['analyze', q8])\n"
        "    print(open(out).read().replace(q8, 'q8'), end='')\n"
        "else:\n"
        "    report(['search-params', '--q-max', '11'])\n"
        "    report(['paper-verify'])\n"
        "    from commgraph import MatrixAutElement, ParamTriple, run_all_checks\n"
        "    import commgraph.diameter8\n"
        "    print(ParamTriple(11, 5, 3221).t, run_all_checks.__module__,\n"
        "          MatrixAutElement.__module__, type(sys.modules['commgraph.groups']).__name__,\n"
        "          commgraph.diameter8.find_params(11) == [ParamTriple(11, 5, 3221)])\n"
    )

    def run_probe(mode):
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe, mode], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        return done.returncode, done.stdout, done.stderr

    code, out, err = run_probe("permutation")
    assert (code, out) == (0, (
        "[0] ['cli', 'corpus', 'errors', 'graph', 'walk'] [False, False, False]\n"
        "[0] ['classify', 'cli', 'corpus', 'errors', 'graph', 'groups', 'primes', 'walk'] "
        "[False, False, False]\n"
    )), err
    code, out, err = run_probe("matrix")
    assert (code, out) == (0, (
        "[0] ['cli', 'corpus', 'errors', 'fields', 'graph', 'matrices', 'primes', 'walk'] "
        "[False, False, False]\n"
        "[0] ['classify', 'cli', 'corpus', 'errors', 'fields', 'graph', 'groups', 'matrices', "
        "'primes', 'walk'] [False, False, False]\n"
        '[\n  {\n    "file": "q8",\n    "kind": "HasCentre",\n    "order": 8\n  }\n]\n'
    )), err
    code, out, err = run_probe("witness")
    assert (code, out) == (0, (
        "[0] ['cli', 'errors', 'params', 'primes'] [False, False, False]\n"
        "[0] ['cli', 'diameter8', 'errors', 'fields', 'matrices', 'params', 'primes'] "
        "[False, False, False]\n"
        "3221 commgraph.diameter8 commgraph.matrices _LazyModule True\n"
    )), err


def test_tracer_round_trip_restores_every_namespace():
    # bench/spans.py rebinds each traced function in every commgraph module
    # that holds it, loading the lazy ones as it walks them; diameter8 is
    # registered first so that it binds the originals before the defining
    # modules are rebound, and remove() then leaves no wrapper behind.  It
    # counts matrix products through groups.MatrixAutElement, the class that
    # matrices defines: the 6 of paper-verify's check of D's action against
    # the twisted matrices, as test_diameter8's product budget pins, and 16
    # for graph-export of the matrix group q8.
    root = Path(__file__).resolve().parents[1]
    probe = (
        "import sys\n"
        "from commgraph.cli import main\n"
        "import spans\n"
        f"sym4, q8 = {data_path('sym4')!r}, {data_path('q8')!r}\n"
        "quiet = ['--out', __import__('os').devnull]\n"
        "main(['search-params', '--q-max', '11', *quiet])\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "try:\n"
        "    codes = [main(['search-params', '--q-max', '11', *quiet]),\n"
        "             main(['analyze', sym4, *quiet]), main(['paper-verify', *quiet]),\n"
        "             main(['graph-export', q8, *quiet])]\n"
        "finally:\n"
        "    tracer.remove()\n"
        "products = tracer.product_counts()['groups.matrix_products']\n"
        "names = {span.name for span in tracer.spans}\n"
        "modules = [m for n, m in list(sys.modules.items()) if n.startswith('commgraph')]\n"
        "owners = modules + [v for m in modules for v in vars(m).values()\n"
        "                    if isinstance(v, type) and v.__module__ == m.__name__]\n"
        "left = sorted(f'{getattr(o, \"__name__\", o)}.{attr}' for o in owners\n"
        "              for attr, v in vars(o).items()\n"
        "              if getattr(getattr(v, '__code__', None), 'co_filename', '') == spans.__file__)\n"
        "print(codes, 'diameter8.find_params' in names, 'fields.factorize' in names,\n"
        "      'diameter8.build_example' in names, products, left)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")])),
    )
    assert (done.returncode, done.stdout) == (0, "[0, 0, 0, 0] True True True 22 []\n"), done.stderr


def test_tracer_sees_the_public_frobenius_tests():
    # classify_group reaches its verdicts through is_frobenius(G) and
    # is_two_frobenius(G), so the traced run times both G-level tests.  S4 is
    # 2-Frobenius: is_frobenius runs on G and on G/K, F(G) is asked for twice
    # (the second answer kept on the handle) and F(G/K) once, G/K is the one
    # quotient, and gk_metacyclic is one is_metacyclic call.
    root = Path(__file__).resolve().parents[1]
    probe = (
        "import collections, os\n"
        "from commgraph.cli import main\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "try:\n"
        f"    code = main(['analyze', {data_path('sym4')!r}, '--out', os.devnull])\n"
        "finally:\n"
        "    tracer.remove()\n"
        "calls = collections.Counter(span.name for span in tracer.spans)\n"
        "print(code, [calls[name] for name in ('classify.is_frobenius',\n"
        "      'classify.is_two_frobenius', 'groups.fitting_subgroup',\n"
        "      'groups.quotient_group', 'groups.is_metacyclic')])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")])),
    )
    assert (done.returncode, done.stdout) == (0, "0 [2, 1, 3, 1, 1]\n"), done.stderr


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


def test_paper_verify_matches_expected_report(capsys):
    expected = Path(__file__).resolve().parents[1] / "bench" / "expected" / "paper_verify.json"
    code, out, _ = run(["paper-verify"], capsys)
    assert code == EXIT_OK
    assert out.encode() == expected.read_bytes()


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("report", sorted(p.name for p in GOLDEN.glob("paper_verify_*")))
def test_paper_verify_matches_golden_report(capsys, report):
    # one report per search-params --q-max 79 triple besides the default,
    # in JSON and CSV; a field GF(q^r) over the cap fails at build
    q, r, t = report[len("paper_verify_"):].partition(".")[0].split("_")
    fmt = report.rpartition(".")[2]
    code, out, err = run(["paper-verify", "--q", q, "--r", r, "--t", t, "--format", fmt], capsys)
    if int(q) ** int(r) > FIELD_CAP:
        assert (code, err) == (EXIT_CHECK_FAILED, "check failed: build\n")
    else:
        assert (code, err) == (EXIT_OK, "")
    assert out.encode() == (GOLDEN / report).read_bytes()


def test_golden_reports_cover_the_other_listed_triples():
    triples = {p.name.partition(".")[0] for p in GOLDEN.glob("paper_verify_*")}
    listed = {f"paper_verify_{p.q}_{p.r}_{p.t}" for p in diameter8.find_params(79)}
    assert triples == listed - {"paper_verify_11_5_3221"}
    assert len(triples) == 13
    assert len(list(GOLDEN.glob("paper_verify_*"))) == 2 * len(triples)


def test_analyze_corpus_matches_expected_verdicts(capsys):
    expected = Path(__file__).resolve().parents[1] / "bench" / "expected" / "corpus_analyze.json"
    verdicts = json.loads(expected.read_text())
    names = sorted(verdicts)
    code, out, _ = run(["analyze"] + [data_path(n) for n in names], capsys)
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [row.pop("file") for row in rows] == [data_path(n) for n in names]
    assert rows == [verdicts[n] for n in names]
    assert sorted(list_corpus()) == names


CORPUS_DIR = str(resources.files("commgraph") / "data")


def _gate_runs(rungs: Path) -> dict:
    """{golden stem: argv} of the analyze and graph-export golden gate: both
    formats of analyze over the corpus and over the seed-1 analyze rungs, and
    graph-export of each corpus file and each seed-1 graph rung, with the
    rungs written under `rungs`."""
    corpus_files = [data_path(n) for n in sorted(list_corpus())]
    analyze_rungs = [str(rungs / "analyze" / f"{r.name}.json") for r in LADDER.ANALYZE_RUNGS]
    runs = {}
    for fmt in ("json", "csv"):
        runs[f"analyze_corpus_{fmt}"] = ["analyze", *corpus_files, "--format", fmt]
        runs[f"analyze_ladder_{fmt}"] = ["analyze", *analyze_rungs, "--format", fmt]
    for path in corpus_files:
        runs[f"graph_export_corpus_{Path(path).stem}"] = ["graph-export", path]
    for r in LADDER.GRAPH_RUNGS:
        runs[f"graph_export_ladder_{r.name}"] = ["graph-export", str(rungs / "graph" / f"{r.name}.json")]
    return runs


def _gate_outputs(argv, rungs: Path) -> dict:
    """{golden suffix: bytes} of one run, with the corpus and rung directories
    replaced by placeholders: stdout under its format's suffix, and unless
    the run exits 0 with nothing on stderr, its exit code and stderr under
    .err."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    outputs = {".err": f"exit {code}\n{err.getvalue()}"} if code or err.getvalue() else {}
    if out.getvalue():
        outputs["." + (argv[-1] if argv[0] == "analyze" else "json")] = out.getvalue()
    return {
        suffix: text.replace(str(rungs), "<ladder>").replace(CORPUS_DIR, "<corpus>").encode()
        for suffix, text in outputs.items()
    }


@pytest.fixture(scope="module")
def rung_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("rungs")
    LADDER.write_rungs(LADDER.ANALYZE_RUNGS, 1, root / "analyze")
    LADDER.write_rungs(LADDER.GRAPH_RUNGS, 1, root / "graph")
    return root


@pytest.mark.parametrize("stem", sorted(_gate_runs(Path("rungs"))))
def test_analyze_and_graph_export_match_golden(rung_dir, stem):
    # recorded before the field layer stopped factoring q^r - 1; q8, gl2_3
    # and agaml1_9_mat are the inputs whose arithmetic runs through fields
    golden = {p.suffix: p.read_bytes() for p in GOLDEN.glob(f"{stem}.*")}
    assert golden
    assert _gate_outputs(_gate_runs(rung_dir)[stem], rung_dir) == golden


def test_golden_gate_has_no_stray_file():
    stems = set(_gate_runs(Path("rungs")))
    recorded = [*GOLDEN.glob("analyze_*"), *GOLDEN.glob("graph_export_*")]
    assert {p.name.partition(".")[0] for p in recorded} == stems


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


def test_paper_verify_rejects_t_without_forming_the_quotient(capsys):
    # (q^r-1)/(q-1) has 4858 digits here, past the int-to-str limit
    code, out, err = run(["paper-verify", "--q", "2819", "--r", "1409", "--t", "3"], capsys)
    assert (code, err) == (EXIT_CHECK_FAILED, "check failed: params\n")
    report = json.loads(out)
    jsonschema.validate(report, schema("paper_verify_report.schema.json"))
    assert report["checks"] == [
        {"name": "params", "status": "fail", "detail": "t=3 must divide (q^r-1)/(q-1)"}
    ]


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


def _altered_report(name, target, **fields):
    """A setup that patches diameter8's `name`(eg, w) to alter the fields of
    its report for w = target(eg) only."""
    def setup(monkeypatch, eg):
        real = getattr(diameter8, name)

        def altered(eg, w):
            report = real(eg, w)
            return report._replace(**fields) if w == target(eg) else report

        monkeypatch.setattr(diameter8, name, altered)
    return setup


def _xr_off_the_ground_field(monkeypatch, eg):
    # x^r = diag(X, X, X^-1, X^-1) matches the norms only under a wrong norm
    spec = eg.spec
    X = spec.element([0, 1] + [0] * (spec.k - 2))
    monkeypatch.setattr(diameter8, "norm", lambda a: X)
    ctx = copy.copy(eg.ctx)
    ctx.xr_diag = [X, X, X.inverse(), X.inverse()]
    return eg._replace(ctx=ctx)


def _xr_of_order_25(monkeypatch, eg):
    ctx = copy.copy(eg.ctx)
    ctx.order_xr = 25
    return eg._replace(ctx=ctx)


# (setup, check, its detail, the first check that fails): a setup patches
# diameter8 or returns the example that paper-verify is to check
PAPER_VERIFY_FAILURES = {
    "xr-exponent-sum": (
        lambda mp, eg: eg._replace(params=eg.params._replace(q=13)),
        "d_structure", "xr-exponent: 30941 != 5 mod r^2", "d_structure"),
    "xr-exponent": (
        lambda mp, eg: eg._replace(u=eg.v),
        "d_structure", "xr-exponent: x^r != z^(1+q+...+q^(r-1))", "d_structure"),
    "xr-ground-field": (
        _xr_off_the_ground_field,
        "d_structure", "xr-ground-field: x^r entries not Frobenius-fixed", "d_structure"),
    "xr-order": (_xr_of_order_25, "d_structure", "xr-order: order 25 != 5", "d_structure"),
    "xr-commutes-c": (
        lambda mp, eg: eg._replace(c=eg.g), "d_structure", "xr-commutes-c", "d_structure"),
    "conj-c-by-x": (
        lambda mp, eg: eg._replace(
            f=eg.spec.one(), c=diameter8.GElement(eg.c.f, (0, eg.spec.one()), eg.ctx)),
        "d_structure", "conj-c-by-x: c^q == c", "d_structure"),
    "d-order": (
        lambda mp, eg: eg._replace(params=eg.params._replace(t=7)),
        "d_structure", "d-order: |D| = 80525", "d_structure"),
    "centre-of-D": (
        lambda mp, eg: mp.setattr(
            diameter8.ExampleGroup, "d_centre", property(lambda self: [self.ctx.identity()])),
        "d_structure", "centre-of-D: Z(D) != <x^r>", "d_structure"),
    "fixed-points-xr": (
        _altered_report("solved_fixed_points", lambda eg: eg.xr, count=11),
        "fixed_points", "fixed-points: |C_F(z^r)| = 11", "fixed_points"),
    "fixed-points-x": (
        _altered_report("solved_fixed_points", lambda eg: eg.x, count=11),
        "fixed_points", "fixed-points: |C_F(x)| = 11", "fixed_points"),
    "fixed-points-c": (
        _altered_report("solved_fixed_points", lambda eg: eg.c, free_coords=["a", "c"]),
        "fixed_points", "fixed-points: C_F(c): {'a': 161051, 'b': 1, 'x': 1, 'd': 1, 'c': 1}",
        "fixed_points"),
    "centralizers-x": (
        _altered_report("centralizer_in_G", lambda eg: eg.x, order=26),
        "centralizers", "centralizers: C_G(x) order 26", "centralizers"),
    "centralizers-xr": (
        _altered_report("centralizer_in_G", lambda eg: eg.xr, d_part_order=1),
        "centralizers", "centralizers: C_G(x^r) order 80525", "centralizers"),
    "centralizers-c": (
        _altered_report("centralizer_in_G", lambda eg: eg.c, d_part_order=5),
        "centralizers", "centralizers: C_D(c) order 5", "centralizers"),
    "family-separation": (
        lambda mp, eg: mp.setattr(Poly, "monomial_certificate", lambda self: None),
        "family_separation",
        "no commutator entry is a nonzero monomial a^i b^j with i, j >= 1", "family_separation"),
    "f-law": (
        lambda mp, eg: mp.setattr(diameter8, "_f_mul", lambda g, h: g),
        "f_class3", "the product in F's coordinates differs from the matrix product",
        "family_separation"),
    "path8": (
        lambda mp, eg: mp.setattr(
            diameter8, "witness_path8",
            lambda eg: diameter8.PathReport(labels=["x", "y"], elements=[eg.x, eg.y])),
        "path8", "path8: path length 1", "path8"),
    "class3": (
        lambda mp, eg: mp.setattr(
            diameter8, "verify_f_class3", lambda eg: diameter8.Class3Report(True, True, False)),
        "f_class3",
        "class3: Class3Report(derived_nontrivial=True, triple_nontrivial=True, "
        "quadruple_trivial=False)", "f_class3"),
    "group-order": (
        lambda mp, eg: mp.setattr(diameter8, "example_group_order", lambda params: 1),
        "group_order", "group-order: formula disagrees with |F| * |D|", "group_order"),
    "not-frobenius": (
        lambda mp, eg: mp.setattr(diameter8, "verify_not_frobenius_structure", lambda eg: False),
        "not_frobenius", "not-frobenius", "not_frobenius"),
    # two checks' own fail branches, on an altered example with no verify
    # function replaced: z = (u, v, v, u^-1) has lam_1 lam_2 = v^2 != 1, so
    # diag(z) is not symplectic, and x^r in place of c has |C_F| = 1
    "not-frobenius-c-is-xr": (
        lambda mp, eg: eg._replace(c=eg.xr), "not_frobenius", "not-frobenius", "fixed_points"),
    "symplectic": (
        lambda mp, eg: eg._replace(z=(eg.u, eg.v, eg.v, eg.u.inverse())),
        "symplectic", "symplectic: A J A^T != J", "symplectic"),
}


@pytest.mark.parametrize("case", sorted(PAPER_VERIFY_FAILURES))
def test_paper_verify_pins_every_fail_detail(monkeypatch, capsys, example_group, case):
    # every clause that can fail, driven to fail: its check's status and
    # detail, and the stderr line naming the first check that did not pass
    setup, name, detail, first = PAPER_VERIFY_FAILURES[case]
    eg = setup(monkeypatch, example_group) or example_group._replace()
    monkeypatch.setattr(diameter8, "build_example", lambda params: eg)
    code, out, err = run(["paper-verify"], capsys)
    assert (code, err) == (EXIT_CHECK_FAILED, f"check failed: {first}\n")
    report = json.loads(out)
    jsonschema.validate(report, schema("paper_verify_report.schema.json"))
    (check,) = [c for c in report["checks"] if c["name"] == name]
    assert (check["status"], check["detail"]) == ("fail", detail)


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


def test_search_params_factoring_budget(monkeypatch, capsys):
    from commgraph import primes

    # (43, 7) and (47, 23) need rho; 1000 steps split the first, not the second
    monkeypatch.setattr(primes, "RHO_BUDGET", 1000)
    code, out, err = run(["search-params", "--q-max", "47"], capsys)
    assert code == EXIT_CAP
    assert out == ""
    assert err.startswith("error: cannot factor (q^r-1)/(q-1) at q=47, r=23: ")
    assert err.count("\n") == 1 and "Traceback" not in err


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


def _raise_memory_error(*args):
    raise MemoryError


@pytest.mark.parametrize("command, stage", [
    ("analyze", "classify.classify_group"), ("graph-export", "graph.build_graph"),
])
@pytest.mark.parametrize("where", ["materialize", "stage"])
def test_out_of_memory_stops_in_the_cap_class(monkeypatch, capsys, command, stage, where):
    # a MemoryError while walking the group, or in the stage after it, is
    # reported as the element cap's stop, exit 2, and names the cap
    from commgraph import classify, graph, groups

    if where == "materialize":
        monkeypatch.setattr(groups.GroupHandle, "materialize", _raise_memory_error)
    else:
        module, _, attr = stage.partition(".")
        monkeypatch.setattr({"classify": classify, "graph": graph}[module], attr,
                            _raise_memory_error)
    path = data_path("sym4")
    code, out, err = run([command, path, "--cap", "5000"], capsys)
    assert code == EXIT_CAP
    assert err == f"error: {path}: out of memory before the element cap (5000); lower --cap\n"
    if command == "analyze":
        (row,) = json.loads(out)
        assert row["error_kind"] == "cap"
    else:
        assert out == ""


def test_an_empty_error_message_names_the_exception_type(monkeypatch, capsys):
    from commgraph import groups

    def raise_bare(*args):
        raise ValueError

    monkeypatch.setattr(groups.GroupHandle, "materialize", raise_bare)
    path = data_path("sym4")
    code, _, err = run(["graph-export", path], capsys)
    assert (code, err) == (EXIT_PARSE, f"error: {path}: ValueError\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("generators", [[[0]], [[0, 1, 2], [0, 1, 2]]])
def test_analyze_trivial_group(tmp_path, capsys, jobs, generators):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({
        "type": "permutation", "degree": len(generators[0]), "generators": generators,
    }))
    code, out, err = run(["analyze", str(path), "--jobs", jobs], capsys)
    assert code == EXIT_PARSE
    assert err == f"error: {path}: every element is central\n"
    rows = json.loads(out)
    jsonschema.validate(rows, schema("analyze_report.schema.json"))
    assert rows[0]["error_kind"] == "parse"


@pytest.mark.parametrize("degree", [0, 1])
def test_degree_0_and_1_groups_have_every_element_central(tmp_path, capsys, degree):
    # the degree-0 permutation is the empty tuple, which is falsy; both
    # commands report it, and the degree-1 group, as the trivial group
    path = tmp_path / f"degree{degree}.json"
    path.write_text(json.dumps({
        "type": "permutation", "degree": degree, "generators": [list(range(degree))],
    }))
    message = f"error: {path}: every element is central\n"
    row = {"error": "every element is central", "error_kind": "parse", "file": str(path)}
    assert run(["analyze", str(path)], capsys) == (
        EXIT_PARSE, json.dumps([row], indent=2) + "\n", message)
    assert run(["graph-export", str(path)], capsys) == (EXIT_PARSE, "", message)


def test_analyze_exit_ranks_parse_over_cap_over_sentinel(tmp_path, capsys, monkeypatch):
    # the sentinel never fires on a soluble group, so a stub classifier
    # returns it for every group that loads; stderr names the first file of
    # the highest-ranked outcome, wherever it stands in the list
    from commgraph import classify

    def sentinel(handle):
        return classify.ClassificationVerdict(classify.KIND_DISCONNECTED_OTHER, 6, components=2)

    monkeypatch.setattr(classify, "classify_group", sentinel)
    sym3, alt4, sym4 = data_path("sym3"), data_path("alt4"), data_path("sym4")
    missing = str(tmp_path / "missing.json")
    code, out, err = run(["analyze", sym3, alt4, missing, sym4, "--cap", "10"], capsys)
    assert code == EXIT_PARSE and err.startswith(f"error: {missing}: ")
    assert [r.get("error_kind") for r in json.loads(out)] == [None, "cap", "parse", "cap"]
    code, _, err = run(["analyze", sym3, sym4, alt4, "--cap", "10"], capsys)
    assert code == EXIT_CAP and err.startswith(f"error: {sym4}: ")
    code, out, err = run(["analyze", sym4, sym3, "--format", "csv"], capsys)
    assert code == EXIT_SENTINEL and err == f"sentinel verdict DisconnectedOther: {sym4}\n"
    assert out.splitlines()[1:] == [f"{f},DisconnectedOther,6,,,,,2" for f in (sym4, sym3)]


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matrix_file(field, dim, matrices, twist=0):
    return {
        "type": "matrix", "field": field, "dim": dim, "aut_order": field.get("k", 1),
        "generators": [{"twist": twist, "matrix": m} for m in matrices],
    }


def _not_a_permutation(images):
    return sorted(images) != list(range(len(images)))


GF3 = {"p": 3, "k": 1, "modulus": [0, 1]}

# Each file is malformed, or a group with no non-central element; never a
# group that analyze could classify.
MALFORMED_GROUP_FILES = st.one_of(
    # not an object
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
              st.lists(st.integers(0, 3), max_size=3)),
    # no type, an unknown type, or a field of the wrong type
    st.fixed_dictionaries({}, optional={"type": st.sampled_from(["perm", "", "matrix"])}),
    st.builds(lambda degree: {"type": "permutation", "degree": degree, "generators": None},
              st.one_of(st.text(max_size=3), st.integers(-1, 4))),
    # no generator
    st.builds(lambda degree: {"type": "permutation", "degree": degree, "generators": []},
              st.integers(0, 4)),
    # a permutation whose length is not the stated degree
    st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.integers(-1, 6).filter(lambda d: d != n), st.permutations(range(n)),
    )).map(lambda t: {"type": "permutation", "degree": t[0], "generators": [t[1]]}),
    # images that are not a permutation
    st.integers(1, 5).flatmap(lambda n: st.lists(
        st.integers(-1, n), min_size=n, max_size=n,
    ).filter(_not_a_permutation)).map(
        lambda g: {"type": "permutation", "degree": len(g), "generators": [g]}),
    # the trivial group, from identity generators of any degree
    st.tuples(st.integers(0, 5), st.integers(1, 3)).map(lambda t: {
        "type": "permutation", "degree": t[0], "generators": [list(range(t[0]))] * t[1],
    }),
    st.integers(1, 3).map(lambda n: _matrix_file(GF3, n, [_identity_rows(n)])),
    # a field that is not prime, or a modulus that is not irreducible
    st.sampled_from([0, 1, 4, 6, 9, 15]).map(
        lambda p: _matrix_file({"p": p, "k": 1, "modulus": [0, 1]}, 1, [[[1]]])),
    st.just(_matrix_file({"p": 3, "k": 2, "modulus": [0, 0, 1]}, 1, [[[[1, 0]]]])),
    # dimension 0, or matrices of the wrong shape, or singular
    st.integers(0, 1).map(lambda twist: _matrix_file(
        {"p": 3, "k": 2, "modulus": [1, 0, 1]}, 0, [[]], twist=twist)),
    st.integers(1, 3).map(lambda n: _matrix_file(GF3, n + 1, [_identity_rows(n)])),
    st.integers(1, 3).map(lambda n: _matrix_file(GF3, n, [[[0] * n] * n])),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(MALFORMED_GROUP_FILES, st.sampled_from(["analyze", "graph-export"]))
def test_malformed_group_files_exit_1_without_traceback(payload, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "group.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        err = io.StringIO()
        # an uncaught exception here is the traceback a user would see
        with contextlib.redirect_stderr(err):
            code = main([command, path, "--out", os.path.join(tmp, "out")])
    assert code == EXIT_PARSE
    assert err.getvalue().startswith(f"error: {path}: ")
    assert err.getvalue().count("\n") == 1


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


def _gf3_file(**changes):
    """The group {1, -1} of GF(3), with the given keys (or field keys)
    replaced."""
    payload = _matrix_file(dict(GF3), 1, [[[2]]])
    payload["field"].update(changes.pop("field", {}))
    payload.update(changes)
    return payload


# every number a group file holds must be a JSON integer: a float or a
# boolean is refused by name, not truncated or read as 0 and 1
@pytest.mark.parametrize("payload, named", [
    (_gf3_file(generators=[{"matrix": [[2.5]]}]), "matrix entry must be an integer, got 2.5"),
    (_gf3_file(generators=[{"matrix": [[[2.0]]]}]), "matrix entry must be an integer, got 2.0"),
    (_gf3_file(generators=[{"matrix": [[True]]}]), "matrix entry must be an integer, got True"),
    (_gf3_file(dim=1.0), "dim must be an integer, got 1.0"),
    (_gf3_file(generators=[{"twist": 0.0, "matrix": [[2]]}]),
     "twist must be an integer, got 0.0"),
    (_gf3_file(aut_order=True), "aut_order must be an integer, got True"),
    (_gf3_file(field={"p": 3.0}), "p must be an integer, got 3.0"),
    (_gf3_file(field={"k": "1"}), "k must be an integer, got '1'"),
    (_gf3_file(field={"modulus": [0, 1.0]}), "modulus entry must be an integer, got 1.0"),
    ({"type": "permutation", "degree": 3, "generators": [[1.0, 2.0, 0.0]]},
     "permutation image must be an integer, got 1.0"),
    ({"type": "permutation", "degree": 3, "generators": [[True, False, 2]]},
     "permutation image must be an integer, got True"),
    ({"type": "permutation", "degree": 3.0, "generators": [[1, 2, 0]]},
     "degree must be an integer, got 3.0"),
])
@pytest.mark.parametrize("command", ["analyze", "graph-export"])
def test_group_file_numbers_must_be_integers(tmp_path, capsys, command, payload, named):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(payload))
    code, out, err = run([command, str(path)], capsys)
    assert code == EXIT_PARSE
    assert err == f"error: {path}: {named}\n"


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


C3 = {"type": "permutation", "degree": 3, "generators": [[1, 2, 0]]}


# a group file of the wrong shape is refused by the name of the field, not
# with the message of the Python error it would raise
@pytest.mark.parametrize("payload, named", [
    ([C3], "group file must be an object, got list"),
    ({}, "group file lacks 'type'"),
    (_without(C3, "degree"), "group file lacks 'degree'"),
    (_without(C3, "generators"), "group file lacks 'generators'"),
    ({**C3, "generators": 5}, "generators must be a list, got int"),
    ({**C3, "generators": [5]}, "generator must be a list, got int"),
    (_without(_gf3_file(), "field"), "group file lacks 'field'"),
    (_gf3_file(field={"p": 3, "k": 1, "modulus": 1}), "modulus must be a list, got int"),
    ({**_gf3_file(), "field": [3, 1]}, "field must be an object, got list"),
    ({**_gf3_file(), "field": {"k": 1, "modulus": [0, 1]}}, "field lacks 'p'"),
    (_without(_gf3_file(), "dim"), "group file lacks 'dim'"),
    (_gf3_file(generators=[{"twist": 0}]), "generator lacks 'matrix'"),
    (_gf3_file(generators=[[[2]]]), "generator must be an object, got list"),
    (_gf3_file(generators=[{"matrix": [2]}]), "matrix row must be a list, got int"),
    (_gf3_file(field={"k": 0, "modulus": [1]}), "k must be at least 1"),
    (_gf3_file(field={"modulus": [1]}), "modulus is not monic irreducible over GF(p)"),
    ({**C3, "generators": []}, "a group handle needs at least one generator"),
    (_gf3_file(generators=[]), "a group handle needs at least one generator"),
    # a field with two faults, a composite p and a bad modulus: its JSON
    # shape is read whole before FieldSpec checks the field, so a modulus
    # that is not a list of integers is named first, and a composite p
    # beats a modulus that is only not irreducible
    (_gf3_file(field={"p": 4, "modulus": 5}), "modulus must be a list, got int"),
    (_gf3_file(field={"p": 4, "modulus": [0, 1.0]}), "modulus entry must be an integer, got 1.0"),
    (_gf3_file(field={"p": 4, "modulus": [0, 0, 1]}), "4 is not prime"),
    (_gf3_file(field={"p": 4, "modulus": [1]}), "4 is not prime"),
    # a twist group of the wrong order, and an entry of GF(3) given as two
    # coefficients
    (_gf3_file(aut_order=2), "aut_order must equal the field extension degree"),
    (_gf3_file(generators=[{"matrix": [[[2, 0]]]}]), "expected 1 coefficients, got 2"),
])
@pytest.mark.parametrize("command", ["analyze", "graph-export"])
def test_group_file_shapes_are_named(tmp_path, capsys, command, payload, named):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(payload))
    code, out, err = run([command, str(path)], capsys)
    assert code == EXIT_PARSE
    assert err == f"error: {path}: {named}\n"


def test_group_file_with_integers_still_loads(tmp_path, capsys):
    # the matrix file the cases above spoil, intact; and a 3-cycle with its
    # transposition, whose images are integers
    path = tmp_path / "group.json"
    path.write_text(json.dumps(_gf3_file()))
    from commgraph.corpus import load_group_file

    assert load_group_file(path).materialize().order() == 2
    path.write_text(json.dumps({
        "type": "permutation", "degree": 3, "generators": [[1, 2, 0], [1, 0, 2]],
    }))
    code, out, _ = run(["analyze", str(path)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)[0]["order"] == 6
