"""Command-line front end.

Subcommands: analyze, paper-verify, search-params, graph-export.  All output
is deterministic (sorted JSON keys, fixed CSV columns) so reruns are
byte-identical for the same inputs.

Each subcommand loads only what it runs: this module imports only errors
and the stdlib, the package's layers are lazy modules that load at their
first use, and search-params imports only the number theory in params.

analyze runs its files one after another: --jobs is still parsed and
checked, but it no longer changes how the files run.

The process entry (`python -m commgraph.cli`, the `commgraph` script) is
run(): once main() returns it flushes stdout and stderr and ends the
process with os._exit, skipping interpreter teardown.  Callers that need a
normal interpreter afterwards (tests, embedders) call main() instead.

Exit codes: 0 success, 1 parse error (also a usage error, --jobs or --cap
below 1, a COMMGRAPH_CAP that is not an integer of at least 1 for analyze or
graph-export, a group with no non-central element: the trivial group for
analyze, any abelian group for graph-export, or a report that cannot be
written: an --out that is a directory or a path in a missing directory is
refused before any group loads, and any other write error, on --out or on
stdout, such as a closed pipe, is one `error:` line), 2 a cap
exceeded: the element cap (analyze, graph-export), also when memory runs
out before it is reached, or the factoring budget (search-params), 3 the
classifier produced the sentinel verdict DisconnectedOther, 4 a
verification check failed or raised (paper-verify).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import classify, corpus, diameter8, graph, groups
from .errors import CapExceeded, EmptyGraph

CAP_ENV_VAR = "COMMGRAPH_CAP"

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_SENTINEL = 3
EXIT_CHECK_FAILED = 4

ANALYZE_COLUMNS = [
    "file", "kind", "order", "kernel_order", "K_order", "L_order",
    "diameter", "components",
]


class _Refused(Exception):
    """A usage error or an unwritable --out: main prints it as one `error:`
    line and exits EXIT_PARSE."""


def _at_least_1(name: str, value: int) -> int:
    """value, refused with "NAME must be at least 1, got VALUE" below 1."""
    if value < 1:
        raise _Refused(f"{name} must be at least 1, got {value}")
    return value


def default_cap() -> int:
    """The element cap from COMMGRAPH_CAP, refused unless it is an integer of at least 1."""
    raw = os.environ.get(CAP_ENV_VAR)
    if not raw:
        return groups.DEFAULT_GROUP_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise _Refused(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    return _at_least_1(CAP_ENV_VAR, cap)


def _check_out(out: str):
    """Refuse an --out that names a directory or lies in a missing one."""
    if os.path.isdir(out):
        raise _Refused(f"cannot write {out}: it is a directory")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise _Refused(f"cannot write {out}: no directory {parent}")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_PARSE; argparse's own code 2 means a cap was exceeded here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="commgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "csv"), capped=False):
        if capped:  # only the subcommands that materialize a group
            p.add_argument("--cap", type=int, default=None, help="element cap for materialization")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", choices=list(formats), default="json")

    p = sub.add_parser("analyze", help="classify group files")
    p.add_argument("files", nargs="+")
    p.add_argument("--jobs", type=int, default=1,
                   help="kept for compatibility: files are analyzed one after another")
    common(p, capped=True)

    p = sub.add_parser("paper-verify", help="run the diameter-8 family verification suite")
    p.add_argument("--q", type=int, default=11)
    p.add_argument("--r", type=int, default=5)
    p.add_argument("--t", type=int, default=3221)
    common(p)

    p = sub.add_parser("search-params", help="list valid (q, r, t) parameter triples")
    p.add_argument("--q-max", dest="q_max", type=int, required=True)
    common(p)

    p = sub.add_parser("graph-export", help="export the commuting graph of a group file")
    p.add_argument("files", nargs=1)
    common(p, formats=("json",), capped=True)
    return parser


def _write(text: str, out: str | None):
    if not out:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise _Refused(f"cannot write stdout: {exc.strerror or exc}") from None
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Refused(f"cannot write {out}: {exc.strerror or exc}") from None


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _dump_csv(rows, columns) -> str:
    import csv  # only --format csv writes CSV

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([("" if row.get(c) is None else row.get(c)) for c in columns])
    return buf.getvalue()


def _run_on_file(path: str, cap: int, stage) -> tuple:
    """Load and walk the group in `path`, then run `stage` on it: always a
    pair, ("ok", the stage's result) or ("cap" or "parse", the message).
    Running out of memory in either step is a stop in the cap's class."""
    try:
        try:
            handle = corpus.load_group_file(path, cap=cap)
            handle.materialize()
        except (CapExceeded, MemoryError):
            raise
        except Exception as exc:  # the file does not describe a group
            return "parse", str(exc) or type(exc).__name__  # never an empty message
        return "ok", stage(handle)
    except CapExceeded as exc:
        return "cap", str(exc)
    except MemoryError:
        return "cap", f"out of memory before the element cap ({cap}); lower --cap"
    except EmptyGraph as exc:  # no non-central element, so the graph has no vertex
        return "parse", str(exc)


_ERROR_EXIT = {"parse": EXIT_PARSE, "cap": EXIT_CAP}


def cmd_analyze(args: argparse.Namespace) -> int:
    rows, stops = [], []  # stops: (exit code, stderr line) per failed or sentinel file
    for path in args.files:
        kind, result = _run_on_file(path, args.cap, classify.classify_group)
        if kind != "ok":
            rows.append({"file": path, "error": result, "error_kind": kind})
            stops.append((_ERROR_EXIT[kind], f"error: {path}: {result}"))
            continue
        rows.append({"file": path, **result.to_json()})
        if result.kind == classify.KIND_DISCONNECTED_OTHER:
            stops.append((EXIT_SENTINEL, f"sentinel verdict DisconnectedOther: {path}"))

    if args.fmt == "csv":
        csv_rows = [{"file": r["file"], "kind": "Error"} if "error" in r else r for r in rows]
        _write(_dump_csv(csv_rows, ANALYZE_COLUMNS), args.out)
    else:
        _write(_dump_json(rows), args.out)

    if not stops:
        return EXIT_OK
    # parse beats cap beats sentinel, as their exit codes rank; then the first file
    code, line = min(stops, key=lambda stop: stop[0])
    print(line, file=sys.stderr)
    return code


def cmd_paper_verify(args: argparse.Namespace) -> int:
    report = diameter8.run_all_checks(args.q, args.r, args.t)
    if args.fmt == "csv":
        _write(_dump_csv(report["checks"], ["name", "status", "detail"]), args.out)
    else:
        _write(_dump_json(report), args.out)
    failing = diameter8.first_failing_check(report)
    if failing:
        raised = any(c["name"] == failing and c["status"] == "error" for c in report["checks"])
        print(f"check {'raised' if raised else 'failed'}: {failing}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_search_params(args: argparse.Namespace) -> int:
    from . import params  # number theory only: no field, group or witness-family code

    try:
        found = params.find_params(args.q_max)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    triples = [{"q": p.q, "r": p.r, "t": p.t} for p in found]
    if args.fmt == "csv":
        _write(_dump_csv(triples, ["q", "r", "t"]), args.out)
    else:
        _write(_dump_json({"q_max": args.q_max, "triples": triples}), args.out)
    return EXIT_OK


def cmd_graph_export(args: argparse.Namespace) -> int:
    path = args.files[0]
    kind, result = _run_on_file(path, args.cap, graph.build_graph)
    if kind != "ok":
        print(f"error: {path}: {result}", file=sys.stderr)
        return _ERROR_EXIT[kind]
    _write(_dump_json(result.to_json()), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "paper-verify": cmd_paper_verify,
        "search-params": cmd_search_params,
        "graph-export": cmd_graph_export,
    }[args.command]
    try:  # the usage checks run before any group loads
        if hasattr(args, "cap"):
            args.cap = default_cap() if args.cap is None else _at_least_1("--cap", args.cap)
        _at_least_1("--jobs", getattr(args, "jobs", 1))
        if args.out:
            _check_out(args.out)
        return handler(args)
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run():
    """Run main() as a whole process: flush stdout, then stderr, and end with
    os._exit, skipping interpreter teardown.  Every --out file is closed
    before main returns, and the package has no atexit handler, thread or
    finalizer with side effects.  A stream is None when its descriptor was
    closed at start-up.  The report on stdout was flushed by _write, which
    turns a failure there into one error line, so if stdout fails again here
    (a closed pipe) what its buffer holds goes to the null device, and no
    later flush can fail.  If a flush of stderr fails (a full disk),
    sys.exit lets the interpreter's shutdown report it as usual; a
    SystemExit from argparse or an uncaught exception takes that path too."""
    code = main()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
