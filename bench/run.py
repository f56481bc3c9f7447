#!/usr/bin/env python3
"""Benchmark for commgraph: three CLI workloads and an outside-in traced run.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``witness_family``, ``analyze_ladder``, ``graph_ladder`` or ``all``
(every workload in turn, with a summary table).  Group files are built from
the seed under ``bench/.work/`` and removed at exit.

``--trace 0`` runs every CLI invocation in a fresh interpreter, because each
user invocation pays for field construction and group materialization
again, and runs the workload's invocations in turn until S seconds are
used (40 s unless ``--seconds`` says otherwise, as in BENCHMARK.json).
Times are medians per invocation, scaled to a nominal machine speed by a
reference computation timed between commands (ReferenceClock); the raw
wall times and their medians are printed too.  It reports:

- ``wall_s``: the workload's main command or commands;
- ``secondary_s``: the workload's second measured command (see workloads.py);
- ``setup_s``: a fresh interpreter that imports ``commgraph.cli``, parses
  the workload's input files and exits; one such probe runs after every
  command, and the metric is their median;
- ``peak_rss_mb``: the largest maximum RSS among the workload's CLI processes.

``--trace 1`` runs the same invocations in this process, once untraced and
once with span wrappers installed (spans.py), and reports per-layer times,
call counts, element-product counts, graph sizes and the tracing overhead.

Every output is checked (workloads.py).  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; an
operation is one CLI invocation and fails on an unexpected exit code, a
timeout or a wrong output.  The exit code is 0 only if nothing failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
from workloads import ROOT, WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

REF_NOMINAL_S = 0.25          # the reference's wall time at nominal speed
RUN_DEADLINE_S = 170          # a run must finish well inside 180 s
INVOCATION_TIMEOUT_S = 150

SETUP_CODE = (
    "import sys\n"
    "import commgraph.cli\n"
    "from commgraph.corpus import load_group_file\n"
    "for path in sys.argv[1:]:\n"
    "    load_group_file(path)\n"
)

E2E_UNITS = {"wall_s": "s", "secondary_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

TIMED_FUNCTIONS = [f"{module}.{name}" for module, name in spans.TARGETS]
SELF_TIMED = [
    "cli.main", "classify.classify_group", "classify.is_frobenius",
    "classify.is_two_frobenius", "graph.build_graph", "diameter8.build_example",
    "diameter8.centralizer_in_G", "diameter8.verify_not_frobenius_structure",
    "diameter8.find_params", "fields.least_irreducible",
]
CALL_COUNTED = ["fields.field_create", "groups.fitting_subgroup", "diameter8.fixed_points_in_F"]
GRAPH_COUNTS = ["graph.vertices", "graph.classes", "graph.edges"]


def per_layer_units() -> dict:
    units = {f"{name}_s": "s" for name in TIMED_FUNCTIONS}
    units.update({f"{name}_self_s": "s" for name in SELF_TIMED})
    units.update({f"{name}_calls": "count" for name in CALL_COUNTED})
    units.update({metric: "count" for _, _, metric in spans.PRODUCT_COUNTERS})
    units.update({name: "count" for name in GRAPH_COUNTS})
    units["graph.class_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class Tally:
    """Operations attempted and failed, with the reasons for failures.

    The run is correct only if it has no problem at all: neither a failed
    operation nor a failure of the run itself (``fail``).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems):
        """One operation, failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def fail(self, problem):
        """A failure of the run itself, such as a set-up probe that exits
        non-zero; it is not an operation, so ``failed`` does not count it."""
        if problem not in self.problems:
            self.problems.append(problem)


def checked(inv, code, out) -> list[str]:
    try:
        return inv.check(code, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{inv.args[0]}: unreadable output: {exc!r}"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("COMMGRAPH_CAP", None)
    return env


# A fixed pure-Python computation shaped like the program's hot loops: tuple
# permutation products into a set, and modular integer arithmetic.  It does
# not use commgraph, so no change to the program can move it.
REFERENCE_CODE = """
import itertools
perms = list(itertools.islice(itertools.permutations(range(8)), 480))
seen = set()
for a in perms:
    for b in perms:
        seen.add(tuple(a[j] for j in b))
acc = 1
for i in range(1, 250_000):
    acc = (acc * i + 7) % 1_000_003
if len(seen) < len(perms) or acc < 0:
    raise SystemExit("reference computation went wrong")
"""


class ReferenceClock:
    """Scales measured times to a nominal machine speed.

    The speed of the 2-vCPU machines this was built on drifts by tens of
    percent within seconds and over minutes, and CPU time drifts with wall
    time, so raw times of identical runs spread too widely to compare two
    commits.  The reference computation runs in a fresh interpreter, started
    the same way as the CLI, once before the first command and once after
    every command.  A command's time is multiplied by REF_NOMINAL_S over the
    mean of the two reference times on either side of it.
    """

    def __init__(self, work, tally):
        self.argv = [sys.executable, "-c", REFERENCE_CODE]
        self.work = work
        self.tally = tally
        self.refs = []
        self.tick()

    def tick(self) -> int:
        """Time the reference after a command; returns that command's position."""
        code, wall, _ = run_process(self.argv, INVOCATION_TIMEOUT_S, self.work / "reference.err")
        if code != 0:
            self.tally.fail(f"reference exit {code}")
        self.refs.append(wall)
        return len(self.refs) - 1

    def scaled(self, raw: float, position: int) -> float:
        """``raw`` at nominal speed, for a command timed just before ``position``."""
        local = (self.refs[position - 1] + self.refs[position]) / 2
        return raw * REF_NOMINAL_S / local


def run_process(argv, timeout, stderr_path):
    """Run argv from the repository root; returns (exit code, wall s, max RSS MB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_probe(argv, work, tally):
    """Wall time of one set-up probe, or None if it failed."""
    code, wall, _ = run_process(argv, INVOCATION_TIMEOUT_S, work / "setup.err")
    if code != 0:
        tally.fail(f"set-up probe exit {code}")
        return None
    return wall


def keep_going(started, iterations, seconds, deadline) -> bool:
    """Start another repetition only if it is expected to end within the budget."""
    now = time.perf_counter()
    per_iteration = (now - started) / iterations
    return now - started + per_iteration <= seconds and now + per_iteration < deadline


def _label(inv) -> str:
    """The command without its file list, then the stem of its last file."""
    files = [Path(a).stem for a in inv.args if a.endswith(".json")]
    return " ".join([a for a in inv.args if not a.endswith(".json")] + files[-1:])


def timed_run(invocations, setup_files, seconds, work, deadline, tally):
    """Run the invocations in turn, each in a fresh interpreter, until the budget is used.

    After one full round, the next invocation starts only if its last duration
    still fits in the budget, so a slow machine loses part of a round rather
    than a whole one.  A metric is the sum, over the invocations that feed it,
    of each invocation's median time at nominal speed (ReferenceClock).
    """
    run_start = time.perf_counter()
    clock = ReferenceClock(work, tally)
    probe = [sys.executable, "-c", SETUP_CODE, *setup_files]
    setup_probe(probe, work, tally)  # the first start also writes bytecode caches
    setup = []
    out = work / "out.json"
    walls = [[] for _ in invocations]
    rss = [[] for _ in invocations]
    cost = [0.0] * len(invocations)
    schedule = [i for i, inv in enumerate(invocations) for _ in range(inv.repeat)]
    for k in itertools.count():
        i = schedule[k % len(schedule)]
        inv = invocations[i]
        start = time.perf_counter()
        if k >= len(schedule) and (start - run_start + cost[i] > seconds
                                   or start + cost[i] > deadline):
            break
        timeout = min(INVOCATION_TIMEOUT_S, max(1.0, deadline - start))
        argv = [sys.executable, "-m", "commgraph.cli", *inv.args, "--out", str(out)]
        if out.exists():
            out.unlink()
        code, wall, peak = run_process(argv, timeout, work / "cli.err")
        setup_wall = setup_probe(probe, work, tally)
        position = clock.tick()
        walls[i].append((wall, position))
        if setup_wall is not None:
            setup.append((setup_wall, position))
        tally.record(checked(inv, code, out))
        rss[i].append(peak)
        cost[i] = time.perf_counter() - start

    def median_scaled(samples):
        return statistics.median(clock.scaled(raw, pos) for raw, pos in samples)

    def median_raw(samples):
        return statistics.median(raw for raw, _ in samples)

    metrics = {"peak_rss_mb": max(statistics.median(r) for r in rss)}
    unscaled = {}
    for target, median in ((metrics, median_scaled), (unscaled, median_raw)):
        target["setup_s"] = median(setup) if setup else 0.0  # 0 only in a failed run
        medians = [median(w) for w in walls]
        for metric in ("wall_s", "secondary_s"):
            target[metric] = sum(m for inv, m in zip(invocations, medians) if metric in inv.metrics)
    lines = ["raw seconds per command:",
             "  set-up probe: " + " ".join(f"{raw:.4f}" for raw, _ in setup)]
    lines += [f"  {_label(inv)}: " + " ".join(f"{raw:.4f}" for raw, _ in w)
              for inv, w in zip(invocations, walls)]
    lines.append("  reference: " + " ".join(f"{v:.4f}" for v in clock.refs))
    lines.append("raw medians: " + " ".join(f"{m} {v:.4f}" for m, v in unscaled.items()))
    return metrics, lines


def _in_process(invocations, out, tally):
    """Run the invocations through ``cli.main``; returns the seconds spent in it."""
    from commgraph import cli

    total = 0.0
    for inv in invocations:
        if out.exists():
            out.unlink()
        start = time.perf_counter()
        try:
            code = cli.main([*inv.args, "--out", str(out)])
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            code = f"raised {exc!r}"
        total += time.perf_counter() - start
        tally.record(checked(inv, code, out))
    return total


def traced_run(invocations, seconds, work, deadline, tally):
    """Per-layer metrics from in-process runs, untraced then traced, repeated."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("COMMGRAPH_CAP", None)
    os.chdir(ROOT)
    out = work / "out.json"
    samples: list[dict] = []
    counts: list[dict] = []
    tree = None
    started = time.perf_counter()
    while True:
        untraced = _in_process(invocations, out, tally)
        tracer = spans.Tracer()
        tracer.install()
        try:
            _in_process(invocations, out, tally)
        finally:
            tracer.remove()
        res = spans.analyse(tracer.spans)
        tree = res["tree"]
        times = {f"{n}_s": res["inclusive"].get(n, 0.0) for n in TIMED_FUNCTIONS}
        times.update({f"{n}_self_s": res["self"].get(n, 0.0) for n in SELF_TIMED})
        times["trace.overhead_s"] = times["cli.main_s"] - untraced
        samples.append(times)
        count = {f"{n}_calls": res["calls"].get(n, 0) for n in CALL_COUNTED}
        count.update(tracer.product_counts())
        count.update({name: res["info"].get(name.split(".")[1], 0) for name in GRAPH_COUNTS})
        counts.append(count)
        if not keep_going(started, len(samples), seconds, deadline):
            break
    if any(other != counts[0] for other in counts[1:]):
        tally.fail("per-layer counts differ between repetitions")
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics.update(counts[0])
    vertices = metrics["graph.vertices"]
    metrics["graph.class_ratio"] = metrics["graph.classes"] / vertices if vertices else 0.0
    lines = [f"repetitions: {len(samples)}"] + spans.format_tree(tree)
    return metrics, lines


def run_workload(name, seed, seconds, traced, work, deadline):
    tally = Tally()
    work.mkdir(parents=True, exist_ok=True)
    invocations, setup_files = WORKLOADS[name](seed, work)
    if traced:
        metrics, lines = traced_run(invocations, seconds, work, deadline, tally)
        units = per_layer_units()
    else:
        metrics, lines = timed_run(invocations, setup_files, seconds, work, deadline, tally)
        units = E2E_UNITS
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    return result, lines, tally.problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "commgraph" / "cli.py").is_file():
        print(f"error: commgraph sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = BENCH / ".work" / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            deadline = time.perf_counter() + RUN_DEADLINE_S
            result, lines, problems = run_workload(
                name, args.seed, args.seconds, bool(args.trace), work / name, deadline)
            results[name] = result
            print(f"== {name} (seed {args.seed}, trace {args.trace})")
            print("\n".join(lines))
            for problem in problems:
                print(f"FAIL {problem}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:<48} {entry['value']:>14.6g} {entry['unit']}")
            print(f"  {'failed_ratio':<48} {result['failed'] / result['attempted']:>14.6g} "
                  f"({result['failed']}/{result['attempted']})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": e for w, r in results.items() for m, e in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
