"""Runs one workload plan through `sloccsim.cli.main` in this interpreter.

Started by run.py in a fresh interpreter per run, with one thread for the
numeric libraries. Reads the plan, runs its warm-up ops, then the measured
passes, checks every op's exit code and output outside the timed region,
and writes one JSON result. With --trace 1 it runs each of a fixed number
of passes twice, untraced and traced, and adds the per-layer metrics and
the tracing overhead; the fixed count makes the counts repeat exactly.

    python3 perfbench/worker.py --plan PLAN --references REFS --result OUT
        --seconds S [--trace 0|1] [--spans SPANS]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy

import sloccsim.cli

import tracing

DIFFERENCE_TOL = 1e-10   # closed form vs POVM oracle, as the oracle suite
PROBABILITY_SLACK = 1e-12   # rounding allowed on 0 <= p_err <= min(priors)
TRACE_PASSES = 4
FAILURES_KEPT = 5


class Tally:
    """Timings and check outcomes of the ops run in one phase."""

    def __init__(self):
        self.pass_times: list[float] = []
        self.call_times: list[float] = []
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, elapsed: float, problem: str | None, points: int) -> None:
        self.call_times.append(elapsed)
        self.attempted += 1
        self.points += points
        if problem is not None:
            self.failed += 1
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append(problem)


def _call(main, argv) -> tuple[float, object, str, str]:
    """Run one CLI call; return its wall time, exit code, stdout, stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:   # argparse rejects an argument list
            code = exc.code
        except Exception:   # a traceback is a failed op, not a dead run
            code = "traceback: " + traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    return elapsed, code, stdout.getvalue(), stderr.getvalue()


def _read_table(text: str, fmt: str) -> dict:
    """A single-record project/discriminate output as a flat dict."""
    if fmt == "json":
        return json.loads(text)
    header, row = list(csv.reader(io.StringIO(text)))
    return dict(zip(header, row))


def _check(op: dict, code, stdout: str, stderr: str,
           references: dict) -> tuple[str | None, int]:
    """Problem with one op's outcome (None when correct), and the points it
    evaluated: sweep records, check draws, or one game per scenario."""
    check = op["check"]
    expected = op["expect_exit"]
    out = Path(check["out"]) if "out" in check else None
    if code != expected:
        return (f"{op['argv'][:3]}: exit {code!r}, expected {expected}: "
                f"{stderr.strip()[:200]}"), 0
    if expected != 0:
        if out is not None and out.exists():
            return f"{op['argv'][:3]}: refused call wrote {out.name}", 0
        if not stderr.strip():
            return f"{op['argv'][:3]}: exit {code} without a message", 0
        return None, 0
    kind = check["kind"]
    if kind == "selfcheck":
        last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        want = f"{len(tracing.SUITES)}/{len(tracing.SUITES)} suites passed"
        if not last.startswith(want):
            return f"{op['argv']}: check ended in {last!r}", 0
        return None, check["draws"]
    try:
        data = out.read_bytes()
    except OSError as exc:
        return f"{op['argv'][:3]}: no output: {exc}", 0
    if kind == "sha256":
        digest = hashlib.sha256(data).hexdigest()
        if digest != references[check["reference"]]:
            return (f"{check['reference']}: sha256 {digest} differs from the "
                    f"reference"), 0
        if check["format"] == "json":
            return None, len(json.loads(data)["records"])
        return None, data.count(b"\n") - 1
    try:
        table = _read_table(data.decode("utf-8"), check["format"])
        if kind == "project":
            coherent = table["coherent"]
            if check["distinguishable"] and coherent not in (False, "false"):
                return f"{out.name}: distinguishable result is coherent", 0
            return None, 1
        difference = float(table["difference"])
        closed = float(table["p_err_closed_form"])
    except (ValueError, KeyError) as exc:
        return f"{out.name}: unreadable output: {exc!r}", 0
    if not difference <= DIFFERENCE_TOL:
        return f"{out.name}: closed form and oracle differ by {difference}", 0
    ceiling = min(check["priors"]) + PROBABILITY_SLACK
    if not -PROBABILITY_SLACK <= closed <= ceiling:
        return (f"{out.name}: p_err_closed_form {closed} outside "
                f"[0, min(priors)]"), 0
    return None, 1


def run_pass(main, ops: list, references: dict, tally: Tally, cpus: list,
             recorder: tracing.Recorder | None = None) -> None:
    """Run one pass on the next of `cpus` in turn; its time is the sum of
    its calls, checks excluded.

    Other tenants of a shared host load its cores unevenly, and which core
    is slow changes from minute to minute. Cycling the passes through every
    core keeps the one a run happens to land on from deciding its result.
    """
    os.sched_setaffinity(0, {cpus[len(tally.pass_times) % len(cpus)]})
    total = 0.0
    for op in ops:
        if "out" in op["check"]:
            Path(op["check"]["out"]).unlink(missing_ok=True)
        if recorder is not None:
            recorder.op = len(tally.call_times)
        elapsed, code, stdout, stderr = _call(main, op["argv"])
        total += elapsed
        tally.record(elapsed, *_check(op, code, stdout, stderr, references))
    tally.pass_times.append(total)


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", type=Path, required=True)
    parser.add_argument("--references", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    plan = json.loads(args.plan.read_text(encoding="utf-8"))
    references = json.loads(args.references.read_text(encoding="utf-8"))
    templates = plan["passes"]
    cli_main = sloccsim.cli.main
    for op in plan["warmup"]:
        _call(cli_main, op["argv"])

    tally = Tally()
    cpus = sorted(os.sched_getaffinity(0))
    result = {"python": sys.version.split()[0], "numpy": numpy.__version__,
              "cpus": cpus}
    if not args.trace:
        started = time.perf_counter()
        while True:
            done = len(tally.pass_times)
            run_pass(cli_main, templates[done % len(templates)], references,
                     tally, cpus)
            if time.perf_counter() - started >= args.seconds:
                break
        op_seconds = sum(tally.call_times)
        result["metrics"] = {
            "wall_s": (op_seconds / len(tally.pass_times), "s"),
            "points_per_s": (tally.points / op_seconds, "1/s"),
            "call_p50_ms": (1e3 * statistics.median(tally.call_times), "ms"),
            "call_p90_ms": (1e3 * _p90(tally.call_times), "ms"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
        }
        result["samples"] = {"wall_s": len(tally.pass_times),
                             "call_p50_ms": len(tally.call_times),
                             "call_p90_ms": len(tally.call_times)}
    else:
        recorder = tracing.Recorder()
        traced_main = recorder.wrap(cli_main, "cli.main", "bench")
        untraced, traced = [], []
        traced_ops = 0
        for index in range(TRACE_PASSES):
            ops = templates[index % len(templates)]
            # Each template runs untraced and traced back to back, in ABBA
            # order, so that host drift and the CPU rotation weigh on both
            # sides of the overhead ratio alike.
            for traced_pass in (index % 2 == 1, index % 2 == 0):
                if traced_pass:
                    replaced = tracing.install(recorder)
                    try:
                        run_pass(traced_main, ops, references, tally, cpus,
                                 recorder)
                    finally:
                        tracing.restore(replaced)
                    traced.append(tally.pass_times[-1])
                    traced_ops += len(ops)
                else:
                    run_pass(cli_main, ops, references, tally, cpus)
                    untraced.append(tally.pass_times[-1])
        metrics = tracing.layer_metrics(recorder)
        metrics["trace.overhead_ratio"] = (sum(traced) / sum(untraced),
                                           "ratio")
        metrics["trace.passes"] = (TRACE_PASSES, "count")
        metrics["trace.operations"] = (traced_ops, "count")
        metrics["error_rate"] = (tally.failed / tally.attempted, "ratio")
        result["metrics"] = metrics
        result["samples"] = {"trace.overhead_ratio": 2 * TRACE_PASSES}
        if args.spans is not None:
            tracing.write_spans(recorder, args.spans)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, pass_times=tally.pass_times)
    args.result.write_text(json.dumps(result, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
