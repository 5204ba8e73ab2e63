"""Benchmark driver for sloccsim.

    python3 perfbench/run.py --workload {figures,check,scenarios} --seed N
        --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/sloccsim`. The driver
writes the workload's inputs from the seed, times a fresh interpreter
importing `sloccsim.cli` (setup_s), then runs the workload in a fresh
interpreter (worker.py) that calls `sloccsim.cli.main` with one thread.
Every call's exit code and output are checked. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it records the provenance of the run. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. Scratch files and the traced run's spans go to
`.perfbench/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_RUNS = 5   # before and again after the workload, so 10 in all
SETUP_LIMIT_S = 30.0
RUN_LIMIT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def measure_setup(env: dict, warm: bool) -> list[float]:
    """Wall times of fresh interpreters importing sloccsim.cli. Unless the
    bytecode cache is known to be warm, one untimed launch fills it. The
    launches take the CPUs in turn, as the worker's passes do."""
    command = [sys.executable, "-c", "import sloccsim.cli"]
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for index in range(SETUP_RUNS + (not warm)):
            # The child inherits this process's CPU.
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            start = time.perf_counter()
            child = subprocess.Popen(command, env=env,
                                     stdout=subprocess.DEVNULL)
            # wait() with a timeout polls in steps of up to 50 ms, which
            # would quantize the measurement; a watchdog thread bounds it.
            watchdog = threading.Timer(SETUP_LIMIT_S, child.kill)
            watchdog.start()
            try:
                code = child.wait()
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
            if code != 0:
                raise subprocess.CalledProcessError(code, command)
            if warm or index:
                times.append(elapsed)
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (SRC / "sloccsim" / "cli.py").is_file():
        print(f"no sloccsim sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{os.getpid()}"
    env = _child_env()
    try:
        plan = inputs.make_plan(args.workload, args.seed, work)
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        setup = [] if args.trace else measure_setup(env, warm=False)
        command = [sys.executable, str(HERE / "worker.py"),
                   "--plan", str(work / "plan.json"),
                   "--references", str(HERE / "references.json"),
                   "--result", str(work / "result.json"),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            command += ["--spans",
                        str(OUT / "results" / f"{args.workload}-spans.csv")]
        done = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=RUN_LIMIT_S - (time.perf_counter() - started))
        if done.returncode != 0:
            print(f"worker exited with {done.returncode}:\n{done.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if not args.trace:
            setup += measure_setup(env, warm=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    samples = result["samples"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        samples["setup_s"] = len(setup)
    if set(metrics) != expected:
        print(f"metrics differ from BENCHMARK.json: missing "
              f"{sorted(expected - set(metrics))}, extra "
              f"{sorted(set(metrics) - expected)}", file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
        "python": result["python"], "numpy": result["numpy"],
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "cpus": result["cpus"],
        "samples": samples, "pass_times": result["pass_times"],
        "setup_times": setup,
        "failures": result["failures"],
    }
    summary = {"correct": result["failed"] == 0,
               "attempted": result["attempted"], "failed": result["failed"],
               "metrics": metrics}
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
