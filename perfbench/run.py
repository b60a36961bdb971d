"""Benchmark of the ``pnh`` CLI: construct, verify and lattice workloads.

Each workload is a fixed list of jobs (see ``jobs.py``), run as a closed
loop: one job at a time, in one process, with no threads.  A job is a
``pnh`` CLI invocation made through ``pnh.cli.run(argv)`` with ``--output``
set to a scratch file, or a library call of the symmetry action; each
builds a fresh model, as a separate ``pnh`` command would.  Every pass over
the jobs runs in a new interpreter (``worker.py``), and every job's output
is checked against frozen references after the timed window.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload lattice --seed 1 --list

``--trace 0`` reports the end-to-end metrics, untraced: ``setup_s`` (median
time from spawning a pass's interpreter until ``pnh.cli`` is imported and
the jobs are generated, over the passes and the set-up-only interpreters
started between them); ``wall_s`` (one pass: the sum over the jobs of each
job's median time over the passes); ``job_gmean_s`` (geometric mean over the
jobs of those medians); ``peak_rss_mb`` (median over the passes of the pass
process's ``ru_maxrss``).  Passes repeat while another one fits in
``--seconds``; there is always at least one.  ``failed_ratio`` (failed jobs
/ attempted jobs) is printed too.

The three times are in reference seconds: each time is multiplied by
``REFERENCE_S / r``, where ``r`` is the time of the fixed kernel
``worker.reference`` taken in the same interpreter (once it is ready, for
set-up; the mean of the timings just before and just after it, for a job).
On a shared machine a neighbour can slow the interpreter by a third or
more for minutes at a time; such a spell slows the kernel alike and
cancels out, where it would move a median of measured times by a quarter
from one run to the next.  The table also prints the measured medians.

``--trace 1`` reports the per-layer metrics of ``spans.py``: untraced and
traced passes in turns, while another pair fits in ``--seconds`` (self
times and counters, medians over the traced passes; the last one's spans
are written to ``.perfbench/spans-<workload>-seed<seed>.jsonl``).
``trace.wall_s`` is the traced ``wall_s`` and ``trace.overhead_s`` that
minus the untraced ``wall_s``, both in reference seconds; the self times
are measured seconds.

``--memory`` runs one pass with ``tracemalloc`` on instead and reports the
retained allocation per layer (``<layer>.retained_mb``).  It is a command
of its own because ``tracemalloc`` slows the jobs down five- to ninefold.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
pass ran, whether or not outputs were correct, and 1 when a pass could not
run (then no JSON is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import jobs as joblist
from spans import PER_LAYER, RETAINED, unit_of

# about the reference kernel's time on the 2-vCPU machine the benchmark was
# written on, with Python 3.11.7, so that the times read as seconds there
REFERENCE_S = 0.025

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# interpreters started only to time set-up, before the first pass and
# after each pass, on top of the one each pass starts
SETUP_SPAWNS = 3
# a run must end within 180 s; leave room for the report
DEADLINE_S = 170.0


class PassFailed(Exception):
    pass


class Runner:
    """Spawns the pass interpreters of one workload and seed."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = os.path.join(OUT_DIR, f"{workload}-seed{seed}-{os.getpid()}")
        self.count = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, mode: str) -> dict:
        self.count += 1
        out = os.path.join(self.work, f"{mode}-{self.count}.json")
        # -S: the machine's site-packages hooks, which pnh does not use,
        # stay out of the set-up time
        cmd = [sys.executable, "-S", WORKER, "--root", ROOT, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--work", self.work, "--out", out]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PassFailed("out of time")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=remaining,
                                  stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            raise PassFailed(f"{mode} pass passed the deadline") from None
        if proc.returncode != 0:
            raise PassFailed(f"{mode} pass exited with code {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - spawned
        return result


def _quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def geometric_mean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def scaled_jobs(result: dict) -> list[float]:
    """A pass's job times in reference seconds, each by the mean of the
    reference timings taken just before and just after it."""
    refs = [result["ref_s"]] + result["ref_after_s"]
    return [t * 2 * REFERENCE_S / (refs[i] + refs[i + 1])
            for i, t in enumerate(result["job_s"])]


def measure(runner: Runner, seconds: float) -> tuple[dict, list]:
    """End-to-end metrics: name -> (value, unit, samples); plus the passes."""
    # set-up samples are spread over the run, so a slow spell of the
    # machine while they are taken does not decide the median
    start = time.monotonic()
    spawns = [runner.spawn("setup") for _ in range(SETUP_SPAWNS)]
    passes = []
    while True:
        passes.append(runner.spawn("plain"))
        spawns += [runner.spawn("setup") for _ in range(SETUP_SPAWNS)]
        spent = time.monotonic() - start
        if spent + spent / len(passes) > seconds:
            break
    setups = [s["setup_s"] * REFERENCE_S / s["ref_s"] for s in spawns + passes]
    scaled = [scaled_jobs(p) for p in passes]
    # each job's median over the passes: a slow spell of the machine that
    # hits one job in one pass does not move the figures
    per_job = [statistics.median(times) for times in zip(*scaled)]
    measured = [statistics.median(times) for times in zip(*(p["job_s"] for p in passes))]
    setup = statistics.median(s["setup_s"] for s in spawns + passes)
    reference = statistics.median(s["ref_s"] for s in spawns + passes)
    print(f"  measured, unscaled: setup_s {setup:.6g}  wall_s {sum(measured):.6g}"
          f"  job_gmean_s {geometric_mean(measured):.6g}  reference {reference:.6g} s")
    metrics = {
        "setup_s": (statistics.median(setups), "s", setups),
        "wall_s": (sum(per_job), "s", [sum(times) for times in scaled]),
        "job_gmean_s": (geometric_mean(per_job), "s", [geometric_mean(t) for t in scaled]),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB",
                        [p["rss_mb"] for p in passes]),
    }
    return metrics, passes


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, list]:
    """Per-layer metrics: name -> (value, unit, samples); plus the passes."""
    # untraced and traced passes in turns, while another pair fits
    start = time.monotonic()
    plain, traced = [], []
    while True:
        plain.append(runner.spawn("plain"))
        traced.append(runner.spawn("traced"))
        spent = time.monotonic() - start
        if spent + spent / len(traced) > seconds:
            break
    os.replace(os.path.join(runner.work, "spans.jsonl"),
               os.path.join(OUT_DIR, f"spans-{runner.workload}-seed{runner.seed}.jsonl"))
    samples = {name: [t["layers"][name] for t in traced] for name in traced[0]["layers"]}
    walls = {}
    for mode, passes in (("plain", plain), ("traced", traced)):
        per_job = zip(*(scaled_jobs(p) for p in passes))
        walls[mode] = sum(statistics.median(times) for times in per_job)
    samples["trace.wall_s"] = [sum(scaled_jobs(t)) for t in traced]
    samples["trace.overhead_s"] = [sum(scaled_jobs(t)) - sum(scaled_jobs(p))
                                   for p, t in zip(plain, traced)]
    # median_low: a count stays a whole number
    layers = {name: statistics.median_low(values) for name, values in samples.items()}
    layers["trace.wall_s"] = walls["traced"]
    layers["trace.overhead_s"] = walls["traced"] - walls["plain"]
    layers["trace.self_sum_error_s"] = max(samples["trace.self_sum_error_s"])
    metrics = {name: (layers[name], unit_of(name), samples[name]) for name in PER_LAYER}
    return metrics, plain + traced


def measure_memory(runner: Runner) -> tuple[dict, list]:
    """Retained allocation per layer: name -> (MB, unit, samples); plus the pass."""
    memory = runner.spawn("memory")
    metrics = {name: (memory["layers"][name], "MB", [memory["layers"][name]])
               for name in RETAINED}
    return metrics, [memory]


def run_workload(workload: str, seed: int, seconds: float, mode: str, deadline: float):
    runner = Runner(workload, seed, deadline)
    jobs = joblist.generate(workload, seed)
    print(f"workload {workload}, seed {seed}: {len(jobs)} jobs")
    for job in jobs:
        print(f"  job {job['id']}: {joblist.describe(job)}")
    os.makedirs(runner.work)
    try:
        if mode == "memory":
            metrics, passes = measure_memory(runner)
        elif mode == "trace":
            metrics, passes = measure_layers(runner, seconds)
        else:
            metrics, passes = measure(runner, seconds)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for job, reason in failures:
        print(f"  FAILED job {job}: {reason}")
    outcomes = [0] * (attempted - len(failures)) + [1] * len(failures)
    metrics["failed_ratio"] = (len(failures) / attempted, "1", outcomes)
    for name, (value, unit, samples) in metrics.items():
        if len(samples) > 1 and name != "failed_ratio":
            lo, hi = _quartiles(samples)
            spread = f"  quartiles {lo:.6g} .. {hi:.6g}"
        else:
            spread = ""
        print(f"{workload:>9}  {name:<36} {value:>14.6g} {unit:<5} n={len(samples)}{spread}")
    return metrics, attempted, len(failures)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=joblist.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--memory", action="store_true",
                   help="run one tracemalloc pass and report retained MB per layer")
    p.add_argument("--list", action="store_true", help="print the jobs and exit")
    args = p.parse_args()

    workloads = joblist.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.list:
        for w in workloads:
            for job in joblist.generate(w, args.seed):
                print(f"{w} job {job['id']}: {joblist.describe(job)}")
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "pnh", "cli.py")):
        print(f"run.py: no pnh sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    report, attempted, failed = {}, 0, 0
    try:
        for w in workloads:
            mode = "memory" if args.memory else ("trace" if args.trace else "plain")
            metrics, n, bad = run_workload(w, args.seed, args.seconds, mode, deadline)
            attempted += n
            failed += bad
            for name, (value, unit, _) in metrics.items():
                if name == "failed_ratio":
                    continue
                key = name if len(workloads) == 1 else f"{w}.{name}"
                report[key] = {"value": value, "unit": unit}
    except PassFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
