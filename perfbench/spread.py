"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload verify --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py --trace 0`` once per seed and workload, one run at a time.
For each metric it prints the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, the figure that
``BENCHMARK.json`` bounds.  A spread above a third of the metric's bound is
flagged.  With ``--layers`` it also makes one ``--trace 1`` run and one
``--memory`` run per workload, on the first seed.  ``--out`` writes all the
figures, with ``nproc`` and the Python version, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import jobs as joblist

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def _bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["run_seconds"], {m["name"]: m["bound"] for m in bench["end_to_end"]}


def run_once(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed jobs")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread_of(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=joblist.WORKLOADS + ("all",))
    p.add_argument("--seeds", default="1-10", help='"1-10" or "3,5,8"')
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--layers", action="store_true",
                   help="add one traced run and one memory run per workload")
    p.add_argument("--out", default=None)
    args = p.parse_args()

    run_seconds, bounds = _bounds()
    seconds = args.seconds or run_seconds
    seeds = _seeds(args.seeds)
    workloads = joblist.WORKLOADS if args.workload == "all" else (args.workload,)
    report = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in workloads:
        runs = [run_once(w, seed, seconds, "--trace", "0") for seed in seeds]
        figures = {name: spread_of([r[name] for r in runs]) for name in runs[0]}
        report["workloads"][w] = figures
        if args.layers:
            report.setdefault("per_layer", {})[w] = run_once(
                w, seeds[0], seconds, "--trace", "1")
            report.setdefault("memory", {})[w] = run_once(w, seeds[0], seconds, "--memory")
        for name, f in figures.items():
            flag = "  above a third of the bound" if f["spread"] > bounds[name] / 3 else ""
            print(f"{w:>9}  {name:<12} median {f['median']:<12.6g} quartiles "
                  f"{f['q1']:.6g} .. {f['q3']:.6g}  spread {f['spread']:.4f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
