"""One pass over a workload's jobs, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The pass imports
``pnh.cli`` from the checkout's ``src``, generates the jobs, notes the
moment it is ready (the end of set-up), then runs every job in order, one
at a time, each building a fresh model.  Outputs are checked against the
frozen references after the timed window.  The result goes to ``--out`` as
JSON.

Every interpreter also times a fixed reference kernel (``reference``) once
it is ready, and a pass times it again after each job.  ``run.py`` divides
each time by the reference time taken around it, so that a spell in which
the shared machine runs every interpreter slower moves both alike and
cancels out.

Modes: ``setup`` stops once ready; ``plain`` runs the jobs untraced;
``traced`` runs them with the span wrappers of ``spans.py`` installed;
``memory`` runs them with the wrappers and ``tracemalloc`` on, for the
retained allocation per layer (its timings are thrown away).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import tracemalloc
from fractions import Fraction

import jobs as joblist
from spans import ROOT_CLI, ROOT_LIBRARY, MemoryTracer, Tracer

TRIALITY = (2, 1, 3, 0)
# iterations of the reference kernel: about 25 ms on the 2-vCPU machine the
# benchmark was written on, with Python 3.11
REFERENCE_ROUNDS = 6000
# float rounding of the telescoping sum over up to millions of spans
SELF_SUM_TOLERANCE_S = 1e-6


def reference() -> int:
    """Fixed pure-Python work like pnh's: exact fractions, tuple-keyed dicts.

    It calls no pnh code, so no change to the program moves its time.
    """
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, REFERENCE_ROUNDS):
        acc += Fraction(i % 89 + 1, i % 97 + 2)
        key = (i % 211, i % 7)
        table[key] = table.get(key, 0) + acc.numerator % 1000
    return len(sorted(table.items())) + len(frozenset(k for k in table if k[1] == 3))


def time_reference() -> float:
    # with the collector off, the heap the jobs left behind does not
    # change what the kernel costs
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _import_pnh(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import pnh.cli

    where = os.path.dirname(os.path.realpath(pnh.__file__))
    if where != os.path.realpath(os.path.join(src, "pnh")):
        raise SystemExit(f"pnh imported from {where}, not from {src}")
    return pnh.cli


def symmetry_job(job: dict) -> dict:
    """Permutations of the defining half-spaces by w . gamma (library call)."""
    from pnh import faces, flats, model, roots, weyl

    rs = roots.build_root_system(job["type"])
    group = weyl.enumerate_group(rs)
    build = flats.build_minimal if job["building"] == "minimal" else flats.build_maximal
    building = build(rs, group)
    poly = model.build_model(building, a=Fraction(job["a"]), weyl=group)
    halfspaces = poly.halfspaces
    autos = roots.diagram_automorphisms(rs)
    if job["mode"] == "all":
        pairs = [(w, g) for g in range(len(autos)) for w in range(group.order)]
    else:
        if (group.order, len(autos)) != (joblist.D4_ORDER, joblist.D4_DIAGRAM_AUTOMORPHISMS):
            raise ValueError("the D4 sample was drawn for another group")
        triality = [a.perm for a in autos].index(TRIALITY)
        pairs = [(group.identity_id, triality)] + job["pairs"]
    perms = [
        faces.aut_action_on_halfspaces(building, group, halfspaces, w, autos[g].matrix)
        for w, g in pairs
    ]
    return {"halfspaces": len(halfspaces), "perms": perms}


def _run_one(cli, job: dict, out_path: str, tracer):
    """(exit code or error text, output) of one job."""
    try:
        if job["kind"] == "cli":
            argv = job["argv"] + ["--output", out_path]
            if tracer is None:
                return cli.run(argv), None
            return tracer.run_job(job["id"], ROOT_CLI, cli.run, argv), None
        if tracer is None:
            return 0, symmetry_job(job)
        return 0, tracer.run_job(job["id"], ROOT_LIBRARY, symmetry_job, job)
    except Exception as exc:  # a job that raises is a failed job, not a dead pass
        return f"raised {type(exc).__name__}: {exc}", None


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "plain", "traced", "memory"), required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    cli = _import_pnh(args.root)
    jobs = joblist.generate(args.workload, args.seed)
    result = {"ready": time.monotonic()}
    result["ref_s"] = time_reference()
    if args.mode != "setup":
        result.update(run_pass(cli, jobs, args))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def run_pass(cli, jobs: list[dict], args) -> dict:
    tracer = {"traced": Tracer, "memory": MemoryTracer}.get(args.mode)
    if tracer is not None:
        tracer = tracer()
        tracer.install()
    # the reference time after each job; the one before the first job is
    # the interpreter's own, taken once it was ready
    ref_after = []
    paths = [os.path.join(args.work, f"job-{job['id']}.out") for job in jobs]
    if args.mode == "memory":
        tracemalloc.start()
    outcomes, job_s = [], []
    for job, path in zip(jobs, paths):
        t0 = time.perf_counter()
        outcomes.append(_run_one(cli, job, path, tracer))
        job_s.append(time.perf_counter() - t0)
        ref_after.append(time_reference())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode == "memory":
        tracemalloc.stop()

    failures = []
    for job, path, (code, output) in zip(jobs, paths, outcomes):
        reason = code if isinstance(code, str) else None
        if reason is None and job["kind"] == "cli":
            try:
                with open(path, "rb") as fh:
                    output = fh.read()
            except OSError as exc:
                reason = f"no output: {exc}"
        if reason is None:
            try:
                reason = joblist.check(job, code, output)
            except (ValueError, KeyError, IndexError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if os.path.exists(path):
            os.remove(path)
        if reason is not None:
            failures.append([job["id"], reason])

    out = {
        "job_s": job_s,
        "ref_after_s": ref_after,
        "rss_mb": rss_mb,
        "attempted": len(jobs),
        "failures": failures,
    }
    if tracer is not None:
        tracer.uninstall()
        if args.mode == "traced":
            layers, errors = tracer.summary()
            for job, error in errors.items():
                if abs(error) > SELF_SUM_TOLERANCE_S:
                    failures.append([job, f"self times miss the root span by {error} s"])
            tracer.dump(os.path.join(args.work, "spans.jsonl"))
        else:
            layers = tracer.summary()
        out["layers"] = layers
    return out


if __name__ == "__main__":
    main()
