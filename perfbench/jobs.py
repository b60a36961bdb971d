"""The three workloads as seeded job lists, and the frozen output checks.

A job is either a ``pnh`` CLI invocation (``argv`` without the leading
``pnh`` and without ``--output``) or a library call of the symmetry action
``pnh.faces.aut_action_on_halfspaces``.  The seed only shuffles the job
order, draws each job's ``--a`` from ``A_CHOICES`` and picks the D4 symmetry
sample; the type/building matrix of each workload is fixed.

The reference values below were measured on the code the benchmark was
written against.  None of them depends on ``--a``.
"""

from __future__ import annotations

import json
import random

A_CHOICES = ("1", "2", "3", "3/2", "5/2")

# f-vectors (f_0 .. f_n); H = f_{n-1}, V = f_0
FVECTORS = {
    ("A4", "minimal"): (1680, 3720, 2580, 540, 1),
    ("A4", "maximal"): (2880, 5760, 3420, 540, 1),
    ("B4", "minimal"): (5376, 11904, 8224, 1696, 1),
    ("A2xB2", "minimal"): (384, 960, 796, 220, 1),
    ("A1^4", "interval"): (224, 496, 352, 80, 1),
    ("B3", "maximal"): (288, 432, 146, 1),
}
# face-poset node and covering-edge counts
POSETS = {
    ("B3", "maximal"): (867, 1874),
    ("A1^4", "interval"): (1153, 3376),
    ("A2xB2", "minimal"): (2361, 7188),
}
# defining half-spaces of the models the symmetry jobs act on
SYMMETRY_H = {
    ("A3", "minimal"): 74,
    ("A3", "maximal"): 74,
    ("D4", "minimal"): 864,
}
# |W| x diagram automorphisms of A3: the pairs a mode-"all" job acts with
A3_PAIRS = 24 * 2
D4_ORDER = 192
D4_DIAGRAM_AUTOMORPHISMS = 6
D4_SAMPLE = 48

# (command, type, building, extra CLI arguments)
_CLI = {
    "construct": [
        ("build", "A4", "minimal", ()),
        ("build", "B4", "minimal", ()),
        ("build", "A2xB2", "minimal", ()),
        ("build", "A1^4", "interval", ()),
        ("fvector", "A4", "maximal", ()),
    ],
    "verify": [
        ("verify", "A3", "minimal", ("--level", "full")),
        ("verify", "B3", "maximal", ("--level", "full")),
        ("verify", "A2xB2", "minimal", ("--level", "fast")),
        ("export", "B3", "maximal", ("--format", "off")),
    ],
    "lattice": [
        ("poset", "B3", "maximal", ("--edges", "yes")),
        ("poset", "A1^4", "interval", ("--edges", "yes")),
        ("poset", "A2xB2", "minimal", ("--edges", "yes")),
    ],
}
# (type, building, mode): "all" acts with every (w, gamma); "d4" checks
# that the D4 triality has order 3, then acts with D4_SAMPLE seeded pairs
_SYMMETRY = {
    "lattice": [
        ("A3", "minimal", "all"),
        ("A3", "maximal", "all"),
        ("D4", "minimal", "d4"),
    ],
}

WORKLOADS = tuple(_CLI)


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's jobs for ``seed``, in the order they run."""
    if workload not in _CLI:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    jobs = []
    for command, type_, building, extra in _CLI[workload]:
        a = rng.choice(A_CHOICES)
        argv = [command, "--type", type_, "--building", building, "--a", a]
        jobs.append({"kind": "cli", "argv": argv + list(extra),
                     "key": [type_, building]})
    for type_, building, mode in _SYMMETRY.get(workload, ()):
        job = {"kind": "symmetry", "type": type_, "building": building,
               "a": rng.choice(A_CHOICES), "mode": mode,
               "key": [type_, building]}
        if mode == "d4":
            job["pairs"] = [
                [rng.randrange(D4_ORDER), rng.randrange(D4_DIAGRAM_AUTOMORPHISMS)]
                for _ in range(D4_SAMPLE)
            ]
        jobs.append(job)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def describe(job: dict) -> str:
    """A line that replays the job by hand."""
    if job["kind"] == "cli":
        return "pnh " + " ".join(job["argv"])
    text = (f"symmetry --type {job['type']} --building {job['building']} "
            f"--a {job['a']} --mode {job['mode']}")
    if job["mode"] == "d4":
        text += " --pairs " + ",".join(f"{w}:{g}" for w, g in job["pairs"])
    return text


def check(job: dict, code, output) -> str | None:
    """None when the job's output matches the references, else the reason.

    ``output`` is the bytes the CLI wrote to ``--output``, or for a
    symmetry job the dict the job returned.
    """
    if code != 0:
        return f"exit code {code}"
    key = tuple(job["key"])
    if job["kind"] == "symmetry":
        return _check_symmetry(job, key, output)
    command = job["argv"][0]
    text = output.decode("utf-8")
    if command == "build":
        doc = json.loads(text)
        fvec = FVECTORS[key]
        got = (tuple(doc["f_vector"]), len(doc["hrep"]), len(doc["vrep"]))
        if got != (fvec, fvec[-2], fvec[0]):
            return f"f-vector, H, V = {got}, expected {fvec}"
        return None
    if command == "fvector":
        rows = [line.split() for line in text.splitlines()]
        got = tuple(int(r[1]) for r in rows if len(r) >= 2 and r[0].isdigit())
        if got != FVECTORS[key]:
            return f"f-vector {got}, expected {FVECTORS[key]}"
        return None
    if command == "verify":
        status = [line.split(" ", 1)[0] for line in text.splitlines()
                  if not line.startswith(" ")]
        if not status or any(s != "PASS" for s in status):
            return f"verify lines {status}"
        return None
    if command == "export":
        return _check_off(text, FVECTORS[key])
    if command == "poset":
        doc = json.loads(text)
        got = (len(doc["nodes"]), len(doc["edges"]))
        if got != POSETS[key]:
            return f"poset nodes/edges {got}, expected {POSETS[key]}"
        return None
    return f"no check for {command!r}"


def _check_off(text: str, fvec) -> str | None:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if lines[0] != "OFF":
        return "missing OFF header"
    v, f, e = (int(x) for x in lines[1].split())
    if (v, f, e) != (fvec[0], fvec[2], fvec[1]):
        return f"OFF counts {(v, f, e)}, expected {fvec}"
    faces = lines[2 + v:]
    if len(faces) != f:
        return f"{len(faces)} OFF faces, expected {f}"
    for row in faces:
        ids = [int(x) for x in row.split()]
        if ids[0] != len(ids) - 1 or ids[0] < 3 or not all(0 <= i < v for i in ids[1:]):
            return f"bad OFF face {row!r}"
    return None


def _check_symmetry(job: dict, key, output: dict) -> str | None:
    h = SYMMETRY_H[key]
    if output["halfspaces"] != h:
        return f"{output['halfspaces']} half-spaces, expected {h}"
    identity = list(range(h))
    for perm in output["perms"]:
        if sorted(perm) != identity:
            return "a symmetry does not permute the half-spaces"
    if job["mode"] == "d4":
        p = output["perms"][0]
        p2 = [p[i] for i in p]
        p3 = [p[i] for i in p2]
        if p == identity or p2 == identity or p3 != identity:
            return "triality does not act with order 3"
    expected = {"all": A3_PAIRS, "d4": 1 + D4_SAMPLE}[job["mode"]]
    if len(output["perms"]) != expected:
        return f"{len(output['perms'])} permutations, expected {expected}"
    return None
