"""Spans and counters recorded from outside the ``pnh`` package.

``Tracer.install`` replaces each layer's public functions, at the name their
caller looks them up by (``pnh.model.facet_vertex_sets``,
``pnh.faces.left_cosets``, ``pnh.cli.build_document``, ...), with a wrapper
that records a span: name, start, end, parent span and job.  ``WeylGroup.mul``
and ``WeylGroup.inv`` are wrapped on the class as counters only, since a
span per group product would swamp the trace.  ``linalg`` and ``counting``
get no wrapper: they are called inline from every hot loop, so their cost
is charged to the caller's self time.

A call of a name marked ``fold`` that makes no child span is added to a
(name, parent, job) aggregate instead of being kept as its own span; the
poset jobs make millions of ``is_face_leq`` calls.  Self time is a span's
duration minus the time its child spans cover, so the self times inside a
job add up to the job's root span; ``Tracer.summary`` reports by how much
they miss.

``MemoryTracer`` wraps the same names, except the folded ones, for a pass
with ``tracemalloc`` on.  A layer's retained allocation is the traced
memory still held when each of its top-level spans (no enclosing span of
the same layer) returns, minus what was held when it was entered, with the
garbage collector run at both ends; it includes what nested layers kept.
"""

from __future__ import annotations

import functools
import importlib
import gc
import json
import tracemalloc
from collections import defaultdict
from time import perf_counter

MB = 1024 * 1024


def _count_len(key):
    def post(tracer, args, result):
        tracer.counters[key] += len(result)
    return post


def _post_group(tracer, args, result):
    tracer.counters["weyl.order_sum"] += result.order
    tracer.register_group(result)


def _post_flats(tracer, args, result):
    tracer.counters["flats.count"] += len(result.flats)


def _post_fundamental(tracer, args, result):
    tracer.last_fundamental = len(result)


def _post_halfspaces(tracer, args, result):
    tracer.counters["halfspaces.count"] += len(result)
    tracer.counters["halfspaces.orbit_base"] += args[2].order * tracer.last_fundamental


def _post_vrep(tracer, args, result):
    tracer.counters["polytope.vertex_count"] += len(result.vertices)


def _post_facet_sets(tracer, args, result):
    tracer.counters["polytope.facet_sets_pairs"] += len(args[1]) * len(args[2].vertices)
    tracer.counters["polytope.facet_sets_tight"] += sum(len(s) for s in result)


def _post_hrep_vrep(tracer, args, result):
    tracer.counters["polytope.hrep_vrep_pairs"] += result.checked


def _post_geometric(tracer, args, result):
    tracer.counters["faces.vertices_geometric_scanned"] += len(args[2].vertices)
    tracer.counters["faces.vertices_geometric_hits"] += len(result)


def _post_leq(tracer, args, result):
    tracer.counters["faces.leq_calls"] += 1
    tracer.counters["faces.leq_true"] += bool(result)


def _post_aut(tracer, args, result):
    tracer.counters["faces.aut_action_calls"] += 1


def _post_json(tracer, args, result):
    tracer.counters["exports.json_bytes"] += len(result)


# (module, attribute, span name, fold, post-hook).  A function is wrapped
# under every name a caller looks it up by: the CLI's, the model's, and the
# defining module's where another module or the symmetry job calls it there.
WRAPS = [
    ("pnh.cli", "build_root_system", "roots.build_root_system", False, None),
    ("pnh.roots", "build_root_system", "roots.build_root_system", False, None),
    ("pnh.roots", "diagram_automorphisms", "roots.diagram_automorphisms", False, None),
    ("pnh.flats", "diagram_automorphisms", "roots.diagram_automorphisms", False, None),
    ("pnh.cli", "enumerate_group", "weyl.enumerate_group", False, _post_group),
    ("pnh.weyl", "enumerate_group", "weyl.enumerate_group", False, _post_group),
    ("pnh.model", "enumerate_group", "weyl.enumerate_group", False, _post_group),
    ("pnh.faces", "parabolic_subgroup", "weyl.parabolic_subgroup", False, None),
    ("pnh.faces", "subgroup_product", "weyl.subgroup_product", False, None),
    ("pnh.faces", "left_cosets", "weyl.left_cosets", False, None),
    ("pnh.model", "canonical_coset_rep", "weyl.canonical_coset_rep", False, None),
    ("pnh.cli", "build_minimal", "flats.build_minimal", False, _post_flats),
    ("pnh.cli", "build_maximal", "flats.build_maximal", False, _post_flats),
    ("pnh.cli", "interval_building_set", "flats.interval_building_set", False, _post_flats),
    ("pnh.flats", "build_minimal", "flats.build_minimal", False, _post_flats),
    ("pnh.flats", "build_maximal", "flats.build_maximal", False, _post_flats),
    ("pnh.faces", "enumerate_nested_sets", "nested.enumerate_nested_sets", False,
     _count_len("nested.count")),
    ("pnh.nested", "enumerate_nested_sets", "nested.enumerate_nested_sets", False,
     _count_len("nested.count")),
    ("pnh.polytope", "enumerate_maximal_nested_sets",
     "nested.enumerate_maximal_nested_sets", False, None),
    ("pnh.model", "suitable_list", "halfspaces.suitable_list", False, None),
    ("pnh.model", "ratio_table", "halfspaces.ratio_table", False, None),
    ("pnh.model", "check_increasing", "halfspaces.check_increasing", False, None),
    ("pnh.model", "verify_epsilon_lemma", "halfspaces.verify_epsilon_lemma", False, None),
    ("pnh.model", "fundamental_halfspaces", "halfspaces.fundamental_halfspaces", False, None),
    ("pnh.halfspaces", "fundamental_halfspaces", "halfspaces.fundamental_halfspaces",
     False, _post_fundamental),
    ("pnh.model", "all_halfspaces", "halfspaces.all_halfspaces", False, _post_halfspaces),
    ("pnh.model", "all_vertices", "polytope.all_vertices", False, _post_vrep),
    ("pnh.model", "facet_vertex_sets", "polytope.facet_vertex_sets", False, _post_facet_sets),
    ("pnh.model", "verify_hrep_vrep", "polytope.verify_hrep_vrep", False, _post_hrep_vrep),
    ("pnh.model", "nestohedron_check", "polytope.nestohedron_check", False, None),
    ("pnh.model", "face_vertices", "faces.face_vertices", True, None),
    ("pnh.model", "face_vertices_geometric", "faces.face_vertices_geometric", True,
     _post_geometric),
    ("pnh.model", "is_simple", "faces.is_simple", False, None),
    ("pnh.model", "f_vector", "faces.f_vector", False, None),
    ("pnh.model", "enumerate_faces", "faces.enumerate_faces", False,
     _count_len("faces.face_count")),
    ("pnh.model", "is_face_leq", "faces.is_face_leq", True, _post_leq),
    ("pnh.faces", "aut_action_on_halfspaces", "faces.aut_action_on_halfspaces", False,
     _post_aut),
    ("pnh.cli", "build_document", "exports.build_document", False, None),
    ("pnh.cli", "fvector_table", "exports.fvector_table", False, None),
    ("pnh.cli", "to_json_bytes", "exports.to_json_bytes", False, _post_json),
    ("pnh.cli", "poset_document", "exports.poset_document", False, None),
    ("pnh.cli", "off_text", "exports.off_text", False, None),
]
# methods wrapped on their class: (module, class, method, span name)
METHOD_WRAPS = [
    ("pnh.model", "Permutonestohedron", "verify", "model.verify"),
]
ROOT_CLI = "cli.run"
ROOT_LIBRARY = "job.symmetry"

# per-layer self-time metrics: metric -> span names whose self time it sums
SELF_TIME = {
    "cli.self_s": [ROOT_CLI],
    "model.verify_self_s": ["model.verify"],
    "roots.build_s": ["roots.build_root_system", "roots.diagram_automorphisms"],
    "weyl.enumerate_s": ["weyl.enumerate_group"],
    "weyl.parabolic_s": ["weyl.parabolic_subgroup", "weyl.subgroup_product"],
    "weyl.cosets_s": ["weyl.left_cosets", "weyl.canonical_coset_rep"],
    "flats.building_s": ["flats.build_minimal", "flats.build_maximal",
                         "flats.interval_building_set"],
    "nested.enumerate_s": ["nested.enumerate_nested_sets",
                           "nested.enumerate_maximal_nested_sets"],
    "halfspaces.suitable_s": ["halfspaces.suitable_list", "halfspaces.ratio_table",
                              "halfspaces.check_increasing"],
    "halfspaces.lemma_s": ["halfspaces.verify_epsilon_lemma"],
    "halfspaces.all_s": ["halfspaces.all_halfspaces", "halfspaces.fundamental_halfspaces"],
    "polytope.vrep_s": ["polytope.all_vertices"],
    "polytope.facet_sets_s": ["polytope.facet_vertex_sets"],
    "polytope.hrep_vrep_s": ["polytope.verify_hrep_vrep"],
    "polytope.nestohedron_s": ["polytope.nestohedron_check"],
    "faces.vertices_s": ["faces.face_vertices"],
    "faces.vertices_geometric_s": ["faces.face_vertices_geometric"],
    "faces.simple_s": ["faces.is_simple"],
    "faces.f_vector_s": ["faces.f_vector"],
    "faces.enumerate_s": ["faces.enumerate_faces"],
    "faces.leq_s": ["faces.is_face_leq"],
    "faces.aut_action_s": ["faces.aut_action_on_halfspaces"],
    "exports.document_s": ["exports.build_document", "exports.fvector_table"],
    "exports.json_s": ["exports.to_json_bytes"],
    "exports.poset_s": ["exports.poset_document"],
    "exports.off_s": ["exports.off_text"],
}
COUNTS = [
    "weyl.order_sum", "weyl.mul_calls", "weyl.inv_calls", "flats.count",
    "nested.count", "halfspaces.count", "polytope.vertex_count",
    "polytope.facet_sets_pairs", "polytope.hrep_vrep_pairs",
    "faces.vertices_geometric_scanned", "faces.face_count", "faces.leq_calls",
    "faces.aut_action_calls", "exports.json_bytes",
]
# ratio metric -> (numerator counter, denominator counter); 0 when nothing was asked
RATIOS = {
    "weyl.mul_distinct_ratio": ("weyl.mul_distinct", "weyl.order_sq_sum"),
    "halfspaces.orbit_yield": ("halfspaces.count", "halfspaces.orbit_base"),
    "polytope.tight_ratio": ("polytope.facet_sets_tight", "polytope.facet_sets_pairs"),
    "faces.vertices_geometric_hit_ratio": ("faces.vertices_geometric_hits",
                                           "faces.vertices_geometric_scanned"),
    "faces.leq_true_ratio": ("faces.leq_true", "faces.leq_calls"),
}
RETAINED_LAYERS = ["weyl", "halfspaces", "polytope", "faces", "exports"]
# the per-layer metrics of a traced run, in report order
TRACE_METRICS = ["trace.wall_s", "trace.overhead_s", "trace.span_count",
                 "trace.self_sum_error_s"]
PER_LAYER = list(SELF_TIME) + COUNTS + list(RATIOS) + TRACE_METRICS
RETAINED = [f"{layer}.retained_mb" for layer in RETAINED_LAYERS]


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio") or metric.endswith("_yield"):
        return "1"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


class _Patcher:
    """Replaces module and class attributes and puts them back."""

    def __init__(self):
        self._undo: list[tuple] = []

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install_wraps(self, skip_folded: bool) -> None:
        for module, attr, name, fold, post in WRAPS:
            if fold and skip_folded:
                continue
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.wrap(getattr(mod, attr), name, fold, post))
        for module, cls_name, method, name in METHOD_WRAPS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method, self.wrap(getattr(cls, method), name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer(_Patcher):
    """Span stack, recorded spans, folded leaf spans and counters."""

    def __init__(self):
        super().__init__()
        # recorded spans: (id, name, start, end, parent id, job)
        self.spans: list[tuple] = []
        # (name, parent id, job) -> [calls, total seconds] of folded leaf calls
        self.folded: dict[tuple, list] = {}
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.last_fundamental = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._job = None
        self._groups: dict[int, tuple] = {}

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, name: str, fold: bool = False, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack:
                stack[-1][1] = True
            # frame: span id, made a child span
            frame = [tracer._next_id, False]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._record(frame, name, fold, start, end)
            if post is not None:
                post(tracer, args, result)
            return result

        return wrapper

    def _record(self, frame: list, name: str, fold: bool, start: float, end: float):
        parent_id = self._stack[-1][0] if self._stack else None
        if fold and not frame[1]:
            key = (name, parent_id, self._job)
            agg = self.folded.get(key)
            if agg is None:
                self.folded[key] = [1, end - start]
            else:
                agg[0] += 1
                agg[1] += end - start
        else:
            self.spans.append((frame[0], name, start, end, parent_id, self._job))

    def run_job(self, job_id: int, name: str, fn, *args):
        """Call ``fn(*args)`` as the root span of job ``job_id``."""
        self._job = job_id
        try:
            return self.wrap(fn, name)(*args)
        finally:
            self._fold_groups()
            self._job = None

    # -- group products ----------------------------------------------------

    def register_group(self, group) -> None:
        old = self._groups.pop(id(group), None)
        if old is not None:
            self.counters["weyl.mul_distinct"] += len(old[1])
        self._groups[id(group)] = (group.order, set())
        self.counters["weyl.order_sq_sum"] += group.order**2

    def _fold_groups(self) -> None:
        # a job's groups die with the job, and their ids may then be reused
        for _, seen in self._groups.values():
            self.counters["weyl.mul_distinct"] += len(seen)
        self._groups.clear()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self._install_wraps(skip_folded=False)
        weyl_group = importlib.import_module("pnh.weyl").WeylGroup
        mul, inv = weyl_group.mul, weyl_group.inv
        counters, groups = self.counters, self._groups
        tracer = self

        def counted_mul(group, a, b):
            counters["weyl.mul_calls"] += 1
            entry = groups.get(id(group))
            if entry is None:
                tracer.register_group(group)
                entry = groups[id(group)]
            entry[1].add(a * entry[0] + b)
            return mul(group, a, b)

        def counted_inv(group, a):
            counters["weyl.inv_calls"] += 1
            return inv(group, a)

        self._patch(weyl_group, "mul", counted_mul)
        self._patch(weyl_group, "inv", counted_inv)

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """(self seconds per span name, self-time sum minus root duration per job).

        Also checks that every recorded child span lies inside its parent.
        """
        by_id = {s[0]: s for s in self.spans}
        covered: defaultdict[int, float] = defaultdict(float)
        for sid, name, start, end, parent, job in self.spans:
            if parent is not None:
                p = by_id[parent]
                if start < p[2] or end > p[3] or job != p[5]:
                    raise AssertionError(f"span {name} escapes its parent {p[1]}")
                covered[parent] += end - start
        for (name, parent, job), (_, total) in self.folded.items():
            covered[parent] += total
        by_name: defaultdict[str, float] = defaultdict(float)
        job_self: defaultdict[int, float] = defaultdict(float)
        job_root: dict[int, float] = {}
        for sid, name, start, end, parent, job in self.spans:
            own = end - start - covered[sid]
            by_name[name] += own
            job_self[job] += own
            if parent is None:
                job_root[job] = end - start
        for (name, parent, job), (_, total) in self.folded.items():
            by_name[name] += total
            job_self[job] += total
        error = {job: job_self[job] - root for job, root in job_root.items()}
        return dict(by_name), error

    def summary(self) -> tuple[dict, dict]:
        """(per-layer metrics of a traced pass, self-sum error per job)."""
        by_name, error = self.self_times()
        out = {m: sum(by_name.get(n, 0.0) for n in names) for m, names in SELF_TIME.items()}
        for c in COUNTS:
            out[c] = self.counters.get(c, 0)
        for m, (num, den) in RATIOS.items():
            d = self.counters.get(den, 0)
            out[m] = self.counters.get(num, 0) / d if d else 0.0
        out["trace.span_count"] = len(self.spans) + sum(
            calls for calls, _ in self.folded.values())
        out["trace.self_sum_error_s"] = max((abs(e) for e in error.values()), default=0.0)
        return out, error

    def dump(self, path: str) -> None:
        """Write the spans, folded spans and counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
            for (name, parent, job), (calls, total) in self.folded.items():
                fh.write(json.dumps({"folded": name, "parent": parent, "job": job,
                                     "calls": calls, "total": total}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


class MemoryTracer(_Patcher):
    """Retained traced allocation of each layer's top-level spans."""

    def __init__(self):
        super().__init__()
        self.retained = {layer: 0 for layer in RETAINED_LAYERS}
        self._depth: defaultdict[str, int] = defaultdict(int)

    def wrap(self, fn, name: str, fold: bool = False, post=None):
        layer = name.split(".", 1)[0]
        depth, retained = self._depth, self.retained

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[layer] or layer not in retained:
                depth[layer] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[layer] -= 1
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[layer] -= 1
            gc.collect()
            retained[layer] += tracemalloc.get_traced_memory()[0] - before
            return result

        return wrapper

    def install(self) -> None:
        self._install_wraps(skip_folded=True)

    def run_job(self, job_id: int, name: str, fn, *args):
        return fn(*args)

    def summary(self) -> dict:
        return {f"{layer}.retained_mb": b / MB for layer, b in self.retained.items()}
