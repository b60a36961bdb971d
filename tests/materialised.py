"""The materialised verification path, kept as the oracle of ``pnh.chamber``.

The simplicity test and the face report over the whole V-rep
(``model.vrep``), the whole H-rep (``model.halfspaces``) and the integer
incidence kernel (``model.incidence``): every inequality over every vertex,
and every face, with no orbit argument.  ``verify_hrep_vrep``, the
materialised incidence report, stays in ``pnh.polytope``.
"""

from pnh.faces import support_halfspaces
from pnh.flats import iter_bits
from pnh.polytope import CheckReport, Incidence


def face_vertices_geometric(ctx, face, vrep, index, incidence=None):
    """Vertex ids lying on every supporting hyperplane of the face.

    The hyperplanes are chosen combinatorially; the vertices on each come
    from the incidence kernel's exact dot products.
    """
    if incidence is None:
        incidence = Incidence(ctx.building.rs, vrep)
    support = [index.halfspaces[i] for i in support_halfspaces(ctx, face, index)]
    mask = incidence.full
    for tight in incidence.facet_masks(support):
        mask &= tight
    return frozenset(iter_bits(mask))


def simple(model):
    """True when every vertex is on exactly n defining inequalities: every
    inequality is scanned over every vertex, and one that touches none
    raises EmptyFacet."""
    incidence = model.incidence
    per_vertex = [0] * incidence.count
    for mask in incidence.facet_masks(model.halfspaces):
        for i in iter_bits(mask):
            per_vertex[i] += 1
    return all(c == model.rs.rank for c in per_vertex)


def face_vertex_report(model):
    """Pair description vs supporting hyperplanes, every face checked."""
    failures = []
    for face in model.faces:
        combinatorial = model.face_vertex_ids(face)
        geometric = face_vertices_geometric(
            model.face_ctx, face, model.vrep, model.halfspace_index, model.incidence
        )
        if combinatorial != geometric:
            failures.append(
                f"face {face}: pair description gives {len(combinatorial)} "
                f"vertices, supporting hyperplanes give {len(geometric)}"
            )
    return CheckReport(
        "face vertices vs supporting hyperplanes",
        not failures,
        sum(model.f_vector),
        tuple(failures[:10]),
    )
