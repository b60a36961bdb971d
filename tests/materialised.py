"""The materialised verification path, kept as the oracle of ``pnh.chamber``.

These are the simplicity test and the face report that ``verify`` ran
before it decided them on the dominant chamber: they read the whole V-rep
(``model.vrep``), the whole H-rep (``model.halfspaces``) and the integer
incidence kernel over every vertex (``model.incidence``), and they take the
orbit argument only after re-deriving its facts (``Incidence.strays`` and
``Incidence.orbit_facts``).  ``verify_hrep_vrep``, the materialised
incidence report, stays in ``pnh.polytope``.
"""

from pnh.faces import FacePair, face_types, support_halfspaces
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


def is_simple(ctx, halfspaces, incidence, subgroups):
    """True when every vertex is on exactly n defining inequalities.

    With the orbit facts re-derived (``Incidence.strays`` and
    ``orbit_facts``, with ``subgroups`` each flat's W_J), sigma maps the
    inequalities on v_S one-to-one onto those on sigma v_S, so the base
    vertices are counted.  Otherwise, or when some orbit is tight on no
    base vertex (and so on no vertex), every inequality is scanned over
    every vertex, and one that touches none raises EmptyFacet.
    """
    n = ctx.building.rs.rank
    index, suspects = incidence.orbit_facts(halfspaces, subgroups)
    masks = []
    if not suspects and not incidence.strays:
        masks = [incidence.scan(hs, base=True)[0] for hs in halfspaces]
    if masks and all(any(map(masks.__getitem__, p)) for _, p in index.orbits.values()):
        count = incidence.base
    else:
        masks, count = incidence.facet_masks(halfspaces), incidence.count
    per_vertex = [0] * count
    for mask in masks:
        for i in iter_bits(mask):
            per_vertex[i] += 1
    return all(c == n for c in per_vertex)


def simple(model):
    """``is_simple`` on the model's materialised V-rep and H-rep."""
    return is_simple(
        model.face_ctx, model.halfspaces, model.incidence, model.subgroups_by_flat()
    )


def face_failures(model, faces):
    failures = []
    for face in faces:
        combinatorial = model.face_vertex_ids(face)
        geometric = face_vertices_geometric(
            model.face_ctx, face, model.vrep, model.halfspace_index, model.incidence
        )
        if combinatorial != geometric:
            failures.append(
                f"face {face}: pair description gives {len(combinatorial)} "
                f"vertices, supporting hyperplanes give {len(geometric)}"
            )
    return failures


def face_vertex_report(model):
    """Pair description vs supporting hyperplanes, face by face.

    With the orbit facts re-derived, the faces of a type (S, L) are the
    W-images of its face in W_L's identity coset, as pairs and as geometry
    alike, so that face, made directly from the type, is checked for all of
    them; its supporting hyperplanes are fundamental inequalities.
    Otherwise, or when one of those fails, every face is listed and checked.
    """
    incidence = model.incidence
    _, suspects = incidence.orbit_facts(model.halfspaces, model.subgroups_by_flat())
    label_subgroup = model.face_ctx.label_subgroup
    failures = []
    if (
        suspects
        or incidence.strays
        or face_failures(
            model,
            (
                FacePair(label_subgroup(labels).reps[0], s, labels)
                for s, labels, _ in face_types(model.face_ctx)
            ),
        )
    ):
        failures = face_failures(model, model.faces)
    return CheckReport(
        "face vertices vs supporting hyperplanes",
        not failures,
        sum(model.f_vector),
        tuple(failures[:10]),
    )
