"""Verification and facet vertex sets on the dominant chamber, no V x H scan.

The polytope is the W-orbit of the chamber nestohedron: its vertices are
the sigma v_S and its inequalities the W-images of the k fundamental ones,
(x, mu_h) <= b_h.  Two classical facts (Humphreys, *Reflection Groups and
Coxeter Groups*, sections 1.10-1.12; Bourbaki, *Lie* VI, section 1) decide
every vertex/inequality pair from the base vertices v_S and the k
fundamental inequalities:

* for v regular dominant ((v, alpha_i) > 0 for every simple root) and any
  mu with dominant W-image mu+, (v, w mu) <= (v, mu+), with equality only
  when w mu = mu+: mu+ - w mu is a nonnegative combination of simple roots;
* the stabiliser of a dominant mu is the standard parabolic W_J(mu), with
  J(mu) = {i : (mu, alpha_i) = 0}, and W_I meets W_J in W_(I cap J).

So with every v_S regular dominant and no v_S beyond a fundamental
inequality's dominant form: sigma v_S lies on tau(x, mu_h) <= b_h iff
(v_S, mu_h) = b_h and tau^-1 sigma is in W_J(mu_h) (mu_h dominant); each
vertex lies on one image of each fundamental inequality whose dominant
form is tight on it; sigma v_S = tau v_T forces S = T and sigma = tau, so
the vertices are distinct when the v_S are; and h has |W| / |W_J(mu_h)|
images.  The premises are re-derived on every run: ``vertex`` raises
NotInChamber for a base point off the open chamber, and each normal's
integer row int_gram mu gives its signs; a normal that is not dominant is
moved to mu+ by simple reflections in integers and reported.  Tightness is
``Incidence``'s kernel over the base vertices only.

The predicted side reads nested sets and label sets only: the fundamental
inequality of a flat is tight on the v_S whose S holds its decomposition
members, and its stabiliser is their label subgroup (trivial for the
chamber inequality).  It shares no code with the inner products.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import EmptyFacet, VerificationFailed
from .faces import label_mask, support_masks
from .flats import iter_bits, simple_index_set
from .linalg import int_mat_vec
from .polytope import CheckReport, Incidence, predicted_base
from .weyl import parabolic_order, standard_parabolic


def dominant(rs, prim: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(mu+, int_gram mu+): ``prim`` moved into the closed dominant chamber by
    the simple reflections s_i with (mu, alpha_i) < 0, one at a time, each
    raising mu in the dominance order, so that the walk ends."""
    mu = list(prim)
    while True:
        row = int_mat_vec(rs.int_gram, mu)
        i = next((i for i, c in enumerate(row) if c < 0), None)
        if i is None:
            return tuple(mu), row
        mu[i] -= sum(map(mul, rs.cartan[i], mu))


class Chamber:
    """The base vertices and the fundamental inequalities, scanned once.

    ``base`` is ``polytope.chamber_vertices``' ``VRep`` of the v_S and
    ``vertices`` its points; per fundamental inequality h (in the order of
    ``fundamental``): ``plus[h]`` its dominant normal, ``tight[h]`` the base
    mask of (v_S, mu_h) = b_h, ``top[h]`` and ``violated[h]`` the base mask
    of (v_S, mu_h+) = b_h and whether some v_S exceeds it, and
    ``stabiliser[h]`` the mask J(mu_h+).  ``position`` finds h by its flat's
    simple-index mask (the full mask for the chamber inequality).  Raises
    VerificationFailed when two base points coincide.
    """

    def __init__(self, building, base, fundamental):
        rs = self.rs = building.rs
        self.group_order = parabolic_order(rs, (1 << rs.rank) - 1)
        if base.coincidences:
            raise VerificationFailed(
                f"{self.group_order * len(base.coincidences)} coinciding vertex "
                "pairs; eps list unsuitable?"
            )
        self.building, self.base, self.fundamental = building, base, fundamental
        self.vertices = base.vertices
        self.kernel = kernel = Incidence(rs, base)
        self.plus, self.stabiliser, self.tight, self.top, self.violated = (
            [], [], [], [], []
        )
        for hs in fundamental:
            mu, row = dominant(rs, hs.prim)
            self.plus.append(mu)
            self.stabiliser.append(sum(1 << i for i, c in enumerate(row) if c == 0))
            self.tight.append(kernel.scan(hs)[0])
            top, violated = kernel.scan(hs._replace(prim=mu))
            self.top.append(top)
            self.violated.append(violated)
        self.position = {
            simple_index_set(rs, hs.flat): h for h, hs in enumerate(fundamental)
        }
        # one inequality per W-orbit: the first h of each (mu+, bound)
        first: dict = {}
        self.heads = [
            h
            for h, (mu, hs) in enumerate(zip(self.plus, fundamental))
            if first.setdefault((mu, hs.bound), h) == h
        ]

    @property
    def vertex_count(self) -> int:
        return self.group_order * len(self.vertices)

    @property
    def facet_count(self) -> int:
        """Sum over the W-orbits of |W| / |W_J(mu+)|."""
        w, rs = self.group_order, self.rs
        return sum(w // parabolic_order(rs, self.stabiliser[h]) for h in self.heads)

    def incidence_report(self) -> CheckReport:
        """Membership and exact equality pattern for vertices vs inequalities.

        Per fundamental inequality, its normal must be dominant, no base
        vertex may exceed its bound, its base tight mask must be the
        predicted one and J(mu) its label subgroup's mask; with the facts
        of the module docstring these decide all V·H pairs, which is the
        count reported.  A violation outranks a mismatch on the same pair.
        """
        rs, max_nested, kernel = self.rs, self.base.max_nested, self.kernel
        heads = set(self.heads)
        failures = []
        for h, hs in enumerate(self.fundamental):
            name = f"{hs.kind} inequality of {hs.flat.describe(rs)}"
            expected, labels = _predicted(self.building, max_nested, hs)
            mu = self.plus[h]
            at = "sigma=0" if mu == hs.prim else f"dominant image {mu}"
            ints, bound, denominator = kernel.row(hs._replace(prim=mu))
            for k, value in enumerate(kernel.values(ints)):
                tight = bool(self.tight[h] >> k & 1)
                predicted = bool(expected >> k & 1)
                if value > bound:
                    exact = hs.ratio * Fraction(value, denominator)
                    line = f"vertex (sigma=0) violates {name} ({at}): "
                    line += f"{exact} > {hs.offset}"
                elif tight != predicted:
                    line = (
                        f"equality mismatch: vertex (sigma=0, dims "
                        f"{tuple(f.dim for f in max_nested[k])}) vs {hs.kind} of "
                        f"{hs.flat.describe(rs)} (sigma=0): tight={tight}, "
                        f"predicted={predicted}"
                    )
                else:
                    continue
                failures.append((k, h, line))
            last = len(max_nested)
            if mu != hs.prim:
                line = f"{name}: normal {hs.prim} is not dominant, its W-image {mu} is"
                failures.append((last, h, line))
            if self.stabiliser[h] != labels:
                line = (
                    f"{name}: inner products fix simple roots "
                    f"{list(iter_bits(self.stabiliser[h]))}, labels give "
                    f"{list(iter_bits(labels))}"
                )
                failures.append((last, h, line))
            if h not in heads:
                failures.append((last, h, f"{name}: shares its W-orbit with another"))
        failures.sort()
        return CheckReport(
            "vertex/halfspace incidence",
            not failures,
            self.vertex_count * self.facet_count,
            tuple(line for _, _, line in failures),
        )


def _predicted(building, max_nested, hs) -> tuple[int, int]:
    """(base mask, label mask) predicted for a fundamental inequality from
    nested sets alone: ``predicted_base``, and the simple indices of its
    decomposition members' label subgroup (none for the chamber
    inequality)."""
    mask = simple_index_set(building.rs, hs.flat)
    parts = building.fund_decomposition(mask) if hs.kind != "chamber" else ()
    return predicted_base(building, max_nested, mask), label_mask(building, parts)


def is_simple(chamber: Chamber) -> bool:
    """True when every vertex lies on exactly n defining inequalities.

    sigma v_S lies on one image of each W-orbit whose dominant form is
    tight on v_S, so the base vertices are counted.  An inequality no
    vertex exceeds and none lies on raises EmptyFacet.  Exact when no
    vertex violates an inequality (the incidence report).
    """
    per_vertex = [0] * len(chamber.vertices)
    for h in chamber.heads:
        if not chamber.top[h] and not chamber.violated[h]:
            hs = chamber.fundamental[h]
            raise EmptyFacet(
                f"{hs.kind} inequality of {hs.flat.describe(chamber.rs)} "
                "touches no vertex"
            )
        for i in iter_bits(chamber.top[h]):
            per_vertex[i] += 1
    return all(c == chamber.rs.rank for c in per_vertex)


def facet_sets(chamber: Chamber, halfspaces, weyl) -> list[frozenset[int]]:
    """The vertex ids on each of ``halfspaces``, the images sigma h of the
    fundamental inequalities, with no scan over V: by the facts of the
    module docstring, the tau v_S with tau in sigma W_J(mu_h) and v_S tight
    on h, the id of tau v_S being tau m + k for v_S the k-th base vertex
    (``VRep``).  The facts need each normal dominant and no base vertex
    beyond its bound, else VerificationFailed names the inequality; one
    tight on no base vertex raises EmptyFacet."""
    rs, m = chamber.rs, len(chamber.vertices)
    for h, hs in enumerate(chamber.fundamental):
        name = f"{hs.kind} inequality of {hs.flat.describe(rs)}"
        if chamber.plus[h] != hs.prim:
            raise VerificationFailed(f"{name}: normal {hs.prim} is not dominant")
        if chamber.violated[h]:
            raise VerificationFailed(f"{name}: a base vertex exceeds its bound")
        if not chamber.tight[h]:
            raise EmptyFacet(f"{name} touches no vertex")
    out = []
    for hs in halfspaces:
        h = chamber.position[simple_index_set(rs, hs.flat)]
        sub = standard_parabolic(weyl, chamber.stabiliser[h])
        base = list(iter_bits(chamber.tight[h]))
        coset = sub.cosets[sub.coset[hs.sigma_id]]
        out.append(frozenset([tau * m + k for tau in coset for k in base]))
    return out


def face_vertices_geometric(building, face, chamber: Chamber) -> tuple[int, frozenset]:
    """The vertices of ``face`` on every supporting hyperplane, for a face at
    the identity coset: (J, T) for the sigma v_S with sigma in W_J and S in
    the base ids T.  The hyperplanes are chosen combinatorially
    (``support_masks``); which base vertices lie on each, and which simple
    reflections fix its normal, come from exact inner products."""
    j, tight = (1 << chamber.rs.rank) - 1, chamber.kernel.full
    for mask in support_masks(building, face):
        h = chamber.position[mask]
        j &= chamber.stabiliser[h]
        tight &= chamber.tight[h]
    return j, frozenset(iter_bits(tight))
