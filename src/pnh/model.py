"""One-stop construction of a permutonestohedron with lazy verification.

``Permutonestohedron`` glues the layers together: root system, reflection
group, building set, suitable epsilon list, defining inequalities,
vertices, and the face poset.  Everything is computed on first use and
cached; all enumerations are deterministic.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct

from .chamber import Chamber, face_vertices_geometric, facet_sets, is_simple
from .errors import VerificationFailed
from .counting import closed_form_counts
from .faces import (
    FaceContext,
    FacePair,
    crossing_facet_parts,
    enumerate_faces,
    f_vector,
    face_types,
    face_vertices,
    is_face_leq,
    label_mask,
    list_nested_sets,
)
from .flats import BuildingSet, Flat, iter_bits, restricted_building_set, within
from .halfspaces import (
    HalfSpace,
    SuitableList,
    all_halfspaces,
    check_increasing,
    fundamental_halfspaces,
    ratio_table,
    suitable_list,
    verify_epsilon_lemma,
)
from .nested import NestedSet, quotient_building_set
from .polytope import (
    CheckReport,
    Incidence,
    VRep,
    all_vertices,
    chamber_vertices,
    euler_check,
    facet_vertex_sets,  # noqa: F401 - wrapped here by perfbench/spans.py
    nestohedron_check,
    verify_hrep_vrep,  # noqa: F401 - wrapped here by perfbench/spans.py
)
from .weyl import (
    DEFAULT_GROUP_CAP,
    WeylGroup,
    canonical_coset_rep,
    enumerate_group,
    parabolic_order,
)


class Permutonestohedron:
    def __init__(
        self,
        building: BuildingSet,
        suitable: SuitableList | None = None,
        a=Fraction(1),
        weyl: WeylGroup | None = None,
        group_cap: int = DEFAULT_GROUP_CAP,
    ):
        self.building = building
        self.rs = building.rs
        self._group_cap = group_cap
        self._weyl = weyl
        self._suitable = suitable
        self._a = Fraction(a)
        self._restricted: dict[Flat, Permutonestohedron] = {}

    # -- layers ---------------------------------------------------------

    @cached_property
    def weyl(self) -> WeylGroup:
        return self._weyl or enumerate_group(self.rs, self._group_cap)

    @cached_property
    def suitable(self) -> SuitableList:
        return self._suitable or suitable_list(self.building, self._a)

    @cached_property
    def nested_sets(self) -> tuple[NestedSet, ...]:
        return list_nested_sets(self.building)

    @cached_property
    def face_ctx(self) -> FaceContext:
        return FaceContext(self.building, self.weyl, self.nested_sets)

    @cached_property
    def fundamental_hs(self) -> list[HalfSpace]:
        return fundamental_halfspaces(self.building, self.suitable)

    @cached_property
    def halfspaces(self) -> list[HalfSpace]:
        return all_halfspaces(self.building, self.suitable, self.weyl)

    @cached_property
    def chamber_vertices(self) -> VRep:
        n = self.rs.rank
        maximal = (s for s in self.nested_sets if len(s) == n)
        return chamber_vertices(self.building, self.suitable, maximal)

    @cached_property
    def vrep(self) -> VRep:
        return all_vertices(self.chamber_vertices, self.weyl)

    @cached_property
    def incidence(self) -> Incidence:
        return Incidence(self.rs, self.vrep)

    @cached_property
    def chamber(self) -> Chamber:
        return Chamber(self.building, self.chamber_vertices, self.fundamental_hs)

    @cached_property
    def faces(self) -> list[FacePair]:
        return enumerate_faces(self.face_ctx)

    @cached_property
    def facet_sets(self) -> list[frozenset[int]]:
        return facet_sets(self.chamber, self.halfspaces, self.weyl)

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        return f_vector(self.building, self.nested_sets)

    @property
    def vertex_count(self) -> int:
        return self.chamber.vertex_count

    @property
    def facet_count(self) -> int:
        return self.chamber.facet_count

    # -- predicates -------------------------------------------------------

    @property
    def is_maximal_building(self) -> bool:
        return self.building.contains_every_flat

    def simple(self) -> bool:
        return is_simple(self.chamber)

    def face_vertex_ids(self, face: FacePair) -> frozenset[int]:
        return face_vertices(self.face_ctx, face, self.vrep)

    def face_leq(self, p: FacePair, q: FacePair) -> bool:
        return is_face_leq(self.face_ctx, p, q)

    # -- verification -----------------------------------------------------

    def verify(self, level: str = "fast") -> list[CheckReport]:
        """Run the verification battery.

        'fast' runs the chamber-side, counting and simplicity checks; 'full'
        adds the nestohedron characterisation, the vertex/inequality
        incidence over all V·H pairs and the face vertex sets.  Counts,
        simplicity, incidence and faces are decided on the base vertices and
        the fundamental inequalities (``pnh.chamber``), after re-deriving
        the facts that carry them to every vertex and inequality; neither
        the V-rep nor the H-rep is made.  Any other level raises ValueError.
        """
        if level not in ("fast", "full"):
            raise ValueError(f"verify level must be 'fast' or 'full', not {level!r}")
        reports: list[CheckReport] = []

        growth = check_increasing(
            ratio_table(self.building), self.suitable.eps, self.suitable.a
        )
        reports.append(
            CheckReport(
                "epsilon growth conditions",
                not growth,
                len(self.suitable.eps),
                tuple(growth),
            )
        )

        lemma = verify_epsilon_lemma(
            self.building, self.suitable, raise_on_violation=False
        )
        reports.append(
            CheckReport(
                "epsilon separation inequalities",
                lemma.passed,
                lemma.checked,
                tuple(
                    f"dim-{b.dim} member vs {tuple(p.dim for p in parts)}: "
                    f"{eps} <= {bound}"
                    for b, parts, eps, bound in lemma.violations[:10]
                ),
            )
        )

        # regular, pairwise distinct base points (else Chamber raises)
        # give |W| distinct images each
        chamber = self.chamber
        reports.append(
            CheckReport(
                "vertex count = |W| * maximal nested sets", True, chamber.vertex_count
            )
        )

        fvec = self.f_vector
        reports.append(
            CheckReport(
                "f-vector endpoints match geometry",
                fvec[0] == chamber.vertex_count and fvec[-2] == chamber.facet_count
                if self.rs.rank >= 1
                else True,
                2,
                (f"f-vector {fvec}",),
            )
        )

        reports.append(
            CheckReport(
                "Euler alternating sum",
                euler_check(fvec),
                1,
                (f"f-vector {fvec}",),
            )
        )

        reports.append(self._formula_report())

        simple = self.simple()
        reports.append(
            CheckReport(
                "simple iff maximal building set",
                simple == self.is_maximal_building,
                1,
                (f"simple={simple}, maximal={self.is_maximal_building}",),
            )
        )

        if level == "full":
            reports.append(
                nestohedron_check(self.building, self.suitable, chamber.base)
            )
            reports.append(chamber.incidence_report())
            reports.append(self._face_vertex_report())
        return reports

    def _formula_report(self) -> CheckReport:
        name = "closed-form face counts (type A only)"
        formula = closed_form_counts(self.rs, self.building.kind)
        if formula is None:
            return CheckReport(name, True, 0)
        fvec = self.f_vector
        return CheckReport(
            name,
            all(fvec[d] == count for d, count in formula.items()),
            len(formula),
            tuple(
                f"codim {self.rs.rank - d}: formula {count}, enumerated {fvec[d]}"
                for d, count in formula.items()
            ),
        )

    def _face_vertex_report(self) -> CheckReport:
        """Pair description vs supporting hyperplanes, one face per type.

        The faces of a type (S, L) are the W-images of its face at W_L's
        identity coset, as pairs and, by the chamber facts, as geometry
        alike, so that face is checked for all of them: its pairs are the
        sigma v_T with sigma in W_L and T containing S, and geometrically
        the sigma in W_J and T of ``face_vertices_geometric``.  Undecided,
        and failed, while a vertex violates an inequality.
        """
        building, chamber = self.building, self.chamber
        failures = []
        if any(chamber.violated):
            failures.append("not decided: a vertex violates a defining inequality")
        types = () if failures else face_types(self.nested_sets, self.rs.rank)
        for s, labels, _ in types:
            mask = label_mask(building, labels)
            base = chamber.base.base_ids(s)
            face = FacePair(None, s, labels)  # no group: only its type is read
            j, tight = face_vertices_geometric(building, face, chamber)
            if (j, tight) != (mask, frozenset(iter_bits(base))):
                face = face._replace(rep=self.face_ctx.label_subgroup(labels).reps[0])
                failures.append(
                    f"face {face}: pair description gives "
                    f"{parabolic_order(self.rs, mask) * base.bit_count()} vertices, "
                    "supporting hyperplanes give "
                    f"{parabolic_order(self.rs, j) * len(tight)}"
                )
        return CheckReport(
            "face vertices vs supporting hyperplanes",
            not failures,
            sum(self.f_vector),
            tuple(failures[:10]),
        )

    # -- facet factorisation ----------------------------------------------

    def restricted_model(self, flat: Flat) -> "Permutonestohedron":
        got = self._restricted.get(flat)
        if got is None:
            sub_building = restricted_building_set(self.building, flat)
            got = Permutonestohedron(sub_building, group_cap=self._group_cap)
            self._restricted[flat] = got
        return got

    def facet_factorisation(self, face: FacePair) -> "FacetFactorisation":
        parts = crossing_facet_parts(self.face_ctx, face)
        return FacetFactorisation(
            self,
            face,
            parts,
            quotient_building_set(self.building, parts),
            tuple(self.restricted_model(p) for p in parts),
        )


class FacetFactorisation(
    namedtuple("FacetFactorisation", "model facet parts quotient factors")
):
    """A crossing facet as (quotient nestohedron) x (sub-permutonestohedra)."""

    __slots__ = ()

    def expected_vertex_count(self) -> int:
        ground = len(self.quotient.ground)
        top = sum(1 for s in self.quotient.nested_sets() if len(s) == ground)
        for factor in self.factors:
            top *= factor.vertex_count
        return top

    def verify_vertex_count(self) -> CheckReport:
        got = len(self.model.face_vertex_ids(self.facet))
        expected = self.expected_vertex_count()
        return CheckReport(
            "crossing facet vertex count = product of factor counts",
            got == expected,
            1,
            (f"facet {self.facet}: {got} vs {expected}",),
        )

    # -- full lattice isomorphism ----------------------------------------

    def _sub_element(self, factor_index: int, element_id: int) -> int:
        """Map an ambient element of the facet's label subgroup into a factor.

        The labelled parts are orthogonal, so the part's block of the
        element's matrix is the block of its component in the part's
        parabolic, and that block is the component's matrix in the factor.
        """
        model = self.model
        sub = self.factors[factor_index]
        index_set = model.building.fund_index_sets[self.parts[factor_index]]
        simple = list(iter_bits(index_set))
        m = model.weyl.elements[element_id]
        restricted = tuple(tuple(m[r][c] for c in simple) for r in simple)
        return sub.weyl.index[restricted]

    def image_of(self, p: FacePair):
        """Image of an interval face in quotient x factors coordinates."""
        model, weyl = self.model, self.model.weyl
        facet_sub = model.face_ctx.label_subgroup(tuple(sorted(self.parts)))
        if facet_sub.coset[p.rep] != facet_sub.coset[self.facet.rep]:
            raise VerificationFailed("interval face coset is not inside the facet")
        h = weyl.mul(weyl.inv(self.facet.rep), p.rep)

        removed = label_mask(model.building, self.parts)
        masks = (model.building.fund_index_sets[k] & ~removed for k in p.nested)
        quotient_nested = frozenset(frozenset(iter_bits(m)) for m in masks if m)

        sub_faces = []
        for idx, part in enumerate(self.parts):
            inside = [k for k in p.nested if part.contains(k)]
            nested = NestedSet(tuple(sorted(within(part, k) for k in inside)))
            labels = tuple(
                sorted(within(part, k) for k in p.labels if part.contains(k))
            )
            sub_h = self.factors[idx].face_ctx.label_subgroup(labels)
            rep = canonical_coset_rep(self._sub_element(idx, h), sub_h)
            sub_faces.append(FacePair(rep, nested, labels))
        return quotient_nested, tuple(sub_faces)

    def verify_lattice(self) -> CheckReport:
        """Bijectivity and order isomorphism onto the product poset."""
        model = self.model
        interval = [p for p in model.faces if model.face_leq(p, self.facet)]
        images = {p: self.image_of(p) for p in interval}
        failures = []

        expected = set()
        factor_faces = [tuple(f.faces) for f in self.factors]
        for nested in self.quotient.nested_sets():
            for combo in iproduct(*factor_faces):
                expected.add((nested, combo))
        got = set(images.values())
        if got != expected:
            failures.append(
                f"image set has {len(got)} elements, product poset has "
                f"{len(expected)} (interval size {len(interval)})"
            )
        if len(got) != len(interval):
            failures.append("face image map is not injective")

        if not failures:
            for p in interval:
                np_, sp = images[p]
                for q in interval:
                    nq, sq = images[q]
                    lhs = model.face_leq(p, q)
                    rhs = nq <= np_ and all(
                        self.factors[i].face_leq(sp[i], sq[i])
                        for i in range(len(self.factors))
                    )
                    if lhs != rhs:
                        failures.append(
                            f"order mismatch between faces {p} and {q}: "
                            f"interval {lhs}, product {rhs}"
                        )
                        break
                if failures:
                    break

        return CheckReport(
            "crossing facet lattice isomorphism",
            not failures,
            len(interval) ** 2,
            tuple(failures[:5]),
        )


def build_model(
    building: BuildingSet,
    a=Fraction(1),
    epsilons=None,
    weyl=None,
    group_cap: int = DEFAULT_GROUP_CAP,
) -> Permutonestohedron:
    suitable = None
    if epsilons is not None:
        n = building.rs.rank
        if len(epsilons) != n:
            raise ValueError(
                f"the epsilon list has {len(epsilons)} entries; rank {n} needs {n}"
            )
        suitable = SuitableList(Fraction(a), tuple(Fraction(e) for e in epsilons))
    return Permutonestohedron(
        building, suitable=suitable, a=a, weyl=weyl, group_cap=group_cap
    )
