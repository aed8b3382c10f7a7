"""Named verification checks tying the library together.

Each check is a function returning rows `(name, value, expected)`; a row
with `expected=None` is reported but not compared.  `run_check` judges and
renders every check the same way.  Fast-tier checks finish in seconds and
run in the default test suite, the long tier (CP29) is opt-in.  Expected
numbers live here, in the harness, never inside the audited computations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

from .atlas import (
    cyclic_complementary_complex,
    is_circle,
    kuehnel_complex,
    standard_sphere,
)
from .bits import mask_from, nonempty_submasks
from .canonical import canonical_form
from .complexes import WEAK_PM_WITH_BOUNDARY, Complex
from .complementarity import (
    cofacet_histogram,
    forced_profile,
    intersection_profile,
    is_complementary,
    nonexistence_audit,
)
from .enumeration import enumerate_weak_pseudomanifolds, verify_acyclic_implies_collapsible
from .homology import homology
from .search import search_complementary

FAST, LONG = "fast", "long"

_Row = tuple[str, object, object]


@dataclass
class LemmaResult:
    check_id: str
    passed: bool
    lines: list[str]
    data: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    elapsed: float = 0.0


@dataclass(frozen=True)
class LemmaCheck:
    check_id: str
    tier: str
    summary: str
    rows: Callable[[], list[_Row]]


def _l41() -> list[_Row]:
    return [("f_vector", forced_profile(12, 6).counts, (12, 66, 220, 495, 660, 462, 132))]


def _l410() -> list[_Row]:
    return [("e", nonexistence_audit().e, (7, 51, 139))]


def _l411() -> list[_Row]:
    return [("facet_meet", nonexistence_audit().facet_meet, (36, 58, 30, 7))]


def _l412() -> list[_Row]:
    audit = nonexistence_audit()
    return [
        ("moments", audit.moments, (66, 2772, 113652)),
        ("edge_facet_count", audit.edge_facet_count, 42),
        ("vertex_facet_count", audit.vertex_facet_count, 77),
    ]


def _l413() -> list[_Row]:
    audit = nonexistence_audit()
    return [
        ("edge_4face_count", audit.edge_4face_count, 100),
        ("edge_link_profile", audit.edge_link_profile.counts, (10, 45, 100, 105, 42)),
        ("edge_link_euler", audit.edge_link_profile.euler, 2),
        ("euler", audit.euler, None),
        ("contradiction", audit.contradiction, True),
    ]


def _l45() -> list[_Row]:
    audit = nonexistence_audit()
    return [
        ("tetra_count", audit.tetra_count, 495),
        ("incidences", audit.tetra_cofacet_incidences, 3300),
        ("lower_bound", audit.tetra_facet_lower_bound, 2 * 3300 - 4 * 495),
        ("pairs", audit.tetra_facet_pairs, 132 * 35),
    ]


def _e2() -> list[_Row]:
    k = cyclic_complementary_complex()
    fp = k.face_profile()
    facets_share_one_edge = all(intersection_profile(k, f).by_overlap == {2: 6} for f in k.facets)
    return [
        ("complementary", is_complementary(k), True),
        ("weak_pm_with_boundary", k.classify_pseudomanifold(), WEAK_PM_WITH_BOUNDARY),
        ("f_vector", fp.counts, (7, 21, 28, 7)),
        ("euler_odd", fp.euler, 7),
        ("edges_in_two_facets", cofacet_histogram(k, 1), {2: 21}),
        ("facet_pairs_share_one_edge", facets_share_one_edge, True),
    ]


def _l32() -> list[_Row]:
    verts = range(5)
    triangles = list(combinations(verts, 3))
    edges = list(combinations(verts, 2))
    edge_triangles = [
        {i for i, t in enumerate(triangles) if set(e) <= set(t)} for e in edges
    ]
    sphere_patterns: list[set[int]] = []
    for w in combinations(verts, 4):
        sphere_patterns.append({i for i, t in enumerate(triangles) if set(t) <= set(w)})
    for pair in combinations(verts, 2):
        rest = tuple(v for v in verts if v not in pair)
        pattern = set()
        for x in pair:
            for e in combinations(rest, 2):
                pattern.add(triangles.index(tuple(sorted((x,) + e))))
        sphere_patterns.append(pattern)
    checked = 0
    exceptions = 0
    for bits in range(1, 1 << len(triangles)):
        chosen = {i for i in range(len(triangles)) if bits >> i & 1}
        if any(len(et & chosen) == 1 for et in edge_triangles):
            continue  # some covered edge lies in only one triangle
        checked += 1
        if not any(p <= chosen for p in sphere_patterns):
            exceptions += 1
    return [("checked", checked, None), ("exceptions", exceptions, 0)]


def _l33() -> list[_Row]:
    report = verify_acyclic_implies_collapsible(5)
    return [
        ("classes", report.classes_checked, None),
        ("acyclic", report.acyclic_classes, None),
        ("collapsible", report.collapsible_classes, None),
        ("counterexamples", len(report.counterexamples), 0),
    ]


def _u4wpm() -> list[_Row]:
    report = enumerate_weak_pseudomanifolds(4, 2)
    sphere = canonical_form(standard_sphere(2))
    return [
        ("class_count", report.class_count, 1),
        ("minimal_sphere", report.classes[:1] == (sphere,), True),
    ]


def _u5wpm() -> list[_Row]:
    report5 = enumerate_weak_pseudomanifolds(5, 2)
    join = canonical_form(standard_sphere(1).join(standard_sphere(0, labels=[3, 4])))
    report6 = enumerate_weak_pseudomanifolds(6, 2)
    bound_ok = True
    for complex_ in report6.class_complexes():
        for v in complex_.vertices:
            non_edges = sum(
                1
                for u in complex_.vertices
                if u != v and not complex_.has_face_mask((1 << u) | (1 << v))
            )
            if non_edges > 2:
                bound_ok = False
    return [
        ("count_5", report5.class_count, 1),
        ("join_circle_two_points", report5.classes[:1] == (join,), True),
        ("count_6", report6.class_count, None),
        ("bound_ok", bound_ok, True),
    ]


def _search_rows(n: int, d: int, euler: int, more: Callable[[Complex], list[_Row]]) -> list[_Row]:
    """Rows of an exhaustive (n, d) search that should find exactly one class;
    `more` adds the rows about that class."""
    report = search_complementary(n, d)
    rows = [("complete", report.complete, True), ("one_class", report.class_count, 1)]
    if report.class_count == 1:
        k = report.class_complexes()[0]
        fp = k.face_profile()
        rows += [("f_vector", fp.counts, forced_profile(n, d).counts), ("euler", fp.euler, euler)]
        rows += more(k)
    return rows


def _rp26() -> list[_Row]:
    def more(k: Complex) -> list[_Row]:
        h = homology(k)
        return [
            ("vertex_links_circles", all(is_circle(k.link([v])) for v in k.vertices), True),
            ("h1_torsion", (h.rank(1), h.torsion(1)), (0, (2,))),
            ("h2_trivial", (h.rank(2), h.torsion(2)), (0, ())),
        ]

    return _search_rows(6, 2, 1, more)


def _e1() -> list[_Row]:
    k39 = kuehnel_complex(3)

    def induces_sphere(window: list[int]) -> bool:
        w = mask_from(window)
        return set(k39.induced(window).face_masks()) == set(nonempty_submasks(w)) - {w}

    windows = [[(i + j) % 9 for j in range(4)] for i in range(9)]
    k27 = kuehnel_complex(2)
    return [
        ("27_facets", len(k39.facet_masks), 27),
        ("2_neighbourly", k39.is_k_neighbourly(2), True),
        ("euler_0", k39.face_profile().euler, 0),
        ("windows_induce_spheres", all(induces_sphere(w) for w in windows), True),
        ("7_vertex_links_circles", all(is_circle(k27.link([v])) for v in k27.vertices), True),
    ]


def _cp29() -> list[_Row]:
    def more(k: Complex) -> list[_Row]:
        return [
            ("three_neighbourly", k.is_k_neighbourly(3), True),
            ("complementary", is_complementary(k), True),
        ]

    return _search_rows(9, 4, 3, more)


REGISTRY: dict[str, LemmaCheck] = {
    check.check_id: check
    for check in [
        LemmaCheck("L3.2", FAST, "5-vertex triangle configurations contain a sphere", _l32),
        LemmaCheck("L3.3", FAST, "acyclic complexes on <= 5 vertices are collapsible", _l33),
        LemmaCheck("L4.1", FAST, "forced f-vector at (12,6)", _l41),
        LemmaCheck("L4.5-count", FAST, "tetrahedron degree-sum equality at (12,6)", _l45),
        LemmaCheck("L4.10", FAST, "facet neighbourhood counts e0,e1,e2 at (12,6)", _l410),
        LemmaCheck("L4.11", FAST, "facet intersection distribution at (12,6)", _l411),
        LemmaCheck("L4.12", FAST, "edges in 42 facets, vertices in 77, at (12,6)", _l412),
        LemmaCheck("L4.13", FAST, "edge links: 100 four-faces, euler 2, parity clash", _l413),
        LemmaCheck("E1", FAST, "9- and 7-vertex cyclic manifolds behave as stated", _e1),
        LemmaCheck("E2", FAST, "7-vertex cyclic complementary complex properties", _e2),
        LemmaCheck("U4WPM", FAST, "unique closed weak pseudomanifold at (4,2)", _u4wpm),
        LemmaCheck("U5WPM", FAST, "unique at (5,2); non-edge bound at (6,2)", _u5wpm),
        LemmaCheck("RP26", FAST, "exhaustive (6,2) search: one class, projective plane", _rp26),
        LemmaCheck("CP29", LONG, "exhaustive (9,4) search: one class", _cp29),
    ]
}


def _render(name: str, value, expected) -> str:
    if expected is None:
        return f"{name}: {value}"
    mark = "" if value == expected else "  <-- MISMATCH"
    return f"{name}: {value} (expected {expected}){mark}"


def run_check(check_id: str) -> LemmaResult:
    """Run one check: it passes iff every row with an expected value matches it."""
    if check_id not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown check {check_id!r}; known ids: {known}")
    started = time.perf_counter()
    rows = REGISTRY[check_id].rows()
    return LemmaResult(
        check_id=check_id,
        passed=all(expected is None or value == expected for _, value, expected in rows),
        lines=[_render(*row) for row in rows],
        data={name: value for name, value, _ in rows},
        expected={name: expected for name, _, expected in rows},
        elapsed=time.perf_counter() - started,
    )
