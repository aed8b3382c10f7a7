"""Named verification checks tying the library together.

Each check id maps to one runner; fast-tier checks finish in seconds and run
in the default test suite, the long tier (CP29) is opt-in.  Expected numbers
live here, in the harness, never inside the audited computations.
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
from .complexes import WEAK_PM_WITH_BOUNDARY
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


@dataclass
class LemmaResult:
    check_id: str
    passed: bool
    lines: list[str]
    data: dict = field(default_factory=dict)
    elapsed: float = 0.0


@dataclass(frozen=True)
class LemmaCheck:
    check_id: str
    tier: str
    summary: str
    runner: Callable[..., LemmaResult]


def _result(check_id: str, passed: bool, lines: list[str], data: dict) -> LemmaResult:
    return LemmaResult(check_id=check_id, passed=passed, lines=lines, data=data)


def _run_l41(**_) -> LemmaResult:
    fp = forced_profile(12, 6)
    expected = (12, 66, 220, 495, 660, 462, 132)
    ok = fp.counts == expected
    return _result(
        "L4.1",
        ok,
        [f"forced f-vector at (12,6): {fp.counts}", f"expected: {expected}"],
        {"f_vector": list(fp.counts), "expected": list(expected)},
    )


def _run_l410(**_) -> LemmaResult:
    audit = nonexistence_audit()
    ok = audit.e == (7, 51, 139)
    return _result(
        "L4.10",
        ok,
        [f"faces meeting a facet in all but 0,1,2 vertices: e = {audit.e}", "expected: (7, 51, 139)"],
        {"e": list(audit.e)},
    )


def _run_l411(**_) -> LemmaResult:
    audit = nonexistence_audit()
    ok = audit.facet_meet == (36, 58, 30, 7)
    return _result(
        "L4.11",
        ok,
        [
            f"facets meeting a facet in 3,4,5,6 vertices: {audit.facet_meet}",
            "expected: (36, 58, 30, 7)",
        ],
        {"facet_meet": list(audit.facet_meet)},
    )


def _run_l412(**_) -> LemmaResult:
    audit = nonexistence_audit()
    ok = (
        audit.moments == (66, 2772, 113652)
        and audit.edge_facet_count == 42
        and audit.vertex_facet_count == 77
    )
    return _result(
        "L4.12",
        ok,
        [
            f"edge-count moments: {audit.moments} (expected (66, 2772, 113652))",
            "zero variance forces every edge into exactly "
            f"{audit.edge_facet_count} facets (expected 42)",
            f"and every vertex into {audit.vertex_facet_count} facets (expected 77)",
        ],
        {
            "moments": list(audit.moments),
            "edge_facet_count": audit.edge_facet_count,
            "vertex_facet_count": audit.vertex_facet_count,
        },
    )


def _run_l413(**_) -> LemmaResult:
    audit = nonexistence_audit()
    ok = (
        audit.edge_4face_count == 100
        and audit.edge_link_profile.counts == (10, 45, 100, 105, 42)
        and audit.edge_link_profile.euler == 2
        and audit.contradiction
    )
    return _result(
        "L4.13",
        ok,
        [
            f"4-faces per edge: {audit.edge_4face_count} (expected 100)",
            f"edge-link f-vector: {audit.edge_link_profile.counts}, "
            f"euler {audit.edge_link_profile.euler} (expected 2)",
            f"euler characteristic {audit.euler} is odd in dimension 6: "
            + ("contradiction flagged" if audit.contradiction else "NO contradiction"),
        ],
        {
            "edge_4face_count": audit.edge_4face_count,
            "edge_link_profile": list(audit.edge_link_profile.counts),
            "edge_link_euler": audit.edge_link_profile.euler,
            "euler": audit.euler,
            "contradiction": audit.contradiction,
        },
    )


def _run_l45(**_) -> LemmaResult:
    audit = nonexistence_audit()
    ok = (
        audit.tetra_count == 495
        and audit.tetra_cofacet_incidences == 3300
        and audit.tetra_facet_lower_bound == 4620
        and audit.tetra_facet_pairs == 132 * 35
    )
    return _result(
        "L4.5-count",
        ok,
        [
            f"tetrahedra: {audit.tetra_count} (expected 495)",
            f"tetrahedron-in-4-face incidences: {audit.tetra_cofacet_incidences} (expected 3300)",
            f"2*3300 - 4*495 = {audit.tetra_facet_lower_bound} "
            f"= facet-tetrahedron pairs {audit.tetra_facet_pairs} (expected 4620 = 132*35)",
        ],
        {
            "tetra_count": audit.tetra_count,
            "incidences": audit.tetra_cofacet_incidences,
            "lower_bound": audit.tetra_facet_lower_bound,
            "pairs": audit.tetra_facet_pairs,
        },
    )


def _run_e2(**_) -> LemmaResult:
    k = cyclic_complementary_complex()
    fp = k.face_profile()
    checks = {
        "complementary": is_complementary(k),
        "weak_pm_with_boundary": k.classify_pseudomanifold() == WEAK_PM_WITH_BOUNDARY,
        "f_vector": fp.counts == (7, 21, 28, 7),
        "euler_odd": fp.euler == 7 and fp.euler % 2 == 1,
        "edges_in_two_facets": cofacet_histogram(k, 1) == {2: 21},
        "facet_pairs_share_one_edge": all(
            intersection_profile(k, f).by_overlap == {2: 6} for f in k.facets
        ),
    }
    ok = all(checks.values())
    lines = [f"{name}: {'ok' if good else 'FAILED'}" for name, good in checks.items()]
    lines.insert(0, f"7-vertex cyclic complex: f-vector {fp.counts}, euler {fp.euler}")
    return _result("E2", ok, lines, {k2: bool(v) for k2, v in checks.items()})


def _run_l32(**_) -> LemmaResult:
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
    ok = exceptions == 0
    return _result(
        "L3.2",
        ok,
        [
            f"triangle configurations scanned: {(1 << len(triangles)) - 1}",
            f"configurations with every covered edge in >= 2 triangles: {checked}",
            f"configurations missing both sphere patterns: {exceptions} (expected 0)",
        ],
        {"checked": checked, "exceptions": exceptions},
    )


def _run_l33(**_) -> LemmaResult:
    report = verify_acyclic_implies_collapsible(5)
    ok = report.holds
    return _result(
        "L3.3",
        ok,
        [
            f"isomorphism classes on <= 5 vertices: {report.classes_checked}",
            f"integrally acyclic classes: {report.acyclic_classes}",
            f"collapsible among them: {report.collapsible_classes}",
            f"counterexamples: {len(report.counterexamples)} (expected 0)",
        ],
        {
            "classes": report.classes_checked,
            "acyclic": report.acyclic_classes,
            "collapsible": report.collapsible_classes,
            "counterexamples": len(report.counterexamples),
        },
    )


def _run_u4wpm(**_) -> LemmaResult:
    report = enumerate_weak_pseudomanifolds(4, 2)
    sphere = canonical_form(standard_sphere(2))
    ok = report.class_count == 1 and report.classes[0] == sphere
    return _result(
        "U4WPM",
        ok,
        [
            f"closed weak pseudomanifolds at (4,2): {report.class_count} class(es), expected 1",
            "the class is the minimal 2-sphere: " + ("yes" if ok else "NO"),
        ],
        {"class_count": report.class_count},
    )


def _run_u5wpm(**_) -> LemmaResult:
    report5 = enumerate_weak_pseudomanifolds(5, 2)
    expected = canonical_form(standard_sphere(1).join(standard_sphere(0, labels=[3, 4])))
    unique5 = report5.class_count == 1 and report5.classes[0] == expected
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
    ok = unique5 and bound_ok
    return _result(
        "U5WPM",
        ok,
        [
            f"closed weak pseudomanifolds at (5,2): {report5.class_count} class(es), expected 1",
            "the class is the join of a triangle circle with two points: "
            + ("yes" if unique5 else "NO"),
            f"at (6,2): {report6.class_count} classes, every vertex on at most two non-edges: "
            + ("yes" if bound_ok else "NO"),
        ],
        {"count_5": report5.class_count, "count_6": report6.class_count, "bound_ok": bound_ok},
    )


def _run_rp26(**_) -> LemmaResult:
    report = search_complementary(6, 2)
    checks = {"complete": report.complete, "one_class": report.class_count == 1}
    if report.class_count == 1:
        k = report.class_complexes()[0]
        fp = k.face_profile()
        h = homology(k)
        checks.update(
            f_vector=fp.counts == tuple(forced_profile(6, 2).counts),
            euler=fp.euler == 1,
            vertex_links_circles=all(is_circle(k.link([v])) for v in k.vertices),
            h1_torsion=h.rank(1) == 0 and h.torsion(1) == (2,),
            h2_trivial=h.rank(2) == 0 and h.torsion(2) == (),
        )
    ok = all(checks.values())
    lines = [
        f"exhaustive: {report.complete}; classes found: {report.class_count} (expected 1)",
    ] + [f"{name}: {'ok' if good else 'FAILED'}" for name, good in checks.items()]
    return _result("RP26", ok, lines, {k2: bool(v) for k2, v in checks.items()})


def _run_e1(**_) -> LemmaResult:
    k39 = kuehnel_complex(3)
    fp = k39.face_profile()
    window_ok = True
    n = 9
    for i in range(n):
        window = [(i + j) % n for j in range(4)]
        wmask = mask_from(window)
        induced = k39.induced(window)
        expected_faces = set(nonempty_submasks(wmask)) - {wmask}
        if set(induced.face_masks()) != expected_faces:
            window_ok = False
    k27 = kuehnel_complex(2)
    links_ok = all(is_circle(k27.link([v])) for v in k27.vertices)
    checks = {
        "27_facets": len(k39.facet_masks) == 27,
        "2_neighbourly": k39.is_k_neighbourly(2),
        "euler_0": fp.euler == 0,
        "windows_induce_spheres": window_ok,
        "7_vertex_links_circles": links_ok,
    }
    ok = all(checks.values())
    lines = [f"{name}: {'ok' if good else 'FAILED'}" for name, good in checks.items()]
    lines.insert(0, f"9-vertex complex: f-vector {fp.counts}")
    return _result("E1", ok, lines, {k2: bool(v) for k2, v in checks.items()})


def _run_cp29(*, node_budget: int = 10**9, **_) -> LemmaResult:
    report = search_complementary(9, 4, node_budget=node_budget)
    if not report.complete:
        return _result(
            "CP29",
            False,
            [
                f"search ran out of budget after {report.nodes} nodes: "
                f"{report.class_count} class(es) found so far; INCOMPLETE",
            ],
            {"complete": False, "class_count": report.class_count, "nodes": report.nodes},
        )
    checks = {"one_class": report.class_count == 1}
    if report.class_count == 1:
        k = report.class_complexes()[0]
        fp = k.face_profile()
        checks.update(
            f_vector=fp.counts == tuple(forced_profile(9, 4).counts),
            euler=fp.euler == 3,
            three_neighbourly=k.is_k_neighbourly(3),
            complementary=is_complementary(k),
        )
    ok = all(checks.values())
    lines = [
        f"exhaustive: {report.complete} ({report.nodes} nodes); "
        f"classes found: {report.class_count} (expected 1)",
    ] + [f"{name}: {'ok' if good else 'FAILED'}" for name, good in checks.items()]
    return _result("CP29", ok, lines, {k2: bool(v) for k2, v in checks.items()})


REGISTRY: dict[str, LemmaCheck] = {
    check.check_id: check
    for check in [
        LemmaCheck("L3.2", FAST, "5-vertex triangle configurations contain a sphere", _run_l32),
        LemmaCheck("L3.3", FAST, "acyclic complexes on <= 5 vertices are collapsible", _run_l33),
        LemmaCheck("L4.1", FAST, "forced f-vector at (12,6)", _run_l41),
        LemmaCheck("L4.5-count", FAST, "tetrahedron degree-sum equality at (12,6)", _run_l45),
        LemmaCheck("L4.10", FAST, "facet neighbourhood counts e0,e1,e2 at (12,6)", _run_l410),
        LemmaCheck("L4.11", FAST, "facet intersection distribution at (12,6)", _run_l411),
        LemmaCheck("L4.12", FAST, "edges in 42 facets, vertices in 77, at (12,6)", _run_l412),
        LemmaCheck("L4.13", FAST, "edge links: 100 four-faces, euler 2, parity clash", _run_l413),
        LemmaCheck("E1", FAST, "9- and 7-vertex cyclic manifolds behave as stated", _run_e1),
        LemmaCheck("E2", FAST, "7-vertex cyclic complementary complex properties", _run_e2),
        LemmaCheck("U4WPM", FAST, "unique closed weak pseudomanifold at (4,2)", _run_u4wpm),
        LemmaCheck("U5WPM", FAST, "unique at (5,2); non-edge bound at (6,2)", _run_u5wpm),
        LemmaCheck("RP26", FAST, "exhaustive (6,2) search: one class, projective plane", _run_rp26),
        LemmaCheck("CP29", LONG, "exhaustive (9,4) search: one class", _run_cp29),
    ]
}


def run_check(check_id: str, **kwargs) -> LemmaResult:
    if check_id not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown check {check_id!r}; known ids: {known}")
    started = time.perf_counter()
    result = REGISTRY[check_id].runner(**kwargs)
    result.elapsed = time.perf_counter() - started
    return result
