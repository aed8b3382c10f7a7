"""Acceptance criteria, one test per criterion.

Every expected value is exact (integers, zero tolerance); each test also
asserts its stated wall-clock bound and prints one pass/fail line.  The
long-tier criterion (the 9-vertex 4-dimensional search) is opt-in:
`pytest -m longtier`.
"""

import random
import time

import pytest

from facetkit import (
    brute_force_complementary,
    build,
    canonical_form,
    collapse_step,
    cycle,
    cyclic_complementary_complex,
    forced_profile,
    free_faces,
    homology,
    kuehnel_complex,
    projective_plane_6,
    relabel,
    search_complementary,
    standard_sphere,
)
from facetkit.bits import vertices_of
from facetkit.homology import boundary_matrix, is_zero_matrix, matmul
from facetkit.lemmas import run_check


def _stamp(name, started, bound):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, bound {bound}s)")
    assert elapsed < bound


def test_c01_forced_profile_12_6():
    started = time.perf_counter()
    assert forced_profile(12, 6).counts == (12, 66, 220, 495, 660, 462, 132)
    result = run_check("L4.1")
    assert result.passed
    assert set(result.data) == {"f_vector"}
    _stamp("1 L4.1", started, 1.0)


def test_c02_audit_chain():
    started = time.perf_counter()
    keys = {
        "L4.10": {"e"},
        "L4.11": {"facet_meet"},
        "L4.12": {"moments", "edge_facet_count", "vertex_facet_count"},
        "L4.13": {
            "edge_4face_count",
            "edge_link_profile",
            "edge_link_euler",
            "euler",
            "contradiction",
        },
    }
    for check_id, names in keys.items():
        result = run_check(check_id)
        assert result.passed, check_id
        assert set(result.data) == names, check_id
    _stamp("2 L4.10-L4.13", started, 1.0)


def test_c03_tetrahedron_count_equality():
    started = time.perf_counter()
    result = run_check("L4.5-count")
    assert result.passed
    assert result.data == {
        "tetra_count": 495,
        "incidences": 3300,
        "lower_bound": 4620,
        "pairs": 4620,
    }
    _stamp("3 L4.5-count", started, 1.0)


def test_c04_seven_vertex_complex():
    started = time.perf_counter()
    result = run_check("E2")
    assert result.passed
    assert set(result.data) == {
        "complementary",
        "weak_pm_with_boundary",
        "f_vector",
        "euler_odd",
        "edges_in_two_facets",
        "facet_pairs_share_one_edge",
    }
    _stamp("4 E2", started, 1.0)


def test_c05_five_vertex_triangle_configurations():
    started = time.perf_counter()
    result = run_check("L3.2")
    assert result.passed
    assert result.data["exceptions"] == 0
    assert set(result.data) == {"checked", "exceptions"}
    _stamp("5 L3.2", started, 5.0)


def test_c06_acyclic_implies_collapsible():
    started = time.perf_counter()
    result = run_check("L3.3")
    assert result.passed
    assert result.data["counterexamples"] == 0
    assert result.data["classes"] == 208
    assert set(result.data) == {"classes", "acyclic", "collapsible", "counterexamples"}
    _stamp("6 L3.3", started, 600.0)


def test_c07_weak_pseudomanifold_uniqueness():
    started = time.perf_counter()
    u4 = run_check("U4WPM")
    assert u4.passed
    assert set(u4.data) == {"class_count", "minimal_sphere"}
    u5 = run_check("U5WPM")
    assert u5.passed
    assert set(u5.data) == {"count_5", "join_circle_two_points", "count_6", "bound_ok"}
    _stamp("7 U4WPM/U5WPM", started, 60.0)


def test_c08_projective_plane_search():
    started = time.perf_counter()
    result = run_check("RP26")
    assert result.passed
    assert set(result.data) == {
        "complete",
        "one_class",
        "f_vector",
        "euler",
        "vertex_links_circles",
        "h1_torsion",
        "h2_trivial",
    }
    _stamp("8 RP26", started, 30.0)


def test_c09_kuehnel_examples():
    started = time.perf_counter()
    result = run_check("E1")
    assert result.passed
    assert set(result.data) == {
        "27_facets",
        "2_neighbourly",
        "euler_0",
        "windows_induce_spheres",
        "7_vertex_links_circles",
    }
    _stamp("9 E1", started, 5.0)


def test_c10_property_suites():
    started = time.perf_counter()
    rng = random.Random(99)

    # homology of minimal spheres up to dimension 4
    for d in range(5):
        profile = homology(standard_sphere(d))
        assert all(
            (profile.rank(k), profile.torsion(k)) == ((1, ()) if k == d else (0, ()))
            for k in range(d + 1)
        )

    # boundary-of-boundary vanishes on a spread of complexes
    pool = [
        standard_sphere(3),
        cyclic_complementary_complex(),
        kuehnel_complex(2),
        build([[0, 1, 2], [1, 2, 3], [3, 4]]),
    ]
    for complex_ in pool:
        for k in range(complex_.dim):
            assert is_zero_matrix(
                matmul(boundary_matrix(complex_, k), boundary_matrix(complex_, k + 1))
            )

    # 100 randomized collapse traces preserve homology
    def padded(profile, top):
        return [(profile.rank(k), profile.torsion(k)) for k in range(top + 1)]

    collapse_pool = [
        build([[0, 1, 2, 3]]),
        build([[0, 1, 2, 3, 4]]),
        cyclic_complementary_complex(),
        cycle(6).join(build([[9]])),
        build([[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 2, 4]]),
    ]
    traces = 0
    while traces < 100:
        k = collapse_pool[traces % len(collapse_pool)]
        before = homology(k)
        steps = 0
        while steps < 3:
            pairs = free_faces(k)
            if not pairs:
                break
            tau, sigma = pairs[rng.randrange(len(pairs))]
            k = collapse_step(k, vertices_of(tau), vertices_of(sigma))
            after = homology(k)
            top = max(len(before.groups), len(after.groups)) - 1
            assert padded(before, top) == padded(after, top)
            before = after
            steps += 1
        traces += 1

    # canonical form fixed under 1000 random relabelings of each atlas complex
    atlas = {
        "sphere2": standard_sphere(2),
        "sphere3": standard_sphere(3),
        "cycle9": cycle(9),
        "kuehnel2": kuehnel_complex(2),
        "kuehnel3": kuehnel_complex(3),
        "cyclic7": cyclic_complementary_complex(),
        "rp26": projective_plane_6(),
    }
    for name, complex_ in atlas.items():
        base = canonical_form(complex_)
        verts = complex_.vertices
        for _ in range(1000):
            targets = rng.sample(range(16), len(verts))
            relabeled = relabel(complex_, dict(zip(verts, targets)))
            assert canonical_form(relabeled) == base, name

    # propagated search equals raw brute force at (6, 2)
    assert search_complementary(6, 2).classes == brute_force_complementary(6, 2).classes

    _stamp("10 property-suites", started, 300.0)


@pytest.mark.longtier
def test_c11_nine_vertex_search():
    started = time.perf_counter()
    result = run_check("CP29")
    assert result.passed, result.lines
    assert result.data["complete"] is True
    assert result.data["one_class"] == 1
    assert result.data["f_vector"] == (9, 36, 84, 90, 36)
    assert result.data["euler"] == 3
    assert result.data["three_neighbourly"] is True
    print(f"ACCEPTANCE 11 CP29: PASS ({time.perf_counter() - started:.2f}s)")
