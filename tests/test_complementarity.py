"""Complementarity predicates, forced counting, and the arithmetic audit."""

import random
from math import comb

import pytest

from facetkit import (
    build,
    cofacet_histogram,
    cycle,
    cyclic_complementary_complex,
    disjoint_union,
    forced_profile,
    intersection_profile,
    is_complementary,
    kuehnel_complex,
    nonexistence_audit,
    relabel,
    standard_sphere,
)


def test_is_complementary():
    assert is_complementary(cyclic_complementary_complex())
    assert not is_complementary(standard_sphere(2))
    assert is_complementary(build([[5]]))  # vacuous on one vertex


def test_complementary_total_face_count():
    k = cyclic_complementary_complex()
    assert len(k.face_masks()) == 2 ** (k.n_vertices - 1) - 1


def test_complementarity_invariant_under_relabeling():
    rng = random.Random(5)
    k = cyclic_complementary_complex()
    for _ in range(10):
        targets = rng.sample(range(30), 7)
        other = relabel(k, dict(zip(k.vertices, targets)))
        assert is_complementary(other)


def test_complementary_forces_neighbourliness():
    k = cyclic_complementary_complex()
    assert k.is_k_neighbourly(k.n_vertices - k.dim - 2)


def test_forced_profile_values():
    assert forced_profile(12, 6).counts == (12, 66, 220, 495, 660, 462, 132)
    # (9,4) by hand: f3 + f4 = C(9,4) = 126 and 5*f4 = 2*f3 force f4 = 36
    assert forced_profile(9, 4).counts == (9, 36, 84, 90, 36)
    assert forced_profile(9, 4).euler == 3
    # (6,2) by hand: f2 = C(6,3)/2 = 10
    assert forced_profile(6, 2).counts == (6, 15, 10)
    assert forced_profile(6, 2).euler == 1


def test_forced_profile_even_n_euler_one():
    for n, d in [(6, 2), (12, 6)]:
        assert forced_profile(n, d).euler == 1


def test_forced_profile_inconsistent():
    with pytest.raises(ValueError):
        forced_profile(7, 2)  # all faces forced, double counting fails
    with pytest.raises(ValueError):
        forced_profile(11, 5)  # non-integral facet count
    with pytest.raises(ValueError):
        forced_profile(4, 2)  # f_0 = 4 forces f_2 = 0, so f_1 = 0 against 2 f_1 = 6
    with pytest.raises(ValueError):
        forced_profile(5, 3)  # f_0 = 5 pins f_3 = 0: no 3-dimensional complex


def test_forced_profile_underdetermined_names_dimension():
    with pytest.raises(ValueError, match="free"):
        forced_profile(9, 5)


def test_intersection_profile():
    k = cyclic_complementary_complex()
    for f in k.facets:
        assert intersection_profile(k, f).by_overlap == {2: 6}
    s = standard_sphere(2)
    assert intersection_profile(s, s.facets[0]).by_overlap == {2: 3}
    two = disjoint_union(cycle(3), cycle(3, labels=[3, 4, 5]))
    assert intersection_profile(two, (0, 1)).by_overlap == {0: 3, 1: 2}
    with pytest.raises(ValueError):
        intersection_profile(s, (0, 1))  # an edge, not a facet


def test_intersection_profile_totals():
    for k in (cyclic_complementary_complex(), kuehnel_complex(3), standard_sphere(3)):
        fd = len(k.facet_masks)
        for f in k.facets:
            assert intersection_profile(k, f).total() == fd - 1


def test_cofacet_histogram():
    k = cyclic_complementary_complex()
    assert cofacet_histogram(k, 1) == {2: 21}
    assert cofacet_histogram(standard_sphere(2), 1) == {2: 6}
    assert cofacet_histogram(kuehnel_complex(3), 2) == {2: 54}
    with pytest.raises(ValueError):
        cofacet_histogram(k, 9)


def test_cofacet_double_count():
    for k in (cyclic_complementary_complex(), kuehnel_complex(3), standard_sphere(3)):
        d = k.dim
        fd = len(k.facet_masks)
        for j in range(d + 1):
            hist = cofacet_histogram(k, j)
            assert sum(c * m for c, m in hist.items()) == fd * comb(d + 1, j + 1)


def test_audit_numbers():
    audit = nonexistence_audit()
    assert audit.forced.counts == (12, 66, 220, 495, 660, 462, 132)
    assert audit.e == (7, 51, 139)
    assert audit.facet_meet == (36, 58, 30, 7)
    assert audit.moments == (66, 2772, 113652)
    assert audit.edge_facet_count == 42
    assert audit.vertex_facet_count == 77
    assert audit.edge_4face_count == 100
    assert audit.edge_link_profile.counts == (10, 45, 100, 105, 42)
    assert audit.edge_link_profile.euler == 2
    assert audit.tetra_count == 495
    assert audit.tetra_cofacet_incidences == 3300
    assert audit.tetra_facet_lower_bound == 4620 == 132 * 35 == audit.tetra_facet_pairs
    assert audit.euler == 1
    assert audit.contradiction


AUDIT_GOLDEN = """f0 = 12
f1 = 66
f2 = 220
f3 = 495
f4 = 660
f5 = 462
f6 = 132
total_faces = 2047
e0 = 7
e1 = 51
e2 = 139
facets_meeting_in_3 = 36
facets_meeting_in_4 = 58
facets_meeting_in_5 = 30
facets_meeting_in_6 = 7
moment_0 = 66
moment_1 = 2772
moment_2 = 113652
facets_per_edge = 42
facets_per_vertex = 77
four_faces_per_edge = 100
edge_link_profile = 10,45,100,105,42
edge_link_euler = 2
tetra_count = 495
tetra_cofacet_incidences = 3300
tetra_facet_lower_bound = 4620
tetra_facet_pairs = 4620
euler = 1
parity_contradiction = 1
verdict: PASS
"""


def test_audit_render_golden():
    assert nonexistence_audit().render() == AUDIT_GOLDEN
