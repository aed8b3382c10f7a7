"""Canonical form and isomorphism certificates.

The pruned search is checked against the full backtracking walk it
replaced, kept here verbatim as `oracle_canonical_search`.
"""

import random

import pytest

from facetkit import (
    Complex,
    build,
    canonical_complex,
    canonical_form,
    cycle,
    cyclic_complementary_complex,
    disjoint_union,
    enumerate_complexes,
    is_isomorphic,
    kuehnel_complex,
    projective_plane_6,
    relabel,
    search,
    standard_sphere,
    verify_isomorphism,
)
from facetkit.canonical import _canonical_search, _initial_partition, _refine

# -- oracle: the full backtracking walk, with no automorphism pruning ----------


def oracle_canonical_search(complex_):
    facet_verts = [f for f in complex_.facets]
    vertices = complex_.vertices
    best: list = [None, None]  # candidate facet tuple, mapping

    def leaf(cells):
        position = {}
        for i, cell in enumerate(cells):
            position[cell[0]] = i
        masks = tuple(sorted(sum(1 << position[v] for v in fv) for fv in facet_verts))
        if best[0] is None or masks < best[0]:
            best[0] = masks
            best[1] = dict(position)

    def descend(cells):
        cells = _refine(cells, facet_verts)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            leaf(cells)
            return
        cell = cells[target]
        for v in cell:
            rest = [u for u in cell if u != v]
            descend(cells[:target] + [[v], rest] + cells[target + 1 :])

    descend(_initial_partition(vertices, facet_verts))
    return best[0], best[1]


def random_relabeling(complex_, rng, spread=20):
    verts = complex_.vertices
    targets = rng.sample(range(spread), len(verts))
    return {v: t for v, t in zip(verts, targets)}


@pytest.mark.parametrize(
    "complex_",
    [
        standard_sphere(2),
        standard_sphere(3),
        cycle(7),
        kuehnel_complex(2),
        cyclic_complementary_complex(),
        build([[0, 1, 2], [2, 3], [3, 4, 5, 6]]),
    ],
    ids=["s2", "s3", "c7", "k27", "cyclic7", "mixed"],
)
def test_canonical_invariant_under_relabeling(complex_):
    rng = random.Random(11)
    base = canonical_form(complex_)
    for _ in range(25):
        other = relabel(complex_, random_relabeling(complex_, rng))
        assert canonical_form(other) == base


def test_canonical_separates_equal_f_vectors():
    hexagon = cycle(6)
    two_triangles = disjoint_union(cycle(3), cycle(3, labels=[3, 4, 5]))
    assert hexagon.face_profile().counts == two_triangles.face_profile().counts == (6, 6)
    assert canonical_form(hexagon) != canonical_form(two_triangles)


def test_canonical_complex_is_isomorphic_to_original():
    k = cyclic_complementary_complex()
    canon = canonical_complex(k)
    assert canon.vertices == tuple(range(7))
    assert is_isomorphic(k, canon) is not None


def test_certificate_is_verified_bijection():
    k = kuehnel_complex(2)
    other = relabel(k, {v: v + 13 for v in k.vertices})
    cert = is_isomorphic(k, other)
    assert cert is not None
    assert verify_isomorphism(k, other, cert.mapping)
    assert sorted(cert.mapping) == list(k.vertices)
    assert sorted(cert.mapping.values()) == list(other.vertices)


def test_non_isomorphic_returns_none():
    assert is_isomorphic(cycle(6), disjoint_union(cycle(3), cycle(3, labels=[3, 4, 5]))) is None
    assert is_isomorphic(standard_sphere(2), build([[0, 1, 2], [0, 1, 3], [0, 2, 3]])) is None


def test_verify_isomorphism_rejects_bad_maps():
    k = standard_sphere(2)
    other = standard_sphere(2, labels=[4, 5, 6, 7])
    assert verify_isomorphism(k, other, {0: 4, 1: 5, 2: 6, 3: 7})
    assert not verify_isomorphism(k, other, {0: 4, 1: 5, 2: 6, 3: 6})
    assert not verify_isomorphism(k, cycle(4, labels=[4, 5, 6, 7]), {0: 4, 1: 5, 2: 6, 3: 7})


def assert_matches_oracle(complex_):
    form, mapping = _canonical_search(complex_)
    assert form == oracle_canonical_search(complex_)[0]
    assert relabel(complex_, mapping).facet_masks == form


def test_pruned_search_matches_oracle_on_small_classes():
    classes = [masks for n in range(1, 6) for masks in enumerate_complexes(n).classes]
    assert len(classes) == 208
    for masks in classes:
        assert_matches_oracle(Complex.from_masks(masks))


@pytest.mark.parametrize(
    "complex_",
    [
        *(standard_sphere(d) for d in range(2, 6)),
        cycle(9),
        *(kuehnel_complex(d) for d in range(2, 6)),
        cyclic_complementary_complex(),
        projective_plane_6(),
    ],
    ids=["s2", "s3", "s4", "s5", "c9", "k2", "k3", "k4", "k5", "cyclic7", "rp26"],
)
def test_pruned_search_matches_oracle_on_atlas(complex_):
    rng = random.Random(29)
    assert_matches_oracle(complex_)
    for _ in range(5):
        assert_matches_oracle(relabel(complex_, random_relabeling(complex_, rng)))


def test_pruned_search_matches_oracle_on_symmetric_sphere():
    assert_matches_oracle(standard_sphere(6))


def test_all_labeled_9_4_solutions_share_the_oracle_form():
    solutions, _, complete = search._run_dfs(9, 4, prefix=search._symmetry_prefix(9, 4), node_budget=None)
    assert complete and len(solutions) == 480
    expected = oracle_canonical_search(Complex.from_masks(solutions[0]))[0]
    assert {canonical_form(Complex.from_masks(facets)) for facets in solutions} == {expected}


def test_twelve_vertex_sphere_finishes():
    sphere = standard_sphere(10)
    assert canonical_form(sphere) == tuple(sorted(4095 ^ (1 << i) for i in range(12)))
    other = relabel(sphere, random_relabeling(sphere, random.Random(10)))
    assert canonical_form(other) == canonical_form(sphere)
    cert = is_isomorphic(sphere, other)
    assert cert is not None
    assert verify_isomorphism(sphere, other, cert.mapping)
