"""Core complex operations against independent expansions."""

from itertools import combinations

import pytest

from facetkit import (
    NOT_PURE,
    OTHER,
    PSEUDOMANIFOLD,
    WEAK_PM,
    WEAK_PM_WITH_BOUNDARY,
    Complex,
    build,
    cycle,
    disjoint_union,
    kuehnel_complex,
    standard_sphere,
)

CYCLIC7_FACETS = [[(i) % 7, (i + 3) % 7, (i + 5) % 7, (i + 6) % 7] for i in range(7)]


def brute_force_faces(facets):
    """Oracle: expand every facet into all nonempty subsets."""
    faces = set()
    for f in facets:
        s = tuple(sorted(f))
        for r in range(1, len(s) + 1):
            faces.update(combinations(s, r))
    return faces


def brute_force_profile(facets):
    faces = brute_force_faces(facets)
    top = max(len(f) for f in faces)
    counts = [0] * top
    for f in faces:
        counts[len(f) - 1] += 1
    return tuple(counts)


def test_build_absorbs_non_maximal():
    k = build([{1, 2, 3}, {1, 2}])
    assert k.facets == ((1, 2, 3),)
    assert k.vertices == (1, 2, 3)


def test_build_errors():
    with pytest.raises(ValueError):
        build([])
    with pytest.raises(ValueError):
        build([set()])
    with pytest.raises(ValueError):
        build([{0, 64}])
    with pytest.raises(ValueError):
        build([{-1}])
    for masks in ([], iter([]), [0], [0b11, 0], [-1], [1 << 64]):
        with pytest.raises(ValueError):
            Complex.from_masks(masks)


def test_face_profile_sphere():
    fp = standard_sphere(2).face_profile()
    assert fp.counts == (4, 6, 4)
    assert fp.euler == 2


def test_face_profile_cyclic7_matches_subset_expansion():
    k = build(CYCLIC7_FACETS)
    fp = k.face_profile()
    assert fp.counts == brute_force_profile(CYCLIC7_FACETS)
    assert fp.counts == (7, 21, 28, 7)
    assert fp.euler == 7
    assert fp.euler % 2 == 1  # odd vertex count: odd euler characteristic


def test_face_profile_kuehnel3():
    k = kuehnel_complex(3)
    fp = k.face_profile()
    assert fp.counts == brute_force_profile([list(f) for f in k.facets])
    assert fp.counts == (9, 36, 54, 27)
    assert fp.euler == 0
    assert fp.counts[1] == 36  # 2-neighbourly: every pair is an edge


def test_downward_closure():
    for k in (build(CYCLIC7_FACETS), kuehnel_complex(3), standard_sphere(3)):
        faces = k.face_masks()
        for face in faces:
            bit = face
            while bit:
                low = bit & -bit
                sub = face ^ low
                if sub:
                    assert sub in faces
                bit ^= low


def test_link_sphere_vertex():
    s = standard_sphere(2, labels=[1, 2, 3, 4])
    link = s.link([1])
    assert link.facets == ((2, 3), (2, 4), (3, 4))
    assert link.classify_pseudomanifold() == PSEUDOMANIFOLD


def test_link_cyclic7():
    k = build(CYCLIC7_FACETS)
    link = k.link([0])
    assert set(link.facets) == {(3, 5, 6), (1, 4, 6), (1, 2, 5), (2, 3, 4)}
    assert link.n_vertices == 6


def test_link_errors():
    s = standard_sphere(2)
    with pytest.raises(ValueError):
        s.link([0, 9])  # not a face
    with pytest.raises(ValueError):
        build([[0, 1, 2]]).link([0, 1, 2])  # maximal face has no link here


def test_join_squares_and_spheres():
    from facetkit import canonical_form

    s0a = standard_sphere(0, labels=[0, 1])
    s0b = standard_sphere(0, labels=[2, 3])
    square = s0a.join(s0b)
    assert canonical_form(square) == canonical_form(cycle(4))
    five = standard_sphere(1, labels=[0, 1, 2]).join(standard_sphere(0, labels=[3, 4]))
    assert five.classify_pseudomanifold() == PSEUDOMANIFOLD
    assert five.face_profile().counts == (5, 9, 6)


def test_join_shared_label_errors():
    with pytest.raises(ValueError):
        standard_sphere(0, labels=[0, 1]).join(standard_sphere(0, labels=[1, 2]))


def test_join_preserves_weak_pm():
    lhs = standard_sphere(1, labels=[0, 1, 2])
    rhs = cycle(4, labels=[3, 4, 5, 6])
    assert lhs.join(rhs).classify_pseudomanifold() in (WEAK_PM, PSEUDOMANIFOLD)


def test_euler_identities():
    # additivity over disjoint union, and the join formula
    a, b = standard_sphere(2), standard_sphere(1, labels=[9, 10, 11])
    du = disjoint_union(a, b)
    assert du.face_profile().euler == a.face_profile().euler + b.face_profile().euler
    for d1, d2 in [(0, 0), (0, 1), (1, 1), (0, 2)]:
        lhs = standard_sphere(d1)
        rhs = standard_sphere(d2, labels=range(10, 12 + d2))
        x, y = lhs.face_profile().euler, rhs.face_profile().euler
        assert lhs.join(rhs).face_profile().euler == x + y - x * y


def test_induced():
    s = standard_sphere(2, labels=[1, 2, 3, 4])
    sub = s.induced([2, 3, 4])
    assert sub.facets == ((2, 3, 4),)
    k = build(CYCLIC7_FACETS)
    assert k.induced(k.vertices) == k
    with pytest.raises(ValueError):
        k.induced([])
    with pytest.raises(ValueError):
        k.induced([0, 42])


def test_induced_kuehnel_window_is_sphere():
    from facetkit import is_isomorphic

    k = kuehnel_complex(3)
    window = k.induced([0, 1, 2, 3])
    assert is_isomorphic(window, standard_sphere(2)) is not None


def test_classify():
    assert standard_sphere(2).classify_pseudomanifold() == PSEUDOMANIFOLD
    assert build(CYCLIC7_FACETS).classify_pseudomanifold() == WEAK_PM_WITH_BOUNDARY
    two_spheres = disjoint_union(
        standard_sphere(2), standard_sphere(2, labels=[4, 5, 6, 7])
    )
    assert two_spheres.classify_pseudomanifold() == WEAK_PM
    assert build([[0, 1, 2], [2, 3]]).classify_pseudomanifold() == NOT_PURE
    # three triangles sharing one edge: a ridge in three facets
    assert build([[0, 1, 2], [0, 1, 3], [0, 1, 4]]).classify_pseudomanifold() == OTHER
    assert build([[0, 1, 2]]).classify_pseudomanifold() == WEAK_PM_WITH_BOUNDARY
    assert standard_sphere(0).classify_pseudomanifold() == PSEUDOMANIFOLD


def test_facet_graph():
    g = standard_sphere(2).facet_graph()
    assert all(len(a) == 3 for a in g.adjacency)  # complete graph on the 4 facets
    assert g.is_connected()
    two = disjoint_union(standard_sphere(2), standard_sphere(2, labels=[4, 5, 6, 7]))
    assert not two.facet_graph().is_connected()
    assert not any(build(CYCLIC7_FACETS).facet_graph().adjacency)  # no shared ridge
    with pytest.raises(ValueError):
        build([[0, 1, 2], [2, 3]]).facet_graph()


def test_is_k_neighbourly():
    assert kuehnel_complex(3).is_k_neighbourly(2)
    assert not build(CYCLIC7_FACETS).is_k_neighbourly(3)  # 28 of 35 triples
    for k in (standard_sphere(2), build(CYCLIC7_FACETS), cycle(5)):
        assert k.is_k_neighbourly(1)
    with pytest.raises(ValueError):
        standard_sphere(2).is_k_neighbourly(0)


def test_links_of_weak_pm_are_weak_pm():
    for k in (standard_sphere(3), kuehnel_complex(2), kuehnel_complex(3)):
        d = k.dim
        for face in sorted(k.face_masks()):
            if face in k.facet_masks:
                continue
            link = k.link([v for v in range(64) if face >> v & 1])
            assert link.classify_pseudomanifold() in (WEAK_PM, PSEUDOMANIFOLD)
            assert link.dim == d - face.bit_count()


def test_complex_values_immutable():
    k = standard_sphere(2)
    with pytest.raises(AttributeError):
        k.facet_masks = ()
