"""Free faces, collapse steps, and the exact collapsibility decision."""

import random

import pytest

from facetkit import (
    build,
    collapse_step,
    cycle,
    cyclic_complementary_complex,
    enumerate_complexes,
    free_faces,
    homology,
    is_acyclic,
    is_collapsible,
    replay_trace,
    standard_sphere,
)
from facetkit.bits import vertices_of
from facetkit.collapse import _free_pairs, parse_trace


# -- oracle: the original recursive search over an O(F^2) free-pair scan ------


def oracle_free_pairs(faces):
    pairs = []
    for tau in faces:
        container = 0
        count = 0
        for other in faces:
            if other != tau and other & tau == tau:
                count += 1
                if count > 1:
                    break
                container = other
        if count == 1:
            pairs.append((tau, container))
    pairs.sort(key=lambda p: (-p[0].bit_count(), p[0], p[1]))
    return pairs


def oracle_collapse_steps(complex_):
    """The collapse steps to a point, or None; recursion depth is one per step."""
    if complex_.face_profile().euler != 1:
        return None
    dead = set()

    def search(faces):
        if len(faces) == 1 and next(iter(faces)).bit_count() == 1:
            return []
        if faces in dead:
            return None
        for tau, sigma in oracle_free_pairs(faces):
            rest = search(faces - {tau, sigma})
            if rest is not None:
                return [(tau, sigma)] + rest
        dead.add(faces)
        return None

    return search(complex_.face_masks())


def _steps(trace):
    return None if trace is None else list(trace.steps)


def test_matches_oracle_on_small_classes():
    count = 0
    for m in range(1, 6):
        for k in enumerate_complexes(m).class_complexes():
            faces = k.face_masks()
            assert _free_pairs(faces) == oracle_free_pairs(faces), k.facets
            assert _steps(is_collapsible(k)) == oracle_collapse_steps(k), k.facets
            count += 1
    assert count == 208


def test_matches_oracle_on_simplices():
    for n in range(1, 10):
        k = build([list(range(n))])
        assert _free_pairs(k.face_masks()) == oracle_free_pairs(k.face_masks())
        assert _steps(is_collapsible(k)) == oracle_collapse_steps(k)


def test_eleven_vertex_simplex_collapses_without_recursion():
    trace = is_collapsible(build([list(range(11))]))
    assert trace is not None and trace.is_point
    assert len(trace.steps) == 2**10 - 1


def test_free_faces_full_triangle():
    pairs = free_faces(build([[1, 2, 3]]))
    taus = {vertices_of(t) for t, _ in pairs}
    assert taus == {(1, 2), (1, 3), (2, 3)}
    assert all(vertices_of(s) == (1, 2, 3) for _, s in pairs)


def test_free_faces_empty_for_cycle():
    assert free_faces(cycle(3)) == []


def test_free_faces_cyclic7():
    # every triangle lies in exactly one facet, so all 28 are free
    assert len(free_faces(cyclic_complementary_complex())) == 28


def test_collapse_step():
    k = build([[1, 2, 3]])
    smaller = collapse_step(k, [1, 2], [1, 2, 3])
    assert set(smaller.facets) == {(1, 3), (2, 3)}
    assert len(smaller.face_masks()) == len(k.face_masks()) - 2
    with pytest.raises(ValueError):
        collapse_step(k, [1], [1, 2])


def test_collapsible_simplices():
    for n in (1, 2, 3, 4, 5):
        trace = is_collapsible(build([list(range(n))]))
        assert trace is not None and trace.is_point


def test_spheres_not_collapsible():
    assert is_collapsible(standard_sphere(2)) is None
    assert is_collapsible(standard_sphere(3)) is None
    assert is_collapsible(cycle(4)) is None


def test_cone_collapsible():
    cone = cycle(4).join(build([[9]]))
    trace = is_collapsible(cone)
    assert trace is not None and trace.is_point


def test_dunce_like_backtracking_case():
    # two triangles glued along an edge plus a dangling edge: collapsible
    k = build([[0, 1, 2], [1, 2, 3], [3, 4]])
    trace = is_collapsible(k)
    assert trace is not None and trace.is_point


def test_trace_replays():
    k = build([[0, 1, 2], [1, 2, 3]])
    trace = is_collapsible(k)
    steps = parse_trace(trace.render())
    residue = replay_trace(k, steps)
    assert len(residue.face_masks()) == 1
    with pytest.raises(ValueError):
        replay_trace(k, [((0, 1, 2), (0, 1))])


def test_collapsible_implies_acyclic_and_euler_one():
    pool = [
        build([[0, 1, 2]]),
        build([[0, 1, 2], [1, 2, 3], [3, 4]]),
        cycle(5).join(build([[9]])),
        build([[0, 1], [1, 2], [2, 3]]),
    ]
    for k in pool:
        trace = is_collapsible(k)
        assert trace is not None and trace.is_point
        assert is_acyclic(k)
        assert k.face_profile().euler == 1


def test_random_collapse_steps_preserve_homology():
    rng = random.Random(2024)
    pool = [
        build([[0, 1, 2, 3]]),
        build([[0, 1, 2], [1, 2, 3], [2, 3, 4]]),
        cyclic_complementary_complex(),
        cycle(6).join(build([[9]])),
    ]
    def padded(profile, top):
        return [(profile.rank(k), profile.torsion(k)) for k in range(top + 1)]

    for _ in range(40):
        k = rng.choice(pool)
        before = homology(k)
        for _ in range(3):
            pairs = free_faces(k)
            if not pairs:
                break
            tau, sigma = rng.choice(pairs)
            k = collapse_step(k, vertices_of(tau), vertices_of(sigma))
            after = homology(k)
            top = max(len(before.groups), len(after.groups)) - 1
            assert padded(after, top) == padded(before, top)
            before = after
