"""Oracles for the mask-level building blocks.

The submask walk, the complementarity scan and `Complex.from_masks` are
each checked against the straightforward version they replaced, on every
mask below 2^10, on all 208 classes on at most 5 vertices, on the atlas
complexes and on seeded relabelings of them.
"""

import random
from itertools import combinations

import pytest

from facetkit import (
    Complex,
    cycle,
    cyclic_complementary_complex,
    enumerate_complexes,
    is_complementary,
    kuehnel_complex,
    projective_plane_6,
    standard_sphere,
)
from facetkit.bits import iter_bits, nonempty_submasks

# -- oracles: the combinations walk, the pair scan through the least vertex,
# -- and the hand-rolled sorted-facets-plus-union construction -----------------


def oracle_nonempty_submasks(mask):
    bits = list(iter_bits(mask))
    out = []
    for r in range(1, len(bits) + 1):
        for combo in combinations(bits, r):
            sub = 0
            for b in combo:
                sub |= b
            out.append(sub)
    return out


def oracle_is_complementary(complex_):
    full = complex_.vertex_mask
    if full.bit_count() <= 1:
        return True
    faces = complex_.face_masks()
    low = full & -full
    rest = full ^ low
    sub = rest
    while True:
        candidate = sub | low
        if candidate != full and (candidate in faces) == ((full ^ candidate) in faces):
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & rest


def oracle_from_masks(masks):
    masks = set(masks)
    maximal = [f for f in masks if not any(g != f and g & f == f for g in masks)]
    vmask = 0
    for m in maximal:
        vmask |= m
    return Complex(tuple(sorted(maximal)), vmask)


def _state(complex_):
    return type(complex_.facet_masks), complex_.facet_masks, complex_.vertex_mask


def _relabeled(masks, rng):
    verts = list(iter_bits(oracle_from_masks(masks).vertex_mask))
    images = rng.sample(range(64), len(verts))
    out = []
    for m in masks:
        image = 0
        for v, w in zip(verts, images):
            if m & v:
                image |= 1 << w
        out.append(image)
    return tuple(out)


ATLAS = [
    standard_sphere(0),
    standard_sphere(2),
    standard_sphere(4),
    cycle(3),
    cycle(7),
    kuehnel_complex(2),
    kuehnel_complex(3),
    kuehnel_complex(5),
    cyclic_complementary_complex(),
    projective_plane_6(),
]


@pytest.fixture(scope="module")
def facet_lists():
    """Facet masks of the 208 classes, the atlas and 5 relabelings of each atlas complex."""
    lists = [masks for n in range(1, 6) for masks in enumerate_complexes(n).classes]
    assert len(lists) == 208
    rng = random.Random(28)
    for k in ATLAS:
        lists.append(k.facet_masks)
        lists.extend(_relabeled(k.facet_masks, rng) for _ in range(5))
    return lists


def test_submask_walk_matches_combinations(facet_lists):
    # every mask below 2^10, plus the relabeled facets spread over labels 0..63
    masks = set(range(1 << 10)).union(*facet_lists)
    for mask in sorted(masks):
        assert list(nonempty_submasks(mask)) == sorted(oracle_nonempty_submasks(mask), reverse=True)


def test_is_complementary_matches_pair_scan(facet_lists):
    verdicts = set()
    for masks in facet_lists:
        k = Complex.from_masks(masks)
        verdict = is_complementary(k)
        assert verdict == oracle_is_complementary(k), masks
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_is_complementary_stops_at_first_bad_pair():
    # 40 vertices: the scan fails within a few pairs, never listing 2^39 subsets
    assert not is_complementary(cycle(40))


def test_from_masks_matches_hand_rolled(facet_lists):
    for masks in facet_lists:
        assert _state(Complex.from_masks(masks)) == _state(oracle_from_masks(masks))
        assert _state(Complex.from_masks(iter(masks))) == _state(oracle_from_masks(masks))
        shuffled = list(masks) * 2
        random.Random(len(masks)).shuffle(shuffled)
        assert _state(Complex.from_masks(shuffled)) == _state(oracle_from_masks(masks))
        # every face as a generator: the non-maximal ones are absorbed
        faces = oracle_from_masks(masks).face_masks()
        assert _state(Complex.from_masks(faces)) == _state(oracle_from_masks(masks))
