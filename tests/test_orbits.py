"""Deduplication by orbit sweep: the class tuples equal the per-object
oracle's, the closure check catches a lost or a label-dependent object, the
orbit sizes satisfy orbit-stabilizer, and the canonical-call counts are
pinned."""

from itertools import permutations
from math import factorial

import pytest

from facetkit import (
    Complex,
    brute_force_complementary,
    canonical_form,
    enumerate_complexes,
    enumerate_weak_pseudomanifolds,
    search_complementary,
)
from facetkit import enumeration, search
from facetkit.bits import vertices_of
from facetkit.canonical import sweep_orbits, symmetric_generators

# -- oracle: the per-object dedupe the sweep replaced ----------------------------


def oracle_dedupe(labeled):
    """One canonical form per labeled facet set, then the distinct forms."""
    return tuple(sorted({canonical_form(Complex.from_masks(vertices_of(facets))) for facets in labeled}))


def capture(monkeypatch, owner, name):
    """Record the arguments of every call to `owner.name`."""
    seen = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return seen


def count_canonical(monkeypatch, module):
    """A one-item list holding the number of `module.canonical_form` calls."""
    calls = [0]
    real = module.canonical_form

    def counted(complex_):
        calls[0] += 1
        return real(complex_)

    monkeypatch.setattr(module, "canonical_form", counted)
    return calls


def sn_orbits(labeled, n):
    return sweep_orbits(labeled, symmetric_generators(range(n), n), n, complete=True)


# -- the generators --------------------------------------------------------------


def brute_force_group_order(generators, n):
    group = {tuple(range(n))}
    frontier = list(group)
    for p in frontier:
        for g in generators:
            q = tuple(g[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return len(group)


@pytest.mark.parametrize("n, d", [(4, 2), (6, 2), (7, 3), (9, 4)])
def test_prefix_stabilizer_order(n, d):
    h = search._prefix_stabilizer(n, d)
    assert brute_force_group_order(h, n) == 2 * factorial(d) * factorial(n - d - 2)
    prefix = {mask for mask, _ in search._symmetry_prefix(n, d)}
    for g in h:
        assert {sum(1 << g[v] for v in vertices_of(m)) for m in prefix} == prefix


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_symmetric_generators_generate_sn(n):
    assert brute_force_group_order(symmetric_generators(range(n), n), n) == factorial(n)


# -- equality with the oracle ----------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", ["size-desc", "size-asc"])
def test_enumerate_complexes_matches_oracle(monkeypatch, n, order):
    seen = capture(monkeypatch, enumeration, "_orbit_classes")
    report = enumerate_complexes(n, candidate_order=order)
    (labeled, _), = seen
    assert report.labeled_count == len(labeled)
    assert report.classes == oracle_dedupe(labeled)


@pytest.mark.parametrize("n, d", [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (7, 3), (6, 4), (7, 4)])
def test_enumerate_weak_pseudomanifolds_matches_oracle(monkeypatch, n, d):
    seen = capture(monkeypatch, enumeration, "_orbit_classes")
    report = enumerate_weak_pseudomanifolds(n, d)
    (labeled, _), = seen
    assert report.labeled_count == len(labeled)
    assert report.classes == oracle_dedupe(labeled)


PREFIXED_CELLS = [(4, 2, True), (5, 2, True), (6, 2, True), (7, 3, True), (8, 4, True)]
# every unprefixed cell with n <= 7 but (7,5), which takes 2.6M nodes (about 95 s) to find nothing
UNPREFIXED_CELLS = [(n, d, False) for n in range(3, 8) for d in range(1, n - 1) if (n, d) != (7, 5)]


@pytest.mark.parametrize("n, d, symmetry_breaking", PREFIXED_CELLS + UNPREFIXED_CELLS)
def test_search_matches_oracle(n, d, symmetry_breaking):
    prefix = search._symmetry_prefix(n, d) if symmetry_breaking else []
    solutions, _, complete = search._run_dfs(n, d, prefix=prefix, node_budget=None)
    assert complete
    report = search_complementary(n, d, symmetry_breaking=symmetry_breaking)
    assert report.classes == oracle_dedupe(solutions)


@pytest.mark.parametrize(
    "n, d", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (7, 1), (7, 2)]
)
def test_brute_force_matches_oracle(monkeypatch, n, d):
    seen = capture(monkeypatch, search, "_dedupe")
    report = brute_force_complementary(n, d)
    (solutions, *_), = seen
    assert report.classes == oracle_dedupe(solutions)


def test_incomplete_search_matches_oracle():
    solutions, nodes, complete = search._run_dfs(6, 2, prefix=[], node_budget=12)
    assert not complete and 0 < len(solutions) < 12
    group = symmetric_generators(range(6), 6)
    assert search._dedupe(solutions, 6, group, complete=False) == oracle_dedupe(solutions)
    with pytest.raises(AssertionError, match="not closed"):
        search._dedupe(solutions, 6, group, complete=True)


# -- the closure check -----------------------------------------------------------


def test_lost_enumerated_object_raises(monkeypatch):
    seen = capture(monkeypatch, enumeration, "_orbit_classes")
    enumerate_weak_pseudomanifolds(6, 2)
    (labeled, n), = seen
    with pytest.raises(AssertionError, match="not closed"):
        sn_orbits(labeled - {min(labeled)}, n)


def test_label_dependent_filter_raises():
    with pytest.raises(AssertionError, match="not closed"):
        enumerate_complexes(3, filter_=lambda c: 0b11 in c.face_masks())


# -- orbit-stabilizer ------------------------------------------------------------


def brute_force_automorphism_count(facets, n):
    facets = set(facets)
    return sum(
        all(sum(1 << p[v] for v in vertices_of(m)) in facets for m in facets) for p in permutations(range(n))
    )


@pytest.mark.parametrize("n, d", [(1, None), (2, None), (3, None), (4, None), (7, 4)])
def test_orbit_times_automorphisms_is_n_factorial(monkeypatch, n, d):
    seen = capture(monkeypatch, enumeration, "_orbit_classes")
    report = enumerate_complexes(n) if d is None else enumerate_weak_pseudomanifolds(n, d)
    (labeled, _), = seen
    orbits = sn_orbits(labeled, n)
    assert len(orbits) == report.class_count
    assert sum(size for _, size in orbits) == report.labeled_count
    for rep, size in orbits:
        assert size * brute_force_automorphism_count(vertices_of(rep), n) == factorial(n)
    if (n, d) == (7, 4):
        assert sorted(size for _, size in orbits) == [21, 35]


# -- pinned work counts: one canonical form per orbit ----------------------------


def test_search_canonical_calls_per_orbit(monkeypatch):
    calls = count_canonical(monkeypatch, search)
    assert search_complementary(6, 2).class_count == 1
    assert calls[0] == 1


@pytest.mark.parametrize(
    "run, expected",
    [(lambda: enumerate_weak_pseudomanifolds(7, 2), 13), (lambda: enumerate_complexes(5), 180)],
    ids=["wpm-7-2", "complexes-5"],
)
def test_enumeration_canonical_calls_per_orbit(monkeypatch, run, expected):
    calls = count_canonical(monkeypatch, enumeration)
    assert run().class_count == expected
    assert calls[0] == expected
