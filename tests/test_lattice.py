"""The face-set bitset against the `Complex`-based leaf verification it
replaced.

`oracle_verify_candidate` is the former body of `search._verify_candidate`,
which took a face list where `_verify_candidate` takes a face set.  Both must
return the same facets on every leaf the DFS reaches at (6,2),
(9,4), unprefixed (6,2) and (7,3) and a budgeted (10,5), on every assignment
the brute force tries, and on one hand-made reject per check.  No face list
on at most 4 vertices, and no complementary one on 5, fails the vertex,
closure or purity check alone, so those rejects also fail another check;
`failed_checks` pins which.
"""

import os
import subprocess
import sys

import pytest

from facetkit import (
    PSEUDOMANIFOLD,
    WEAK_PM,
    Complex,
    PairLedger,
    brute_force_complementary,
    cycle,
    cyclic_complementary_complex,
    is_complementary,
    kuehnel_complex,
    lattice,
    projective_plane_6,
    search,
    standard_sphere,
)
from facetkit.bits import vertices_of
from facetkit.search import FACE

# -- oracle: the former leaf verification, on a rebuilt Complex ----------------


def oracle_verify_candidate(faces, n, d):
    if not faces:
        return None
    complex_ = Complex.from_masks(faces)
    if complex_.vertex_mask != (1 << n) - 1:
        return None
    if complex_.dim != d:
        return None
    if complex_.face_masks() != frozenset(faces):
        return None  # decided face set was not downward closed
    if complex_.classify_pseudomanifold() not in (WEAK_PM, PSEUDOMANIFOLD):
        return None
    if not is_complementary(complex_):
        return None
    return complex_.facet_masks


def record_leaves(monkeypatch, run):
    """The face sets `search._verify_candidate` sees during `run()`."""
    leaves = []
    real = search._verify_candidate

    def spy(faces, n, d):
        leaves.append((faces, n, d))
        return real(faces, n, d)

    monkeypatch.setattr(search, "_verify_candidate", spy)
    run()
    monkeypatch.undo()
    return leaves


def verify(faces, n, d):
    """`search._verify_candidate` on a face list, its facets as a tuple."""
    tops = search._verify_candidate(lattice.face_set(faces, n), n, d)
    return None if tops is None else vertices_of(tops)


def assert_same_verdicts(leaves):
    for faces, n, d in leaves:
        tops = search._verify_candidate(faces, n, d)
        assert (None if tops is None else vertices_of(tops)) == oracle_verify_candidate(vertices_of(faces), n, d)


# -- every leaf and every brute-force assignment ---------------------------------


@pytest.mark.parametrize(
    "n, d, prefixed, budget, accepted",
    [(6, 2, True, None, 2), (9, 4, True, None, 480), (6, 2, False, None, 12), (7, 3, False, None, 0), (10, 5, True, 1_000, 0)],
)
def test_dfs_leaves_match_oracle(monkeypatch, n, d, prefixed, budget, accepted):
    prefix = search._symmetry_prefix(n, d) if prefixed else []
    leaves = record_leaves(monkeypatch, lambda: search._run_dfs(n, d, prefix=prefix, node_budget=budget))
    assert_same_verdicts(leaves)
    assert sum(search._verify_candidate(*leaf) is not None for leaf in leaves) == accepted


@pytest.mark.parametrize("n, d", [(4, 2), (5, 2), (6, 2), (5, 3)])
def test_brute_force_assignments_match_oracle(monkeypatch, n, d):
    leaves = record_leaves(monkeypatch, lambda: brute_force_complementary(n, d))
    assert len(leaves) == 1 << len(PairLedger(n, d).pairs)
    assert_same_verdicts(leaves)


# -- one hand-made reject per check ------------------------------------------------

RP2 = sorted(projective_plane_6().face_masks())


def without(faces, mask):
    return [m for m in faces if m != mask]


def masks_of(*simplices):
    """Every nonempty subset of the given vertex tuples, as masks."""
    return sorted(Complex.from_masks(sum(1 << v for v in s) for s in simplices).face_masks())


def test_rp2_is_accepted():
    assert verify(RP2, 6, 2) == projective_plane_6().facet_masks
    assert oracle_verify_candidate(RP2, 6, 2) == projective_plane_6().facet_masks


def failed_checks(faces, n, d):
    """The names of the checks `_verify_candidate` makes that the face list fails."""
    f = lattice.face_set(faces, n)
    tops = lattice.facets(f, n)
    once, twice, thrice = lattice.ridge_multiplicity(tops, n)
    failed = {
        "vertex": lattice.of_size(1, n) & ~f,
        "closed": not lattice.is_closed(f, n),
        "pure": tops & ~lattice.of_size(d + 1, n),
        "exactly-two": once != twice,
        "at-most-two": thrice,
        "complementary": not lattice.is_complementary(f, n),
    }
    return {name for name, bad in failed.items() if bad}


K5_EDGES = masks_of(*[(a, b) for a in range(5) for b in range(a + 1, 5)])


@pytest.mark.parametrize(
    "faces, n, d, failed",
    [
        (without(RP2, 0b11), 6, 2, {"closed", "complementary"}),
        (RP2, 7, 2, {"vertex", "complementary"}),
        (masks_of((0, 1, 2), (2, 3)), 4, 2, {"pure", "exactly-two", "complementary"}),
        # every vertex of K5 lies in 4 edges; only the multiplicity check fails
        (K5_EDGES, 5, 1, {"at-most-two"}),
        # the empty ridge of a 0-dimensional complex lies in every point
        ([0b1], 1, 0, {"exactly-two"}),
        # the boundary of a tetrahedron is a closed pseudomanifold
        (masks_of(*standard_sphere(2).facets), 4, 2, {"complementary"}),
    ],
    ids=["not-closed", "vertex-missing", "not-pure", "ridge-in-4-facets", "ridge-in-1-facet", "not-complementary"],
)
def test_each_check_rejects(faces, n, d, failed):
    assert failed_checks(faces, n, d) == failed
    assert verify(faces, n, d) is None
    assert oracle_verify_candidate(faces, n, d) is None


# -- input edge cases ----------------------------------------------------------------


def test_label_outside_range_is_rejected():
    with pytest.raises(IndexError):
        lattice.face_set(RP2 + [1 << 6], 6)
    assert oracle_verify_candidate(RP2 + [1 << 6], 6, 2) is None
    rp2 = lattice.face_set(RP2, 6)
    assert search._verify_candidate(rp2, 6, 2) is not None
    for label in (6, 7):  # bit 64 is the set {6}, bit 128 the set {7}
        assert search._verify_candidate(rp2 | 1 << (1 << label), 6, 2) is None


def test_empty_face_raises():
    with pytest.raises(ValueError):
        lattice.face_set(RP2 + [0], 6)
    with pytest.raises(ValueError):
        oracle_verify_candidate(RP2 + [0], 6, 2)
    assert search._verify_candidate(lattice.face_set(RP2, 6) | 1, 6, 2) is None


def test_empty_list_is_rejected():
    assert lattice.face_set([], 6) == 0
    assert search._verify_candidate(0, 6, 2) is None
    assert oracle_verify_candidate([], 6, 2) is None


def test_more_than_16_vertices_refused_before_any_table():
    built = lattice._tables.cache_info().currsize
    for call in (lambda: lattice.face_set([1], 17), lambda: lattice.of_size(1, 17), lambda: lattice.shadow(1, 17)):
        with pytest.raises(ValueError, match="at most 16 vertices"):
            call()
    assert lattice._tables.cache_info().currsize == built


def test_no_table_is_built_at_import():
    probe = "import facetkit; print(facetkit.lattice._tables.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


# -- the lattice against Complex on the atlas ------------------------------------------

ATLAS = (
    [(f"sphere{d}", lambda d=d: standard_sphere(d)) for d in range(12)]
    + [(f"cycle{n}", lambda n=n: cycle(n)) for n in range(3, 14)]
    + [(f"kuehnel{d}", lambda d=d: kuehnel_complex(d)) for d in range(2, 6)]
    + [("cyclic7", cyclic_complementary_complex), ("rp2_6", projective_plane_6)]
)


@pytest.mark.parametrize("build", [b for _, b in ATLAS], ids=[name for name, _ in ATLAS])
def test_facets_and_f_vector_match_complex(build):
    complex_ = build()
    n = complex_.vertex_mask.bit_length()
    assert n <= 13
    f = lattice.face_set(complex_.face_masks(), n)
    assert lattice.is_closed(f, n)
    assert vertices_of(lattice.facets(f, n)) == complex_.facet_masks
    counts = tuple((f & lattice.of_size(s, n)).bit_count() for s in range(1, complex_.dim + 2))
    assert counts == complex_.face_profile().counts
    assert lattice.is_complementary(f, n) == is_complementary(complex_)


def test_rev_complements_every_set():
    n = 5
    for m in range(1 << n):
        assert lattice.rev(1 << m, n) == 1 << ((1 << n) - 1 ^ m)


# -- the ledger's face set ---------------------------------------------------------------


def oracle_ledger_faces(ledger):
    return lattice.face_set([m for m in range(1, ledger.full + 1) if ledger.status[m] == FACE], ledger.n)


@pytest.mark.parametrize("n, d, budget, leaves", [(9, 4, 100, 48), (6, 2, None, 2)], ids=["9-4-budget100", "6-2"])
def test_ledger_face_set_matches_comprehension(monkeypatch, n, d, budget, leaves):
    """After every assignment (the prefix's and one per node) and at every leaf."""
    seen = {"assign": 0, "leaf": 0}
    real_assign, real_face_set = PairLedger.assign, PairLedger.face_set

    def assign(self, mask, value):
        ok = real_assign(self, mask, value)
        assert real_face_set(self) == oracle_ledger_faces(self)
        seen["assign"] += 1
        return ok

    def face_set(self):
        got = real_face_set(self)
        assert got == oracle_ledger_faces(self)
        seen["leaf"] += 1
        return got

    monkeypatch.setattr(PairLedger, "assign", assign)
    monkeypatch.setattr(PairLedger, "face_set", face_set)
    prefix = search._symmetry_prefix(n, d)
    _, nodes, _ = search._run_dfs(n, d, prefix=prefix, node_budget=budget)
    assert seen == {"assign": nodes + len(prefix), "leaf": leaves}
