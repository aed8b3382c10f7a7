"""Complementary weak pseudomanifold search: oracle equivalence, symmetry
soundness, checkpointing, parallelism."""

import json

import pytest

from facetkit import (
    PSEUDOMANIFOLD,
    WEAK_PM,
    brute_force_complementary,
    forced_profile,
    homology,
    is_circle,
    is_complementary,
    search_complementary,
)


def test_6_2_exhaustive_single_class():
    report = search_complementary(6, 2)
    assert report.complete
    assert report.class_count == 1
    k = report.class_complexes()[0]
    assert k.face_profile().counts == tuple(forced_profile(6, 2).counts)
    assert k.face_profile().euler == 1
    assert all(is_circle(k.link([v])) for v in k.vertices)
    profile = homology(k)
    assert profile.torsion(1) == (2,) and profile.rank(1) == 0
    assert profile.rank(2) == 0 and profile.torsion(2) == ()


def test_6_2_oracle_equivalence():
    assert search_complementary(6, 2).classes == brute_force_complementary(6, 2).classes


def test_6_2_symmetry_breaking_changes_nothing():
    with_sym = search_complementary(6, 2)
    without = search_complementary(6, 2, symmetry_breaking=False)
    assert with_sym.classes == without.classes
    # the unrestricted run sees every labeled copy
    assert without.labeled_count == brute_force_complementary(6, 2).labeled_count


def test_outputs_reverify():
    for k in search_complementary(6, 2).class_complexes():
        assert is_complementary(k)
        assert k.classify_pseudomanifold() in (WEAK_PM, PSEUDOMANIFOLD)


def test_7_3_closed_search_is_empty():
    report = search_complementary(7, 3)
    assert report.complete
    assert report.class_count == 0
    assert search_complementary(7, 3, symmetry_breaking=False).class_count == 0


def test_small_cases_match_brute_force():
    for n, d in [(4, 2), (5, 2), (5, 3), (6, 2)]:
        assert search_complementary(n, d).classes == brute_force_complementary(n, d).classes


def test_12_6_refused():
    with pytest.raises(ValueError, match="audit"):
        search_complementary(12, 6)
    with pytest.raises(ValueError):
        search_complementary(13, 6)


def test_checkpoint_and_resume(tmp_path):
    state = tmp_path / "state.json"
    partial = search_complementary(6, 2, node_budget=1, checkpoint_path=state)
    assert not partial.complete
    assert state.exists()
    payload = json.loads(state.read_text())
    assert payload["n"] == 6 and payload["d"] == 2 and payload["suspended"]
    resumed = search_complementary(6, 2, node_budget=10**6, resume_from=state)
    assert resumed.complete
    assert resumed.classes == search_complementary(6, 2).classes


def test_resume_rejects_mismatched_state(tmp_path):
    state = tmp_path / "state.json"
    search_complementary(6, 2, node_budget=1, checkpoint_path=state)
    with pytest.raises(ValueError):
        search_complementary(7, 3, resume_from=state)

