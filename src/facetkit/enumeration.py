"""Isomorph-free exhaustive generation of small complexes.

Labeled objects are generated by orderly extension of facet antichains, each
held as one `lattice` set of its facets (bit m set iff mask m is a facet).
They are deduplicated by an orbit sweep under S_n (`canonical.sweep_orbits`):
one exact canonical form per orbit, not per labeled object, and the labeled
set must be closed under relabeling, or the sweep raises.  Reports carry both
the canonical class count and the labeled count, which are never conflated.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from .bits import iter_bits, vertices_of
from .canonical import canonical_form, sweep_orbits, symmetric_generators
from .complexes import PSEUDOMANIFOLD, WEAK_PM, Complex, all_simplices
from .collapse import is_collapsible
from .homology import is_acyclic


@dataclass
class EnumerationReport:
    """Outcome of an exhaustive run: canonical classes plus bookkeeping."""

    parameters: dict
    classes: tuple[tuple[int, ...], ...]  # canonical facet masks per class
    labeled_count: int
    complete: bool
    nodes: int
    wall_time: float

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_complexes(self) -> list[Complex]:
        return [Complex.from_masks(masks) for masks in self.classes]

    def write_dir(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        summary = {
            "parameters": self.parameters,
            "class_count": self.class_count,
            "labeled_count": self.labeled_count,
            "complete": self.complete,
            "nodes": self.nodes,
            "wall_time": self.wall_time,
            "classes": [f"class_{i:03d}.cplx" for i in range(self.class_count)],
        }
        (directory / "report.json").write_text(json.dumps(summary, indent=2) + "\n")
        from .formats import dump_facet_text

        for i, complex_ in enumerate(self.class_complexes()):
            head = [f"canonical class {i} of {json.dumps(self.parameters)}"]
            (directory / f"class_{i:03d}.cplx").write_text(dump_facet_text(complex_, head))


def _orbit_classes(labeled: set[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical classes of a set of facet sets that is closed under S_n: one
    canonical form per orbit."""
    orbits = sweep_orbits(labeled, symmetric_generators(range(n), n), n, complete=True)
    classes = {canonical_form(Complex.from_masks(vertices_of(rep))) for rep, _ in orbits}
    return tuple(sorted(classes))


def enumerate_complexes(n: int, filter_=None, candidate_order: str = "size-desc") -> EnumerationReport:
    """All isomorphism classes of simplicial complexes on exactly n vertices
    satisfying the filter.

    Generation walks facet antichains in a fixed candidate order
    ("size-desc" default, "size-asc" for the order-invariance check).
    Unfiltered runs are capped at n <= 5 and filtered runs at n <= 6; the
    antichain space is Dedekind-scale beyond that.

    The filter must not depend on the labels: it has to accept every
    relabeling of a complex it accepts.  A label-dependent filter makes the
    orbit sweep's closure check raise `AssertionError` instead of returning a
    class list that depends on the labels.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if filter_ is None and n > 5:
        raise ValueError("unfiltered enumeration supported for n <= 5 only")
    if n > 6:
        raise ValueError("enumeration supported for n <= 6 only")
    start = time.perf_counter()
    full = (1 << n) - 1
    if candidate_order == "size-desc":
        candidates = sorted(range(1, 1 << n), key=lambda m: (-m.bit_count(), m))
    elif candidate_order == "size-asc":
        candidates = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
    else:
        raise ValueError("candidate_order must be size-desc or size-asc")
    suffix_union = [0] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | candidates[i]

    labeled: set[int] = set()
    nodes = 0
    chosen: list[int] = []
    union = 0

    def walk(start_index: int, bits: int):
        nonlocal union, nodes
        nodes += 1
        if chosen and union == full and (filter_ is None or filter_(Complex.from_masks(chosen))):
            labeled.add(bits)
        for i in range(start_index, len(candidates)):
            if union | suffix_union[i] != full:
                return  # coverage is impossible from here on
            m = candidates[i]
            if any(m & c == m or m & c == c for c in chosen):
                continue
            chosen.append(m)
            old_union = union
            union |= m
            walk(i + 1, bits | 1 << m)
            chosen.pop()
            union = old_union

    walk(0, 0)
    return EnumerationReport(
        parameters={"n": n, "filtered": filter_ is not None, "order": candidate_order},
        classes=_orbit_classes(labeled, n),
        labeled_count=len(labeled),
        complete=True,
        nodes=nodes,
        wall_time=time.perf_counter() - start,
    )


def enumerate_weak_pseudomanifolds(n: int, d: int) -> EnumerationReport:
    """All classes of n-vertex d-dimensional closed weak pseudomanifolds.

    Backtracking over candidate (d+1)-sets with exact ridge counting: every
    (d-1)-face of the result lies in exactly two facets and every vertex is
    used.  Feasible while the candidate pool stays small (e.g. n <= 8 at
    d = 2).
    """
    if d < 1 or n < d + 2:
        raise ValueError("need d >= 1 and n >= d+2")
    from math import comb

    if comb(n, d + 1) > 60:
        raise ValueError(f"candidate pool C({n},{d + 1}) too large to close")
    start = time.perf_counter()
    candidates = all_simplices(range(n), d + 1)
    ridge_list = all_simplices(range(n), d)
    ridge_index = {m: i for i, m in enumerate(ridge_list)}
    cand_ridges = [
        [ridge_index[c ^ b] for b in iter_bits(c)] for c in candidates
    ]
    last_use = [-1] * len(ridge_list)
    for ci, ridges in enumerate(cand_ridges):
        for r in ridges:
            last_use[r] = ci
    final_ridges_at = [[] for _ in candidates]
    for r, ci in enumerate(last_use):
        if ci >= 0:
            final_ridges_at[ci].append(r)
    vertex_last = [-1] * n
    for ci, c in enumerate(candidates):
        for v in vertices_of(c):
            vertex_last[v] = ci

    counts = [0] * len(ridge_list)
    covered = [0] * n
    labeled: set[int] = set()
    nodes = 0

    def finality_ok(i: int) -> bool:
        for r in final_ridges_at[i]:
            if counts[r] == 1:
                return False
        for v in range(n):
            if vertex_last[v] == i and covered[v] == 0:
                return False
        return True

    def walk(i: int, bits: int):
        nonlocal nodes
        nodes += 1
        if i == len(candidates):
            if bits:
                complex_ = Complex.from_masks(vertices_of(bits))
                # distrust the generator: re-verify the outcome
                if complex_.classify_pseudomanifold() in (WEAK_PM, PSEUDOMANIFOLD):
                    labeled.add(bits)
            return
        c = candidates[i]
        ridges = cand_ridges[i]
        if all(counts[r] < 2 for r in ridges):
            for r in ridges:
                counts[r] += 1
            for v in vertices_of(c):
                covered[v] += 1
            if finality_ok(i):
                walk(i + 1, bits | 1 << c)
            for r in ridges:
                counts[r] -= 1
            for v in vertices_of(c):
                covered[v] -= 1
        if finality_ok(i):
            walk(i + 1, bits)

    walk(0, 0)
    return EnumerationReport(
        parameters={"n": n, "d": d, "kind": "weak_pseudomanifolds"},
        classes=_orbit_classes(labeled, n),
        labeled_count=len(labeled),
        complete=True,
        nodes=nodes,
        wall_time=time.perf_counter() - start,
    )


@dataclass
class AcyclicCollapsibleReport:
    """Exhaustive check that integral acyclicity forces collapsibility."""

    max_vertices: int
    classes_checked: int
    acyclic_classes: int
    collapsible_classes: int
    counterexamples: tuple[tuple[int, ...], ...]
    wall_time: float

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def verify_acyclic_implies_collapsible(n: int) -> AcyclicCollapsibleReport:
    """Over every isomorphism class on <= n vertices, check that integrally
    acyclic complexes are collapsible."""
    if n > 5:
        raise ValueError("exhaustive verification supported for n <= 5 only")
    start = time.perf_counter()
    checked = acyclic = collapsible = 0
    bad: list[tuple[int, ...]] = []
    for m in range(1, n + 1):
        for complex_ in enumerate_complexes(m).class_complexes():
            checked += 1
            if not is_acyclic(complex_):
                continue
            acyclic += 1
            trace = is_collapsible(complex_)
            if trace is not None and trace.is_point:
                collapsible += 1
            else:
                bad.append(complex_.facet_masks)
    return AcyclicCollapsibleReport(
        max_vertices=n,
        classes_checked=checked,
        acyclic_classes=acyclic,
        collapsible_classes=collapsible,
        counterexamples=tuple(bad),
        wall_time=time.perf_counter() - start,
    )
