"""Free faces, elementary collapses, and exact collapsibility decision.

The collapsibility search is exhaustive over free-face choices with
memoization on the exact remaining face set, so "not collapsible" is a
definitive verdict, not a search failure.  It is an iterative depth-first
search over one mutable face set, so its depth is bounded by memory, not by
the interpreter's recursion limit.  Candidate pairs are tried in a
fixed order (free-face dimension descending, then bit order) so traces are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Collection

from .bits import mask_from, vertices_of
from .complexes import Complex


@dataclass(frozen=True)
class CollapseTrace:
    """An ordered list of (free_face, coface) mask pairs, with the residue."""

    steps: tuple[tuple[int, int], ...]
    residue: Complex

    @property
    def is_point(self) -> bool:
        return is_point(self.residue.facet_masks)

    def render(self) -> str:
        lines = []
        for tau, sigma in self.steps:
            lines.append(
                " ".join(map(str, vertices_of(tau)))
                + " -> "
                + " ".join(map(str, vertices_of(sigma)))
            )
        return "\n".join(lines) + "\n"


def parse_trace(text: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise ValueError(f"line {lineno}: expected 'tau -> sigma'")
        left, right = line.split("->", 1)
        try:
            steps.append((tuple(map(int, left.split())), tuple(map(int, right.split()))))
        except ValueError:
            raise ValueError(f"line {lineno}: expected integer labels") from None
    return steps


def is_point(masks: Collection[int]) -> bool:
    """True iff `masks` is one single-vertex mask: the face set of a point,
    and equally its facet list."""
    return len(masks) == 1 and next(iter(masks)).bit_count() == 1


def _free_pairs(faces: set[int] | frozenset[int]) -> list[tuple[int, int]]:
    """(free_face, coface) pairs of a downward-closed face set, sorted.

    In a downward-closed set every proper superset of tau contains some
    tau | v, so tau has exactly one proper superset iff exactly one tau | v
    is a face; testing those is O(n) per face instead of O(F).
    """
    vertex_mask = reduce(or_, faces, 0)
    pairs = []
    for tau in faces:
        container = 0
        rest = vertex_mask & ~tau
        while rest:
            low = rest & -rest
            if tau | low in faces:
                if container:
                    break
                container = tau | low
            rest ^= low
        else:
            if container:
                pairs.append((tau, container))
    pairs.sort(key=lambda p: (-p[0].bit_count(), p[0], p[1]))
    return pairs


def free_faces(complex_: Complex) -> list[tuple[int, int]]:
    """All (free_face, coface) pairs, as masks.

    A free face has exactly one proper superset among the faces; that
    superset is necessarily maximal and exactly one dimension up, which is
    asserted here rather than assumed.
    """
    faces = complex_.face_masks()
    pairs = _free_pairs(faces)
    for tau, sigma in pairs:
        assert sigma.bit_count() == tau.bit_count() + 1
        assert not any(g != sigma and g & sigma == sigma for g in faces)
    return pairs


def collapse_step(complex_: Complex, tau, sigma) -> Complex:
    """Remove a free pair; the result's face set is the old one minus {tau, sigma}."""
    tmask, smask = mask_from(tau), mask_from(sigma)
    faces = complex_.face_masks()
    if (tmask, smask) not in _free_pairs(faces):
        raise ValueError("not a free pair: the first face must have the second as its unique proper superset")
    return Complex.from_masks(faces - {tmask, smask})


def is_collapsible(complex_: Complex) -> CollapseTrace | None:
    """A collapse trace ending at a single vertex, or None (definitively)."""
    # each elementary collapse removes one k-face and one (k+1)-face, so the
    # euler characteristic is invariant; a point has euler characteristic 1
    if complex_.face_profile().euler != 1:
        return None
    faces = set(complex_.face_masks())
    dead: set[frozenset[int]] = set()  # face sets that cannot reach a point
    steps: list[tuple[int, int]] = []
    # one frame per state on the path: [its free pairs, index of the next to
    # try]; the top frame is the current state's, so len(steps) == len(frames) - 1
    frames: list[list] = []
    while not is_point(faces):
        known_dead = dead and frozenset(faces) in dead
        frames.append([() if known_dead else _free_pairs(faces), 0])
        while True:
            frame = frames[-1]
            pairs, i = frame
            if i < len(pairs):
                frame[1] = i + 1
                tau, sigma = pairs[i]
                faces.remove(tau)
                faces.remove(sigma)
                steps.append((tau, sigma))
                break
            dead.add(frozenset(faces))
            frames.pop()
            if not frames:
                return None
            tau, sigma = steps.pop()
            faces.add(tau)
            faces.add(sigma)
    return CollapseTrace(tuple(steps), Complex.from_masks(faces))


def replay_trace(complex_: Complex, steps) -> Complex:
    """Replay (tau, sigma) vertex-tuple pairs, checking each step is legal."""
    faces = complex_.face_masks()
    for i, (tau, sigma) in enumerate(steps, start=1):
        tmask, smask = mask_from(tau), mask_from(sigma)
        if (tmask, smask) not in _free_pairs(faces):
            raise ValueError(f"step {i}: {tuple(tau)} -> {tuple(sigma)} is not a legal collapse")
        faces = faces - {tmask, smask}
    return Complex.from_masks(faces)
