"""Canonical relabeling and exact isomorphism testing.

Vertices are ordered by iterated partition refinement on their incidence
signatures, with full backtracking over refinement ties; among all orderings
explored the lexicographically least relabeled facet list is the canonical
form.  Exactness is preferred over speed: the backtracking tree is walked
completely (no automorphism pruning), which is cheap at the <= 12-vertex
scale this library targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Complex


@dataclass(frozen=True)
class IsoCertificate:
    """A verified vertex bijection witnessing a simplicial isomorphism."""

    mapping: dict[int, int]

    def apply_mask(self, mask: int) -> int:
        out = 0
        for v, w in self.mapping.items():
            if mask >> v & 1:
                out |= 1 << w
        return out


def _refine(cells: list[list[int]], facet_verts: list[tuple[int, ...]]) -> list[list[int]]:
    """Stable iterated refinement of an ordered vertex partition."""
    cells = [list(c) for c in cells]
    while True:
        index = {}
        for i, cell in enumerate(cells):
            for v in cell:
                index[v] = i
        fsigs = [tuple(sorted(index[v] for v in fv)) for fv in facet_verts]
        by_vertex: dict[int, list] = {v: [] for v in index}
        for sig, fv in zip(fsigs, facet_verts):
            for v in fv:
                by_vertex[v].append(sig)
        changed = False
        new_cells: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            keyed: dict[tuple, list[int]] = {}
            for v in cell:
                key = tuple(sorted(by_vertex[v]))
                keyed.setdefault(key, []).append(v)
            if len(keyed) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(keyed):
                    new_cells.append(sorted(keyed[key]))
        cells = new_cells
        if not changed:
            return cells


def _initial_partition(vertices: tuple[int, ...], facet_verts) -> list[list[int]]:
    keyed: dict[tuple, list[int]] = {}
    for v in vertices:
        sizes = tuple(sorted(len(fv) for fv in facet_verts if v in fv))
        keyed.setdefault(sizes, []).append(v)
    return [sorted(keyed[k]) for k in sorted(keyed)]


def _canonical_search(complex_: Complex) -> tuple[tuple[int, ...], dict[int, int]]:
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


def canonical_form(complex_: Complex) -> tuple[int, ...]:
    """Relabeling-invariant facet masks on labels 0..n-1.

    Two complexes are isomorphic iff their canonical forms are equal.
    """
    return _canonical_search(complex_)[0]


def canonical_complex(complex_: Complex) -> Complex:
    """The canonical representative itself, as a complex on labels 0..n-1."""
    return Complex.from_masks(canonical_form(complex_))


def verify_isomorphism(left: Complex, right: Complex, mapping: dict[int, int]) -> bool:
    """Full face-set check that `mapping` carries faces to faces both ways."""
    if set(mapping) != set(left.vertices) or set(mapping.values()) != set(right.vertices):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    cert = IsoCertificate(dict(mapping))
    return {cert.apply_mask(m) for m in left.face_masks()} == set(right.face_masks())


def is_isomorphic(left: Complex, right: Complex) -> IsoCertificate | None:
    """A verified isomorphism certificate, or None.

    The candidate bijection comes from the canonical relabelings; it is
    re-verified by full face-set comparison before being returned, so the
    search machinery never has to be trusted.
    """
    form_l, map_l = _canonical_search(left)
    form_r, map_r = _canonical_search(right)
    if form_l != form_r:
        return None
    inverse_r = {pos: v for v, pos in map_r.items()}
    mapping = {v: inverse_r[pos] for v, pos in map_l.items()}
    if not verify_isomorphism(left, right, mapping):
        raise AssertionError("canonical forms matched but certificate failed verification")
    return IsoCertificate(mapping)


def relabel(complex_: Complex, mapping: dict[int, int]) -> Complex:
    """Apply a vertex bijection to a complex."""
    cert = IsoCertificate(dict(mapping))
    return Complex.from_masks(cert.apply_mask(m) for m in complex_.facet_masks)
