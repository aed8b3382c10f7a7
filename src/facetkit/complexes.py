"""Finite simplicial complexes on at most 64 vertex labels.

A complex is held as its facet list (the maximal faces); every face query
reduces to bit operations against that antichain.  All values are immutable
after construction and every operation is a pure function, so complexes can
be shared freely across threads; the memoized face set is populated with
single-assignment semantics (racing writers compute identical values).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_
from typing import Iterable

from .bits import MAX_LABELS, iter_bits, mask_from, nonempty_submasks, vertices_of

# classify_pseudomanifold outcomes
NOT_PURE = "not_pure"
WEAK_PM = "weak_pm"
WEAK_PM_WITH_BOUNDARY = "weak_pm_with_boundary"
PSEUDOMANIFOLD = "pseudomanifold"
OTHER = "other"


@dataclass(frozen=True)
class FaceProfile:
    """Face counts f_0..f_d of a complex, with the alternating-sum invariant."""

    counts: tuple[int, ...]

    @property
    def euler(self) -> int:
        return sum(c if i % 2 == 0 else -c for i, c in enumerate(self.counts))

    @property
    def dim(self) -> int:
        return len(self.counts) - 1

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, i):
        return self.counts[i]


class Complex:
    """An abstract simplicial complex, stored as its sorted facet bitmasks."""

    __slots__ = ("facet_masks", "vertex_mask", "_faces")

    def __init__(self, facet_masks: tuple[int, ...], vertex_mask: int):
        object.__setattr__(self, "facet_masks", facet_masks)
        object.__setattr__(self, "vertex_mask", vertex_mask)
        object.__setattr__(self, "_faces", None)

    def __setattr__(self, name, value):
        raise AttributeError("Complex values are immutable")

    # -- construction -------------------------------------------------

    @staticmethod
    def from_masks(masks: Iterable[int]) -> "Complex":
        """Build from generating simplices given as bitmasks.

        Duplicate and non-maximal masks are absorbed and the vertex mask is
        the union.  An empty input, or a mask that is not a nonempty set of
        labels 0..63, raises ValueError.
        """
        unique = sorted(set(masks), key=lambda m: (-m.bit_count(), m))
        if not unique:
            raise ValueError("a complex needs at least one facet")
        if min(unique) <= 0 or max(unique) >> MAX_LABELS:
            raise ValueError(f"a mask must be a nonempty set of labels 0..{MAX_LABELS - 1}")
        maximal: list[int] = []
        for m in unique:
            if not any(m & big == m for big in maximal):
                maximal.append(m)
        return Complex(tuple(sorted(maximal)), reduce(or_, maximal))

    # -- basic queries ------------------------------------------------

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Facets as sorted vertex tuples."""
        return tuple(vertices_of(m) for m in self.facet_masks)

    @property
    def vertices(self) -> tuple[int, ...]:
        return vertices_of(self.vertex_mask)

    @property
    def n_vertices(self) -> int:
        return self.vertex_mask.bit_count()

    @property
    def dim(self) -> int:
        return max(m.bit_count() for m in self.facet_masks) - 1

    def is_pure(self) -> bool:
        sizes = {m.bit_count() for m in self.facet_masks}
        return len(sizes) == 1

    def has_face_mask(self, mask: int) -> bool:
        return mask != 0 and any(mask & f == mask for f in self.facet_masks)

    def is_face(self, simplex: Iterable[int]) -> bool:
        return self.has_face_mask(mask_from(simplex))

    def face_masks(self) -> frozenset[int]:
        """The full face set, materialized on demand and memoized."""
        cached = self._faces
        if cached is None:
            faces = set()
            for f in self.facet_masks:
                faces.update(nonempty_submasks(f))
            cached = frozenset(faces)
            object.__setattr__(self, "_faces", cached)
        return cached

    def faces_of_dim(self, k: int) -> list[int]:
        """All k-faces as masks, sorted ascending."""
        want = k + 1
        return sorted(m for m in self.face_masks() if m.bit_count() == want)

    # -- spec operations ----------------------------------------------

    def face_profile(self) -> FaceProfile:
        counts = [0] * (self.dim + 1)
        for m in self.face_masks():
            counts[m.bit_count() - 1] += 1
        return FaceProfile(tuple(counts))

    def link(self, simplex: Iterable[int]) -> "Complex":
        """The link: faces disjoint from `simplex` whose union with it is a face."""
        sigma = mask_from(simplex)
        if not self.has_face_mask(sigma):
            raise ValueError(f"{vertices_of(sigma)} is not a face")
        gens = [f ^ sigma for f in self.facet_masks if f & sigma == sigma and f != sigma]
        if not gens:
            raise ValueError(f"{vertices_of(sigma)} is a maximal face; its link is empty")
        return Complex.from_masks(gens)

    def degree(self, simplex: Iterable[int]) -> int:
        """Number of vertices of the link."""
        return self.link(simplex).n_vertices

    def join(self, other: "Complex") -> "Complex":
        if self.vertex_mask & other.vertex_mask:
            shared = vertices_of(self.vertex_mask & other.vertex_mask)
            raise ValueError(f"join requires disjoint vertex sets; shared labels {shared}")
        gens = [a | b for a in self.facet_masks for b in other.facet_masks]
        return Complex(tuple(sorted(gens)), self.vertex_mask | other.vertex_mask)

    def induced(self, vertex_set: Iterable[int]) -> "Complex":
        """The induced subcomplex on a nonempty subset of the vertex set."""
        w = mask_from(vertex_set)
        if w & ~self.vertex_mask:
            raise ValueError(
                f"labels {vertices_of(w & ~self.vertex_mask)} are not vertices of the complex"
            )
        gens = [f & w for f in self.facet_masks if f & w]
        return Complex.from_masks(gens)

    def classify_pseudomanifold(self) -> str:
        """One of not_pure / weak_pm / weak_pm_with_boundary / pseudomanifold / other.

        Dimension 0 uses the empty-set-as-shared-ridge convention: exactly two
        vertices classify as a (strongly connected) pseudomanifold, a single
        vertex as a weak pseudomanifold with boundary, three or more as other.
        """
        if not self.is_pure():
            return NOT_PURE
        d = self.dim
        if d == 0:
            k = len(self.facet_masks)
            if k == 1:
                return WEAK_PM_WITH_BOUNDARY
            return PSEUDOMANIFOLD if k == 2 else OTHER
        counts = self._ridge_counts()
        values = set(counts.values())
        if values == {2}:
            return PSEUDOMANIFOLD if self.facet_graph().is_connected() else WEAK_PM
        if values <= {1, 2} and 1 in values:
            return WEAK_PM_WITH_BOUNDARY
        return OTHER

    def _ridge_counts(self) -> dict[int, int]:
        """How many facets contain each (d-1)-face, for a pure complex."""
        counts: dict[int, int] = {}
        for f in self.facet_masks:
            for b in iter_bits(f):
                r = f ^ b
                counts[r] = counts.get(r, 0) + 1
        return counts

    def facet_graph(self) -> "FacetGraph":
        """Facet adjacency: two facets adjacent iff they share a (d-1)-face."""
        if not self.is_pure():
            raise ValueError("facet graph is defined for pure complexes only")
        d = self.dim
        fs = self.facet_masks
        adj: list[set[int]] = [set() for _ in fs]
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                if (fs[i] & fs[j]).bit_count() == d:
                    adj[i].add(j)
                    adj[j].add(i)
        return FacetGraph(fs, tuple(frozenset(a) for a in adj))

    def is_k_neighbourly(self, k: int) -> bool:
        """True iff every k-subset of the vertex set is a face."""
        if k < 1:
            raise ValueError("neighbourliness is defined for k >= 1")
        if k - 1 > self.dim:
            return False
        profile = self.face_profile()
        return profile.counts[k - 1] == comb(self.n_vertices, k)

    # -- value semantics ------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Complex) and self.facet_masks == other.facet_masks

    def __hash__(self):
        return hash(self.facet_masks)

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, f)) + "}" for f in self.facets)
        return f"Complex([{inner}])"


@dataclass(frozen=True)
class FacetGraph:
    """The graph on facets with adjacency = shared (d-1)-face.

    Dimension 0 keeps the shared-empty-ridge convention: all facet pairs
    are adjacent.
    """

    facets: tuple[int, ...]
    adjacency: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.facets) > 1 and self.facets[0].bit_count() == 1:
            full = tuple(
                frozenset(j for j in range(len(self.facets)) if j != i)
                for i in range(len(self.facets))
            )
            object.__setattr__(self, "adjacency", full)

    def is_connected(self) -> bool:
        n = len(self.facets)
        seen = {0}
        stack = [0]
        while stack:
            for j in self.adjacency[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n


def build(facet_list: Iterable[Iterable[int]]) -> Complex:
    """Build a complex from generating vertex sets.

    Non-maximal entries are absorbed (external files may list every face);
    empty input, empty member sets and labels outside 0..63 are rejected.
    """
    return Complex.from_masks(mask_from(f) for f in facet_list)


def disjoint_union(left: Complex, right: Complex) -> Complex:
    if left.vertex_mask & right.vertex_mask:
        raise ValueError("disjoint union requires disjoint vertex sets")
    return Complex(
        tuple(sorted(left.facet_masks + right.facet_masks)),
        left.vertex_mask | right.vertex_mask,
    )


def all_simplices(vertex_pool: Iterable[int], size: int) -> list[int]:
    """All `size`-subsets of a vertex pool, as sorted masks."""
    bits = [1 << v for v in sorted(set(vertex_pool))]
    out = []
    for combo in combinations(bits, size):
        m = 0
        for b in combo:
            m |= b
        out.append(m)
    return sorted(out)
