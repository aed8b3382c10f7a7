"""Complementarity predicates and the exact counting identities they force.

`forced_profile` pins the full f-vector of a hypothetical n-vertex
d-dimensional complementary weak pseudomanifold by exact linear algebra
over the face sizes; `nonexistence_audit` replays the whole (12, 6)
arithmetic chain from first principles and reports the terminal parity
contradiction.  The audit stores no expected constants: the test suite and
the lemma harness hold the target numbers and compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bits import iter_bits, mask_from, vertices_of
from .complexes import Complex, FaceProfile


def is_complementary(complex_: Complex) -> bool:
    """Exactly one of each complementary pair of nonempty proper vertex
    subsets is a face.

    A one-vertex complex is complementary vacuously: there are no pairs to
    check.
    """
    full = complex_.vertex_mask
    if full.bit_count() <= 1:
        return True
    faces = complex_.face_masks()
    low = full & -full  # visit each pair once via the side holding the least vertex
    for sub in _proper_subsets_containing(full, low):
        if (sub in faces) == ((full ^ sub) in faces):
            return False
    return True


def _proper_subsets_containing(full: int, bit: int):
    rest = full ^ bit
    sub = rest
    while True:
        candidate = sub | bit
        if candidate != full:
            yield candidate
        if sub == 0:
            return
        sub = (sub - 1) & rest


@dataclass(frozen=True)
class IntersectionProfile:
    """Histogram of |alpha ∩ beta| over all facets beta other than alpha."""

    by_overlap: dict[int, int]

    def total(self) -> int:
        return sum(self.by_overlap.values())


def intersection_profile(complex_: Complex, facet) -> IntersectionProfile:
    alpha = mask_from(facet)
    if alpha not in complex_.facet_masks:
        raise ValueError(f"{vertices_of(alpha)} is not a facet")
    hist: dict[int, int] = {}
    for beta in complex_.facet_masks:
        if beta == alpha:
            continue
        k = (alpha & beta).bit_count()
        hist[k] = hist.get(k, 0) + 1
    return IntersectionProfile(hist)


def cofacet_histogram(complex_: Complex, k: int) -> dict[int, int]:
    """Histogram over k-faces of how many facets contain each."""
    if k < 0 or k > complex_.dim:
        raise ValueError(f"k={k} out of range 0..{complex_.dim}")
    hist: dict[int, int] = {}
    for face in complex_.faces_of_dim(k):
        count = sum(1 for f in complex_.facet_masks if f & face == face)
        hist[count] = hist.get(count, 0) + 1
    return hist


@dataclass(frozen=True)
class AmicablePartition:
    """Ordered triple of disjoint faces covering the vertex set, the link of
    each being the standard sphere on the next (cyclically)."""

    parts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _link_equals_standard_sphere_on(complex_: Complex, part: int, target: int) -> bool:
    """Does Lk(part) consist of exactly the proper nonempty subsets of target?"""
    facets_through = [f ^ part for f in complex_.facet_masks if f & part == part and f != part]
    if not facets_through:
        return False
    expected = sorted(target ^ b for b in iter_bits(target))
    return sorted(facets_through) == expected


def find_amicable_partitions(complex_: Complex) -> list[AmicablePartition]:
    """All amicable partitions, one representative per cyclic rotation class.

    The vertex set of Lk(A) pins the only possible next part, so the scan is
    a single pass over faces.
    """
    full = complex_.vertex_mask
    found: set[tuple[int, int, int]] = set()
    for a1 in sorted(complex_.face_masks()):
        link_facets = [f ^ a1 for f in complex_.facet_masks if f & a1 == a1 and f != a1]
        if not link_facets:
            continue
        a2 = 0
        for g in link_facets:
            a2 |= g
        a3 = full ^ a1 ^ a2
        if a3 == 0 or a2 == 0:
            continue
        if not complex_.has_face_mask(a2) or not complex_.has_face_mask(a3):
            continue
        if not _link_equals_standard_sphere_on(complex_, a1, a2):
            continue
        if not _link_equals_standard_sphere_on(complex_, a2, a3):
            continue
        if not _link_equals_standard_sphere_on(complex_, a3, a1):
            continue
        rotations = [(a1, a2, a3), (a2, a3, a1), (a3, a1, a2)]
        key = min(rotations)
        if key not in found:
            found.add(key)
    return [
        AmicablePartition((vertices_of(a), vertices_of(b), vertices_of(c)))
        for a, b, c in sorted(found)
    ]


def forced_profile(n: int, d: int) -> FaceProfile:
    """The unique f-vector any n-vertex d-dimensional complementary weak
    pseudomanifold must have.

    Solved exactly from: every vertex is a face (f_0 = n), sets of <= n-d-2
    vertices are all faces, sets of >= d+2 vertices are none, complementary
    size pairs split each binomial count, and the closed-pseudomanifold double
    count (d+1)*f_d = 2*f_{d-1}.
    Raises if the system is inconsistent, pins f_d to 0, or leaves a face
    size free.
    """
    if d < 1 or n < d + 2:
        raise ValueError("need d >= 1 and n >= d+2")
    sizes = list(range(1, d + 2))
    # rows over unknowns g_s (faces of size s), plus constant column
    rows: list[list[Fraction]] = []

    def row(coeffs: dict[int, int], const: int):
        r = [Fraction(0)] * (d + 1) + [Fraction(const)]
        for s, c in coeffs.items():
            r[s - 1] = Fraction(c)
        rows.append(r)

    for s in sizes:
        if s <= n - d - 2 or s == 1:
            row({s: 1}, comb(n, s))
    for s in sizes:
        t = n - s
        if s > n - d - 2 and t <= d + 1:
            if s < t:
                row({s: 1, t: 1}, comb(n, s))
            elif s == t:
                row({s: 2}, comb(n, s))
    row({d: -2, d + 1: d + 1}, 0)

    # exact Gauss-Jordan
    ncols = d + 1
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            raise ValueError(f"no consistent face counts exist for (n={n}, d={d})")
    free = [c + 1 for c in range(ncols) if c not in pivot_of_col]
    if free:
        dims = ", ".join(str(s - 1) for s in free)
        raise ValueError(
            f"face counts underdetermined for (n={n}, d={d}): dimension(s) {dims} free"
        )
    counts = []
    for c in range(ncols):
        value = rows[pivot_of_col[c]][ncols]
        if value.denominator != 1 or value < 0:
            raise ValueError(
                f"no consistent face counts exist for (n={n}, d={d}): "
                f"f_{c} = {value} is not a nonnegative integer"
            )
        counts.append(int(value))
    if counts[d] == 0:
        raise ValueError(
            f"no consistent face counts exist for (n={n}, d={d}): f_{d} = 0, "
            f"so no complex of dimension {d} fits"
        )
    return FaceProfile(tuple(counts))


@dataclass(frozen=True)
class AuditReport:
    """Every quantity in the (12, 6) nonexistence arithmetic, recomputed
    exactly from first principles."""

    forced: FaceProfile
    e: tuple[int, int, int]
    facet_meet: tuple[int, int, int, int]  # facets meeting a facet in 3,4,5,6 vertices
    edge_facet_count: int
    vertex_facet_count: int
    edge_4face_count: int
    edge_link_profile: FaceProfile
    moments: tuple[int, int, int]
    tetra_count: int
    tetra_cofacet_incidences: int
    tetra_facet_lower_bound: int
    tetra_facet_pairs: int
    euler: int
    contradiction: bool

    def render(self) -> str:
        lines = []
        for i, c in enumerate(self.forced.counts):
            lines.append(f"f{i} = {c}")
        lines.append(f"total_faces = {sum(self.forced.counts)}")
        for i, value in enumerate(self.e):
            lines.append(f"e{i} = {value}")
        for overlap, value in zip((3, 4, 5, 6), self.facet_meet):
            lines.append(f"facets_meeting_in_{overlap} = {value}")
        lines.append(f"moment_0 = {self.moments[0]}")
        lines.append(f"moment_1 = {self.moments[1]}")
        lines.append(f"moment_2 = {self.moments[2]}")
        lines.append(f"facets_per_edge = {self.edge_facet_count}")
        lines.append(f"facets_per_vertex = {self.vertex_facet_count}")
        lines.append(f"four_faces_per_edge = {self.edge_4face_count}")
        lines.append(
            "edge_link_profile = " + ",".join(map(str, self.edge_link_profile.counts))
        )
        lines.append(f"edge_link_euler = {self.edge_link_profile.euler}")
        lines.append(f"tetra_count = {self.tetra_count}")
        lines.append(f"tetra_cofacet_incidences = {self.tetra_cofacet_incidences}")
        lines.append(f"tetra_facet_lower_bound = {self.tetra_facet_lower_bound}")
        lines.append(f"tetra_facet_pairs = {self.tetra_facet_pairs}")
        lines.append(f"euler = {self.euler}")
        lines.append(f"parity_contradiction = {int(self.contradiction)}")
        lines.append("verdict: " + ("PASS" if self.contradiction else "FAIL"))
        return "\n".join(lines) + "\n"


def nonexistence_audit() -> AuditReport:
    """Replay the exact arithmetic ruling out a 12-vertex 6-dimensional
    complementary weak pseudomanifold.

    No complex is consumed: the object cannot exist, so every quantity is a
    counting consequence of (n, d) = (12, 6).  Any internal mismatch raises,
    since it could only be an arithmetic bug.
    """
    n, d = 12, 6
    fp = forced_profile(n, d)
    f = fp.counts
    facets = f[d]
    outside = n - (d + 1)  # 5

    # e_j: number of (6-j)-faces meeting a fixed facet alpha in 6-j vertices.
    # Each of the 7 six-vertex subsets of alpha lies in exactly one facet
    # other than alpha, and those facets are pairwise distinct.
    e0 = comb(d + 1, d)
    # Tetrahedra disjoint from alpha: all 4-subsets of the 5 outside vertices.
    # Their links are 2-spheres confined to alpha, so summed sphere f-vector
    # relations pin e1 and e2.
    disjoint_tetra = comb(outside, 4)
    sum_d0 = outside * comb(d + 1, 1) - e0
    sum_d1 = 3 * (sum_d0 - 2 * disjoint_tetra)
    sum_d2 = 2 * (sum_d0 - 2 * disjoint_tetra)
    e1 = outside * comb(d + 1, 2) - sum_d1
    e2 = outside * comb(d + 1, 3) - sum_d2
    if e1 != 3 * e0 + 30 or e2 != 125 + 2 * e0:
        raise AssertionError("neighbour-count relations disagree with their closed forms")

    # Facets meeting alpha in 3,4,5,6 vertices.
    meet6 = e0
    meet3 = outside * comb(d + 1, 4) - e2
    inside_4faces = comb(d + 1, 5)  # 4-faces contained in alpha
    sum_link_vertices = e1 + 2 * inside_4faces
    sum_link_edges = sum_link_vertices  # those links are circles
    meet5 = sum_link_edges - 3 * inside_4faces
    meet4 = (facets - 1) - meet3 - meet5 - meet6
    if meet4 < 0:
        raise AssertionError("facet-meeting counts overflow the facet total")

    # Moments of the edges-per-facet-count distribution.
    m0 = comb(n, 2)
    m1 = facets * comb(d + 1, 2)
    m2 = facets * (
        meet3 * comb(3, 2) + meet4 * comb(4, 2) + meet5 * comb(5, 2) + meet6 * comb(6, 2)
    )
    mean = Fraction(m1, m0)
    variance_numer = (m2 + m1) * m0 - m1 * m1  # m0^2 * variance
    if mean.denominator != 1 or variance_numer != 0:
        raise AssertionError("edge degrees are not forced to a single value")
    edge_facets = int(mean)
    vertex_facets_frac = Fraction((n - 1) * edge_facets, d)
    if vertex_facets_frac.denominator != 1:
        raise AssertionError("vertex degree count is not integral")
    vertex_facets = int(vertex_facets_frac)

    # Faces of an edge link: a 10-vertex 2-neighbourly object whose facet
    # and 4-face counts follow from the degree counts above.
    facets_meeting_edge = 2 * vertex_facets - edge_facets
    facets_disjoint_from_edge = facets - facets_meeting_edge
    edge_4faces = comb(n - 2, 3) - facets_disjoint_from_edge
    link_f0 = n - 2
    link_f1 = comb(n - 2, 2)
    link_f2 = edge_4faces
    link_f4 = edge_facets
    link_f3_frac = Fraction(5 * link_f4, 2)
    if link_f3_frac.denominator != 1:
        raise AssertionError("edge-link double count is not integral")
    link_profile = FaceProfile((link_f0, link_f1, link_f2, int(link_f3_frac), link_f4))

    # Tetrahedron degree sums and the equality that forces sphere links.
    tetra_count = f[3]
    tetra_cofacet = f[4] * comb(5, 4)
    lower_bound = 2 * tetra_cofacet - 4 * tetra_count
    facet_tetra_pairs = facets * comb(d + 1, 4)
    if lower_bound != facet_tetra_pairs:
        raise AssertionError("tetrahedron link equality fails")

    if sum(f) != 2 ** (n - 1) - 1:
        raise AssertionError("total face count violates complementarity")
    euler = fp.euler
    contradiction = (d % 4 == 2) and (euler % 2 == 1)
    return AuditReport(
        forced=fp,
        e=(e0, e1, e2),
        facet_meet=(meet3, meet4, meet5, meet6),
        edge_facet_count=edge_facets,
        vertex_facet_count=vertex_facets,
        edge_4face_count=edge_4faces,
        edge_link_profile=link_profile,
        moments=(m0, m1, m2),
        tetra_count=tetra_count,
        tetra_cofacet_incidences=tetra_cofacet,
        tetra_facet_lower_bound=lower_bound,
        tetra_facet_pairs=facet_tetra_pairs,
        euler=euler,
        contradiction=contradiction,
    )
