"""Backtracking search for complementary weak pseudomanifolds.

State is a ledger over complementary subset pairs: sizes forced by dimension
and complementarity are preset, the rest are decided by a DFS with unit
propagation (downward closure, complement exclusion, exact-two cofacet
counts on ridges).  Every completed assignment is re-verified from scratch
before being reported, so propagation bugs can cost only time, never wrong
answers.  The ledger hands over its faces as one 2^n-bit `lattice` set, the
re-verification answers each check with about n big-integer operations, and
the facet set it returns is the labeled solution, in the same format from
leaf to orbit sweep.  A raw brute force over all pair assignments is
provided as an oracle for small instances.

Isomorph rejection: without loss of generality the facets {0..d} and
{0..d-1, d+1} are present (any closed weak pseudomanifold has an adjacent
facet pair, and relabeling moves it there).  Survivors are deduplicated by an
orbit sweep under the group the run leaves free: H, the stabilizer of that
facet pair (Sym{0..d-1} x Sym{d, d+1} x Sym{d+2..n-1}, of order
2 * d! * (n-d-2)!), for the prefixed search, and S_n otherwise.  One
representative per orbit is canonicalized, and a complete run's labeled set
must be closed under the group, which catches a lost solution whenever
another member of its orbit was found.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import lattice
from .bits import vertices_of
from .canonical import canonical_form, sweep_orbits, symmetric_generators
from .complexes import Complex
from .complementarity import is_complementary  # noqa: F401  unused here; bench/run.py traces this name
from .enumeration import EnumerationReport

UNKNOWN, FACE, NONFACE = 0, 1, 2  # FACE is 1: lattice.from_flags reads the status bytes as they are
_BRANCH_VALUES = (FACE, NONFACE)


class PairLedger:
    """Face / non-face / undecided state over complementary subset pairs."""

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        full = (1 << n) - 1
        self.full = full
        self.lo = n - d - 2  # sizes <= lo are forced faces
        self.hi = d + 2  # sizes >= hi are forced non-faces
        size = [m.bit_count() for m in range(full + 1)]
        self.size = size
        status = bytearray(full + 1)
        for m in range(1, full + 1):
            if size[m] <= self.lo:
                status[m] = FACE
            elif size[m] >= self.hi:
                status[m] = NONFACE
        self.status = status
        pairs = []
        for m in range(1, full):
            c = full ^ m
            if m < c and status[m] == UNKNOWN and status[c] == UNKNOWN:
                pairs.append((m, c))
        self.pairs = pairs
        self.open_pairs = len(pairs)
        self.ridges = [m for m in range(1, full + 1) if size[m] == d]
        self.cnt_face = [0] * (full + 1)
        self.cnt_open = [0] * (full + 1)
        for q in self.ridges:
            cf = co = 0
            rest = full ^ q
            while rest:
                low = rest & -rest
                st = status[q | low]
                if st == FACE:
                    cf += 1
                elif st == UNKNOWN:
                    co += 1
                rest ^= low
            self.cnt_face[q] = cf
            self.cnt_open[q] = co
        self.trail: list[int] = []

    # -- propagation ----------------------------------------------------

    def assign(self, mask: int, value: int) -> bool:
        """Apply one decision plus all unit consequences; False on conflict."""
        status, size = self.status, self.size
        full, d, lo, hi = self.full, self.d, self.lo, self.hi
        queue = [(mask, value)]
        while queue:
            m, val = queue.pop()
            st = status[m]
            if st == val:
                continue
            if st != UNKNOWN:
                return False
            status[m] = val
            self.trail.append(m)
            if m < full ^ m:
                self.open_pairs -= 1
            queue.append((full ^ m, FACE if val == NONFACE else NONFACE))
            s = size[m]
            if val == FACE:
                if s - 1 > lo:
                    b = m
                    while b:
                        low = b & -b
                        queue.append((m ^ low, FACE))
                        b ^= low
                if s == d + 1:
                    b = m
                    while b:
                        low = b & -b
                        q = m ^ low
                        self.cnt_face[q] += 1
                        self.cnt_open[q] -= 1
                        if not self._ridge_ok(q, queue):
                            return False
                        b ^= low
                elif s == d:
                    if not self._ridge_ok(m, queue):
                        return False
            else:
                if s + 1 < hi:
                    b = full ^ m
                    while b:
                        low = b & -b
                        queue.append((m | low, NONFACE))
                        b ^= low
                if s == d + 1:
                    b = m
                    while b:
                        low = b & -b
                        q = m ^ low
                        self.cnt_open[q] -= 1
                        if not self._ridge_ok(q, queue):
                            return False
                        b ^= low
        return True

    def _ridge_ok(self, q: int, queue: list) -> bool:
        st = self.status[q]
        cf = self.cnt_face[q]
        co = self.cnt_open[q]
        if st == FACE:
            if cf > 2 or cf + co < 2:
                return False
            if co:
                if cf == 2:
                    self._queue_open_cofacets(q, queue, NONFACE)
                elif cf + co == 2:
                    self._queue_open_cofacets(q, queue, FACE)
        elif st == UNKNOWN and cf + co < 2:
            queue.append((q, NONFACE))
        return True

    def _queue_open_cofacets(self, q: int, queue: list, value: int) -> None:
        rest = self.full ^ q
        while rest:
            low = rest & -rest
            s = q | low
            if self.status[s] == UNKNOWN:
                queue.append((s, value))
            rest ^= low

    # -- trail ------------------------------------------------------------

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        d = self.d
        while len(self.trail) > mark:
            m = self.trail.pop()
            val = self.status[m]
            self.status[m] = UNKNOWN
            if m < self.full ^ m:
                self.open_pairs += 1
            if self.size[m] == d + 1:
                b = m
                while b:
                    low = b & -b
                    q = m ^ low
                    self.cnt_open[q] += 1
                    if val == FACE:
                        self.cnt_face[q] -= 1
                    b ^= low

    # -- branching ----------------------------------------------------------

    def select_branch(self) -> int | None:
        """Next mask to branch on: an undecided cofacet of the tightest
        decided-face ridge (most decided cofacets, fewest open), so each
        branch feeds the strongest unit propagation.  None when all pairs
        are decided."""
        if self.open_pairs == 0:
            return None
        best_q, best_key = None, None
        for q in self.ridges:
            if self.status[q] == FACE and self.cnt_open[q] > 0:
                key = (self.cnt_face[q], -self.cnt_open[q], -q)
                if best_key is None or key > best_key:
                    best_key, best_q = key, q
        if best_q is not None:
            rest = self.full ^ best_q
            while rest:
                low = rest & -rest
                s = best_q | low
                if self.status[s] == UNKNOWN:
                    return s
                rest ^= low
        for a, b in self.pairs:
            if self.status[a] == UNKNOWN:
                return b if self.size[b] == self.d + 1 else a
        return None

    def face_set(self) -> int:
        """The decided faces, as one lattice face set."""
        return lattice.from_flags(self.status)


def _verify_candidate(face_set: int, n: int, d: int) -> int | None:
    """Re-derive everything from the face set; the facet set if it is an
    n-vertex d-dimensional complementary closed weak pseudomanifold, else None."""
    if face_set & 1 or face_set >> (1 << n):
        return None  # the empty set, or a label outside 0..n-1
    if lattice.of_size(1, n) & ~face_set:
        return None  # a vertex is missing
    if not lattice.is_closed(face_set, n):
        return None
    tops = lattice.facets(face_set, n)
    if tops & ~lattice.of_size(d + 1, n):
        return None  # not pure of dimension d
    once, twice, thrice = lattice.ridge_multiplicity(tops, n)
    if once != twice or thrice:
        return None  # a ridge not in exactly two facets
    if not lattice.is_complementary(face_set, n):
        return None
    return tops


@dataclass
class _Frame:
    mask: int
    next_branch: int
    mark: int


def _symmetry_prefix(n: int, d: int) -> list[tuple[int, int]]:
    first = (1 << (d + 1)) - 1
    second = (first ^ (1 << d)) | (1 << (d + 1))
    return [(first, FACE), (second, FACE)]


def _run_dfs(
    n: int,
    d: int,
    *,
    prefix: list[tuple[int, int]],
    node_budget: int | None,
) -> tuple[list[int], int, bool]:
    """Returns (labeled solutions as facet sets, nodes, complete)."""
    ledger = PairLedger(n, d)
    if not all(ledger.assign(mask, value) for mask, value in prefix):
        return [], 0, True
    solutions: list[int] = []
    nodes = 0
    stack: list[_Frame] = []
    while True:
        target = ledger.select_branch()
        if target is None:
            verified = _verify_candidate(ledger.face_set(), n, d)
            if verified is not None:
                solutions.append(verified)
        else:
            stack.append(_Frame(target, 0, ledger.mark()))
        # backtrack to the next branch that assigns without conflict
        while stack:
            frame = stack[-1]
            ledger.undo_to(frame.mark)
            if frame.next_branch == len(_BRANCH_VALUES):
                stack.pop()
                continue
            if node_budget is not None and nodes + 1 > node_budget:
                return solutions, nodes, False
            value = _BRANCH_VALUES[frame.next_branch]
            frame.next_branch += 1
            nodes += 1
            if ledger.assign(frame.mask, value):
                break
        else:
            return solutions, nodes, True


def _prefix_stabilizer(n: int, d: int) -> list[tuple[int, ...]]:
    """Generators of H, the vertex permutations that keep the prefix facets
    {0..d} and {0..d-1, d+1} together."""
    return (
        symmetric_generators(range(d), n)
        + symmetric_generators((d, d + 1), n)
        + symmetric_generators(range(d + 2, n), n)
    )


def _dedupe(
    solutions: list[int], n: int, group: list[tuple[int, ...]], *, complete: bool
) -> tuple[tuple[int, ...], ...]:
    """Canonical classes of the labeled facet sets: one canonical form per
    orbit of the group generated by the vertex permutations `group`."""
    orbits = sweep_orbits(set(solutions), group, n, complete=complete)
    classes = {canonical_form(Complex.from_masks(vertices_of(rep))) for rep, _ in orbits}
    return tuple(sorted(classes))


def search_complementary(
    n: int,
    d: int,
    *,
    node_budget: int = 10**9,
    symmetry_breaking: bool = True,
) -> EnumerationReport:
    """All isomorphism classes of n-vertex d-dimensional complementary weak
    pseudomanifolds, with a completeness flag.

    If the node budget runs out the report is flagged incomplete.  The
    (12, 6) instance is refused: its nonexistence is what the arithmetic
    audit proves, and the raw pair space (2^1254) is far beyond search.
    """
    if d < 1 or n < d + 2:
        raise ValueError("need d >= 1 and n >= d+2")
    if n > 12:
        raise ValueError("search supported for n <= 12 only")
    if (n, d) == (12, 6):
        raise ValueError(
            "search at (12, 6) is not supported: nonexistence is established "
            "by the exact counting audit (see verify-lemma L4.1/L4.10..L4.13); "
            "the raw decision space has 1254 complementary pairs"
        )
    start = time.perf_counter()
    if symmetry_breaking:
        prefix, group = _symmetry_prefix(n, d), _prefix_stabilizer(n, d)
    else:
        prefix, group = [], symmetric_generators(range(n), n)
    solutions, nodes, complete = _run_dfs(n, d, prefix=prefix, node_budget=node_budget)
    return EnumerationReport(
        parameters={
            "n": n,
            "d": d,
            "kind": "complementary_weak_pseudomanifolds",
            "symmetry_breaking": symmetry_breaking,
            "node_budget": node_budget,
        },
        classes=_dedupe(solutions, n, group, complete=complete),
        labeled_count=len(solutions),
        complete=complete,
        nodes=nodes,
        wall_time=time.perf_counter() - start,
    )


def brute_force_complementary(n: int, d: int) -> EnumerationReport:
    """Oracle twin of search_complementary: enumerate every assignment of the
    complementary pairs outright.  Only for small instances."""
    if d < 1 or n < d + 2:
        raise ValueError("need d >= 1 and n >= d+2")
    ledger = PairLedger(n, d)
    pairs = ledger.pairs
    if len(pairs) > 22:
        raise ValueError(f"{len(pairs)} pairs is beyond brute force")
    start = time.perf_counter()
    forced = [m for m in range(1, ledger.full + 1) if ledger.status[m] == FACE]
    solutions = []
    for bits in range(1 << len(pairs)):
        faces = list(forced)
        for i, (a, b) in enumerate(pairs):
            faces.append(a if bits >> i & 1 else b)
        verified = _verify_candidate(lattice.face_set(faces, n), n, d)
        if verified is not None:
            solutions.append(verified)
    return EnumerationReport(
        parameters={"n": n, "d": d, "kind": "complementary_brute_force"},
        classes=_dedupe(solutions, n, symmetric_generators(range(n), n), complete=True),
        labeled_count=len(solutions),
        complete=True,
        nodes=1 << len(pairs),
        wall_time=time.perf_counter() - start,
    )
