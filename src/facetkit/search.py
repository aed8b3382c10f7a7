"""Backtracking search for complementary weak pseudomanifolds.

State is a ledger over complementary subset pairs: sizes forced by dimension
and complementarity are preset, the rest are decided by a DFS with unit
propagation (downward closure, complement exclusion, exact-two cofacet
counts on ridges).  Every completed assignment is re-verified from scratch
before being reported, so propagation bugs can cost only time, never wrong
answers; a raw brute force over all pair assignments is provided as an
oracle for small instances.

Isomorph rejection: without loss of generality the facets {0..d} and
{0..d-1, d+1} are present (any closed weak pseudomanifold has an adjacent
facet pair, and relabeling moves it there), and survivors are deduplicated
by canonical form.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from .canonical import canonical_form
from .complexes import PSEUDOMANIFOLD, WEAK_PM, Complex
from .complementarity import is_complementary
from .enumeration import EnumerationReport

UNKNOWN, FACE, NONFACE = 0, 1, 2
_BRANCH_VALUES = (FACE, NONFACE)
STATE_VERSION = 1
CHECKPOINT_INTERVAL = 10**7  # nodes between checkpoint writes


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

    def decided_faces(self) -> list[int]:
        return [m for m in range(1, self.full + 1) if self.status[m] == FACE]


def _verify_candidate(faces: list[int], n: int, d: int) -> tuple[int, ...] | None:
    """Re-derive everything from the face list; reject anything that is not
    an n-vertex d-dimensional complementary closed weak pseudomanifold."""
    if not faces:
        return None
    complex_ = Complex._from_generators(faces)
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
    checkpoint_path=None,
    resume_state: dict | None = None,
) -> tuple[list[tuple[int, ...]], int, bool]:
    """Returns (labeled solutions as facet tuples, nodes, complete)."""
    ledger = PairLedger(n, d)
    consistent = True
    for mask, value in prefix:
        if not ledger.assign(mask, value):
            consistent = False
            break
    solutions: list[tuple[int, ...]] = []
    nodes = 0
    stack: list[_Frame] = []

    if resume_state is not None:
        if not consistent:
            raise ValueError("resume state conflicts with the search prefix")
        nodes = resume_state["nodes"]
        solutions = [tuple(s) for s in resume_state["solutions"]]
        frames = resume_state["stack"]
        suspended = resume_state["suspended"]
        for i, (mask, next_branch) in enumerate(frames):
            mark = ledger.mark()
            at_tip = i == len(frames) - 1
            if at_tip and suspended:
                # the tip never applied its next branch; re-enter backtracking
                stack.append(_Frame(mask, next_branch, mark))
                consistent = False
            else:
                if not ledger.assign(mask, _BRANCH_VALUES[next_branch - 1]):
                    raise ValueError("resume state could not be replayed")
                stack.append(_Frame(mask, next_branch, mark))

    def write_checkpoint(path, suspended: bool) -> None:
        state = {
            "version": STATE_VERSION,
            "n": n,
            "d": d,
            "prefix": [list(p) for p in prefix],
            "nodes": nodes,
            "solutions": [list(s) for s in solutions],
            "stack": [[f.mask, f.next_branch] for f in stack],
            "suspended": suspended,
        }
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(state))
        tmp.replace(path)

    while True:
        if consistent:
            target = ledger.select_branch()
            if target is None:
                verified = _verify_candidate(ledger.decided_faces(), n, d)
                if verified is not None:
                    solutions.append(verified)
            else:
                stack.append(_Frame(target, 0, ledger.mark()))
            consistent = False
        advanced = False
        while stack:
            frame = stack[-1]
            ledger.undo_to(frame.mark)
            if frame.next_branch >= len(_BRANCH_VALUES):
                stack.pop()
                continue
            if node_budget is not None and nodes + 1 > node_budget:
                if checkpoint_path is not None:
                    write_checkpoint(checkpoint_path, suspended=True)
                return solutions, nodes, False
            value = _BRANCH_VALUES[frame.next_branch]
            frame.next_branch += 1
            nodes += 1
            if ledger.assign(frame.mask, value):
                consistent = True
                advanced = True
                if checkpoint_path is not None and nodes % CHECKPOINT_INTERVAL == 0:
                    write_checkpoint(checkpoint_path, suspended=False)
                break
        if not advanced:
            return solutions, nodes, True


def _dedupe(solutions: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    classes: dict[tuple[int, ...], None] = {}
    for facets in solutions:
        vmask = 0
        for m in facets:
            vmask |= m
        classes.setdefault(canonical_form(Complex(tuple(facets), vmask)))
    return tuple(sorted(classes))


def search_complementary(
    n: int,
    d: int,
    *,
    node_budget: int = 10**9,
    checkpoint_path=None,
    resume_from=None,
    symmetry_breaking: bool = True,
) -> EnumerationReport:
    """All isomorphism classes of n-vertex d-dimensional complementary weak
    pseudomanifolds, with a completeness flag.

    If the node budget runs out the report is flagged incomplete (and a
    resumable state file is written when `checkpoint_path` is set).  The
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
    prefix = _symmetry_prefix(n, d) if symmetry_breaking else []
    state = None
    if resume_from is not None:
        state = json.loads(Path(resume_from).read_text())
        if state.get("version") != STATE_VERSION or (state["n"], state["d"]) != (n, d):
            raise ValueError("resume state does not match this search")
        prefix = [tuple(p) for p in state["prefix"]]
    solutions, nodes, complete = _run_dfs(
        n,
        d,
        prefix=prefix,
        node_budget=node_budget,
        checkpoint_path=checkpoint_path,
        resume_state=state,
    )
    return EnumerationReport(
        parameters={
            "n": n,
            "d": d,
            "kind": "complementary_weak_pseudomanifolds",
            "symmetry_breaking": symmetry_breaking,
            "node_budget": node_budget,
        },
        classes=_dedupe(solutions),
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
        verified = _verify_candidate(faces, n, d)
        if verified is not None:
            solutions.append(verified)
    return EnumerationReport(
        parameters={"n": n, "d": d, "kind": "complementary_brute_force"},
        classes=_dedupe(solutions),
        labeled_count=len(solutions),
        complete=True,
        nodes=1 << len(pairs),
        wall_time=time.perf_counter() - start,
    )
