"""All-different vertex selection across several polytopes.

Pick one vertex per slot, all pairwise distinct, minimizing the sum of the
per-slot linear objectives.  Each slot contributes its k-best set (k = number
of slots); an exchange argument makes the union of those sets sufficient, so
the problem reduces to a minimum-weight matching covering every slot in the
bipartite candidate graph.  The matching is solved by successive shortest
augmenting paths with exact rational arithmetic (Bellman-Ford handles the
possibly negative weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import LatticeBox
from .errors import DomainError
from .separation import kbest


@dataclass(frozen=True)
class AlldiffInstance:
    """k slots: one oracle and one objective per slot (all the same kind)."""

    oracles: tuple
    objectives: tuple
    ambient: Optional[LatticeBox] = None  # required for integral slots

    def __post_init__(self):
        if not self.oracles:
            raise DomainError("need at least one slot")
        if len(self.oracles) != len(self.objectives):
            raise DomainError("one objective per oracle required")
        n = self.oracles[0].n
        if any(o.n != n for o in self.oracles):
            raise DomainError("slots disagree on dimension")
        if any(c.n != n for c in self.objectives):
            raise DomainError("objective dimension mismatch")
        kinds = {o.integral for o in self.oracles}
        if len(kinds) > 1:
            raise DomainError("cannot mix binary and integral slots")
        if self.integral and self.ambient is None:
            raise DomainError("integral slots need an ambient box")

    @property
    def k(self) -> int:
        return len(self.oracles)

    @property
    def n(self) -> int:
        return self.oracles[0].n

    @property
    def integral(self) -> bool:
        return self.oracles[0].integral


@dataclass(frozen=True)
class CandidateGraph:
    """Union of per-slot k-best sets with exact edge weights."""

    k: int
    vertices: tuple         # deduplicated, sorted by coordinates
    slot_candidates: tuple  # per slot: sorted tuple of vertex indices
    weights: dict           # (slot, vertex index) -> Fraction
    exhausted: tuple        # per slot: k-best exhausted flag


def build_candidates(instance: AlldiffInstance) -> CandidateGraph:
    """Run the k-best problem per slot and assemble the bipartite graph."""
    k = instance.k
    per_slot = []
    flags = []
    for oracle, c in zip(instance.oracles, instance.objectives):
        pts, exhausted = kbest(oracle, c, k, ambient=instance.ambient)
        per_slot.append(pts)
        flags.append(exhausted)
    vertices = sorted({p for pts in per_slot for p in pts})
    index = {p: i for i, p in enumerate(vertices)}
    slot_candidates = []
    weights = {}
    for slot, (pts, c) in enumerate(zip(per_slot, instance.objectives)):
        ids = sorted(index[p] for p in pts)
        slot_candidates.append(tuple(ids))
        for i in ids:
            weights[(slot, i)] = c.dot(vertices[i])
    return CandidateGraph(k, tuple(vertices), tuple(slot_candidates),
                          weights, tuple(flags))


def min_weight_R_matching(graph: CandidateGraph):
    """Minimum-weight matching covering every slot; None when impossible.

    Successive shortest augmenting paths, one per slot in index order;
    Bellman-Ford relaxation with exact rationals; ties resolved toward the
    smaller vertex index.  Returns (assignment slot->vertex index, total).
    """
    match_s = {}
    match_v = {}
    for slot in range(graph.k):
        dist = {}
        parent_slot = {}
        for v in graph.slot_candidates[slot]:
            w = graph.weights[(slot, v)]
            if v not in dist or w < dist[v]:
                dist[v] = w
                parent_slot[v] = slot
        rounds = 0
        changed = True
        while changed:
            changed = False
            rounds += 1
            if rounds > len(graph.vertices) + 1:
                raise AssertionError("negative cycle in matching residual")
            for v in sorted(dist):
                t = match_v.get(v)
                if t is None:
                    continue
                base = dist[v] - graph.weights[(t, v)]
                for v2 in graph.slot_candidates[t]:
                    if v2 == v:
                        continue
                    nd = base + graph.weights[(t, v2)]
                    if v2 not in dist or nd < dist[v2]:
                        dist[v2] = nd
                        parent_slot[v2] = t
                        changed = True
        free = [v for v in dist if v not in match_v]
        if not free:
            return None
        v = min(free, key=lambda u: (dist[u], u))
        while True:
            s = parent_slot[v]
            previous = match_s.get(s)
            match_s[s] = v
            match_v[v] = s
            if previous is None:
                break
            v = previous
    total = sum((graph.weights[(s, v)] for s, v in match_s.items()),
                start=Fraction(0))
    return match_s, total


@dataclass(frozen=True)
class AlldiffResult:
    """Infeasible, or one distinct vertex per slot with the exact total."""

    assignment: Optional[tuple]
    total: Optional[Fraction]

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


ALLDIFF_INFEASIBLE = AlldiffResult(None, None)


def solve_alldiff(instance: AlldiffInstance) -> AlldiffResult:
    """Globally optimal distinct-vertex selection, or Infeasible."""
    graph = build_candidates(instance)
    matched = min_weight_R_matching(graph)
    if matched is None:
        return ALLDIFF_INFEASIBLE
    match_s, total = matched
    assignment = tuple(graph.vertices[match_s[slot]] for slot in range(instance.k))
    return AlldiffResult(assignment, total)
