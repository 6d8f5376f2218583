"""Polytope optimization oracles.

A binary oracle minimizes a linear objective over V(P) restricted to a face
of the unit cube (coordinate fixings only); an integral oracle minimizes over
P intersected with an integer box.  Both report either Infeasible or a true
minimizer with its exact value, and both are deterministic: ties are broken
toward coordinate value 0 and then the lexicographically smallest vertex,
except where an oracle documents its own rule (Kruskal index order, simplex
pivoting order).

The brute-force oracle over an explicit point list is the reference that
every other oracle is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .core import (
    MAX_BINARY_DIM,
    BinaryPoint,
    CubeFace,
    HPolytope,
    LatticeBox,
    LatticePoint,
    Objective,
    point_coords,
)
from .errors import DomainError, NotBinaryPolytope, UnboundedInput
from .exactlp import solve_lp
from .linsys import LinearSystem


@dataclass(frozen=True)
class OracleOutcome:
    """Infeasible, or an optimal vertex with its exact objective value."""

    vertex: Optional[object]
    value: Optional[Fraction]

    @classmethod
    def infeasible(cls) -> "OracleOutcome":
        return cls(None, None)

    @classmethod
    def optimum(cls, vertex, value: Fraction) -> "OracleOutcome":
        return cls(vertex, Fraction(value))

    @property
    def feasible(self) -> bool:
        return self.vertex is not None


INFEASIBLE = OracleOutcome.infeasible()


def _check_binary_query(n: int, c: Objective, face: Optional[CubeFace]) -> CubeFace:
    if c.n != n:
        raise DomainError(f"objective dimension {c.n} != oracle dimension {n}")
    if face is None:
        face = CubeFace.improper(n)
    elif face.n != n:
        raise DomainError(f"face dimension {face.n} != oracle dimension {n}")
    return face


class BinaryOracle:
    """Contract: minimize over V(P) within a cube face, or report Infeasible."""

    n: int

    def minimize(self, c: Objective, face: Optional[CubeFace] = None) -> OracleOutcome:
        raise NotImplementedError


class IntegralOracle:
    """Contract: minimize over P cap Z^n within a box, or report Infeasible."""

    n: int

    def minimize(self, c: Objective, box: Optional[LatticeBox] = None) -> OracleOutcome:
        raise NotImplementedError


class CubeOracle(BinaryOracle):
    """V(P) = {0,1}^n; free coordinates choose 1 exactly when c_i < 0."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_BINARY_DIM:
            raise DomainError(f"dimension must be in 1..{MAX_BINARY_DIM}")
        self.n = n

    def minimize(self, c: Objective, face: Optional[CubeFace] = None) -> OracleOutcome:
        face = _check_binary_query(self.n, c, face)
        fixed = face.fixed_map
        bits = 0
        value = Fraction(0)
        for i in range(1, self.n + 1):
            v = fixed.get(i)
            if v is None:
                v = 1 if c.c[i - 1] < 0 else 0
            if v:
                bits |= 1 << (i - 1)
                value += c.c[i - 1]
        return OracleOutcome.optimum(BinaryPoint(self.n, bits), value)


class CardinalityOracle(BinaryOracle):
    """V(P) = binary points with a fixed coordinate sum s."""

    def __init__(self, n: int, s: int):
        if not 1 <= n <= MAX_BINARY_DIM:
            raise DomainError(f"dimension must be in 1..{MAX_BINARY_DIM}")
        if not 0 <= s <= n:
            raise DomainError(f"target sum {s} out of 0..{n}")
        self.n = n
        self.s = s

    def minimize(self, c: Objective, face: Optional[CubeFace] = None) -> OracleOutcome:
        face = _check_binary_query(self.n, c, face)
        fixed = face.fixed_map
        ones = sum(fixed.values())
        free = [i for i in range(1, self.n + 1) if i not in fixed]
        need = self.s - ones
        if need < 0 or need > len(free):
            return INFEASIBLE
        # cheapest selection; among cost ties the latest indices, which gives
        # the lexicographically smallest vertex
        free.sort(key=lambda i: (c.c[i - 1], -i))
        bits = 0
        for i, v in fixed.items():
            bits |= v << (i - 1)
        for i in free[:need]:
            bits |= 1 << (i - 1)
        vertex = BinaryPoint(self.n, bits)
        return OracleOutcome.optimum(vertex, c.dot(vertex))


class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


class SpanningTreeOracle(BinaryOracle):
    """V(P) = spanning trees of a connected graph; dimension = edge count.

    Kruskal greedy with (cost, edge index) ordering; edges fixed to 1 are
    forced (contracted), edges fixed to 0 are deleted.
    """

    def __init__(self, num_nodes: int, edges: Sequence[Tuple[int, int]]):
        if num_nodes < 1:
            raise DomainError("graph needs at least one node")
        if not 1 <= len(edges) <= MAX_BINARY_DIM:
            raise DomainError(f"edge count must be in 1..{MAX_BINARY_DIM}")
        self.num_nodes = num_nodes
        self.edges = []
        for u, v in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise DomainError(f"edge ({u},{v}) references unknown node")
            if u == v:
                raise DomainError(f"self-loop ({u},{v}) not allowed")
            self.edges.append((u, v))
        dsu = _DSU(num_nodes)
        comps = num_nodes
        for u, v in self.edges:
            if dsu.union(u, v):
                comps -= 1
        if comps != 1:
            raise DomainError("graph is not connected")
        self.n = len(self.edges)

    def minimize(self, c: Objective, face: Optional[CubeFace] = None) -> OracleOutcome:
        face = _check_binary_query(self.n, c, face)
        fixed = face.fixed_map
        dsu = _DSU(self.num_nodes)
        chosen = 0
        count = 0
        for e, (u, v) in enumerate(self.edges, start=1):
            if fixed.get(e) == 1:
                if not dsu.union(u, v):
                    return INFEASIBLE  # forced edges contain a cycle
                chosen |= 1 << (e - 1)
                count += 1
        order = sorted(
            (e for e in range(1, self.n + 1) if e not in fixed),
            key=lambda e: (c.c[e - 1], e),
        )
        for e in order:
            u, v = self.edges[e - 1]
            if dsu.union(u, v):
                chosen |= 1 << (e - 1)
                count += 1
        if count != self.num_nodes - 1:
            return INFEASIBLE  # deletions disconnected the graph
        vertex = BinaryPoint(self.n, chosen)
        return OracleOutcome.optimum(vertex, c.dot(vertex))


class HrepBinaryOracle(BinaryOracle):
    """Optimize over an explicit H-description assumed to have 0/1 vertices.

    Each query is one exact LP; a fractional optimal basic point means the
    input violated the 0-1 assumption and raises NotBinaryPolytope.
    """

    def __init__(self, poly: HPolytope):
        if not 1 <= poly.n <= MAX_BINARY_DIM:
            raise DomainError(f"dimension must be in 1..{MAX_BINARY_DIM}")
        self.n = poly.n
        self.poly = poly
        self.system = LinearSystem.from_hpolytope(poly)

    def minimize(self, c: Objective, face: Optional[CubeFace] = None) -> OracleOutcome:
        face = _check_binary_query(self.n, c, face)
        overrides = {f"x{i}": (Fraction(v), Fraction(v)) for i, v in face.fixed}
        system = self.system.with_bounds(overrides) if overrides else self.system
        result = solve_lp(system, c, sense="min")
        if result.is_infeasible:
            return INFEASIBLE
        if result.is_unbounded:
            raise UnboundedInput("H-description is unbounded; not a polytope")
        coords = []
        for i in range(1, self.n + 1):
            v = result.point[f"x{i}"]
            if v == 0:
                coords.append(0)
            elif v == 1:
                coords.append(1)
            else:
                raise NotBinaryPolytope(
                    f"LP vertex has fractional coordinate x{i} = {v}")
        return OracleOutcome.optimum(BinaryPoint.from_coords(coords), result.value)


class _BruteForce:
    """Reference oracle: exact scan of an explicit point list of one kind."""

    def __init__(self, points: Sequence):
        if not points:
            raise DomainError("point list must be nonempty")
        n = points[0].n
        if any(p.n != n for p in points):
            raise DomainError("points disagree on dimension")
        self.n = n
        self.points = sorted(set(points), key=point_coords)

    def minimize(self, c: Objective, restriction=None) -> OracleOutcome:
        if c.n != self.n:
            raise DomainError(f"objective dimension {c.n} != oracle dimension {self.n}")
        if restriction is not None and restriction.n != self.n:
            raise DomainError(f"restriction dimension {restriction.n} != oracle dimension {self.n}")
        best = None
        best_key = None
        for p in self.points:
            if restriction is not None and not restriction.contains(p):
                continue
            key = (c.dot(p), point_coords(p))
            if best_key is None or key < best_key:
                best, best_key = p, key
        if best is None:
            return INFEASIBLE
        return OracleOutcome.optimum(best, best_key[0])


class BruteForceBinaryOracle(_BruteForce, BinaryOracle):
    pass


class BruteForceIntegralOracle(_BruteForce, IntegralOracle):
    pass


class LatticeBoxOracle(IntegralOracle):
    """P = an integer box [l, u]; optimization is coordinate-wise."""

    def __init__(self, box: LatticeBox):
        self.n = box.n
        self.box = box

    def minimize(self, c: Objective, box: Optional[LatticeBox] = None) -> OracleOutcome:
        if c.n != self.n:
            raise DomainError("objective dimension mismatch")
        domain = self.box if box is None else self.box.intersect(box)
        if domain is None:
            return INFEASIBLE
        coords = tuple(
            lo if c.c[i] >= 0 else hi
            for i, (lo, hi) in enumerate(zip(domain.l.coords, domain.u.coords))
        )
        vertex = LatticePoint.from_coords(coords)
        return OracleOutcome.optimum(vertex, c.dot(vertex))


class _CountingMixin:
    """Transparent wrapper that counts minimize() calls."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.calls = 0

    def minimize(self, c: Objective, restriction=None) -> OracleOutcome:
        self.calls += 1
        return self.inner.minimize(c, restriction)


class CountingBinaryOracle(_CountingMixin, BinaryOracle):
    pass


class CountingIntegralOracle(_CountingMixin, IntegralOracle):
    pass


def CountingOracle(inner):
    """Counting wrapper that preserves the oracle kind of `inner`."""
    if isinstance(inner, IntegralOracle):
        return CountingIntegralOracle(inner)
    return CountingBinaryOracle(inner)


# -- factory spellings matching the operation names --------------------------

def cube_oracle(n: int) -> CubeOracle:
    return CubeOracle(n)


def cardinality_oracle(n: int, s: int) -> CardinalityOracle:
    return CardinalityOracle(n, s)


def spanning_tree_oracle(num_nodes: int, edges: Sequence[Tuple[int, int]]) -> SpanningTreeOracle:
    return SpanningTreeOracle(num_nodes, edges)


def hrep_binary_oracle(poly: HPolytope) -> HrepBinaryOracle:
    return HrepBinaryOracle(poly)


def brute_force_oracle(points: Iterable):
    """Reference oracle; the point type selects the binary or integral kind."""
    pts = list(points)
    if not pts:
        raise DomainError("point list must be nonempty")
    if isinstance(pts[0], BinaryPoint):
        return BruteForceBinaryOracle(pts)
    if isinstance(pts[0], LatticePoint):
        return BruteForceIntegralOracle(pts)
    raise DomainError(f"unsupported point type {type(pts[0]).__name__}")


def lattice_box_oracle(l: Sequence[int], u: Sequence[int]) -> LatticeBoxOracle:
    return LatticeBoxOracle(LatticeBox.of(l, u))
