"""Polytope optimization oracles.

A binary oracle minimizes a linear objective over V(P) restricted to a face
of the unit cube (coordinate fixings only); an integral oracle minimizes over
P intersected with an integer box.  Both report either Infeasible or a true
minimizer with its exact value, and every oracle here returns its
(value, coords)-least optimum: ties go to the lexicographically smallest
vertex.  The oracles work on the objective's integer scaling c*L
(`Objective.scaled`; L > 0, so signs, order and ties are those of c): sign
tests, sort keys and sums are in ints, and an answer's value is made a
`Fraction` only when it is read.

The kind is one class attribute, `integral`: False on `BinaryOracle`
(queries restricted by cube faces), True on `IntegralOracle` (by lattice
boxes).  The solvers read it to pick faces or boxes, and wrappers such
as `CountingOracle` copy it from the oracle they wrap.  `BruteForceOracle`
over an explicit point list takes its kind from the point type; it is the
reference that every other oracle is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .core import (
    MAX_BINARY_DIM,
    BinaryPoint,
    CubeFace,
    HPolytope,
    LatticeBox,
    LatticePoint,
    Objective,
    format_rational,
)
from .errors import DomainError, NotBinaryPolytope, UnboundedInput
from .exactlp import solve_lp
from .linsys import LinearSystem


@dataclass(frozen=True)
class OracleOutcome:
    """Infeasible, or an optimal vertex with its exact objective value.

    `score` is the value times the objective's scale L > 0 as an int
    (`Objective.scaled_dot`): the solvers order answers by it.  `value` is
    made from the two when it is read.

    `bounds`, outside `==` and `repr`, is None or a function that the
    search calls when it splits the answer's restriction, so an answer that
    is never split costs nothing: it returns per coordinate i a lower bound
    on the score of every vertex of the restriction whose coordinate i
    differs from the answer's, an int, inf when there is no such vertex,
    or None for no bound.
    """

    vertex: Optional[object]
    score: Optional[int] = None
    scale: int = 1
    bounds: Optional[Callable[[], list]] = field(default=None, compare=False, repr=False)

    @classmethod
    def infeasible(cls) -> "OracleOutcome":
        return cls(None)

    @classmethod
    def optimum(cls, vertex, c: Objective) -> "OracleOutcome":
        """The answer `vertex` under c, its value summed once in ints."""
        return cls(vertex, c.scaled_dot(vertex), c.scaled[0])

    @property
    def value(self) -> Optional[Fraction]:
        return None if self.vertex is None else Fraction(self.score, self.scale)

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
    integral = False

    def minimize(self, c: Objective, face: Optional[CubeFace] = None) -> OracleOutcome:
        raise NotImplementedError


class IntegralOracle:
    """Contract: minimize over P cap Z^n within a box, or report Infeasible."""

    n: int
    integral = True

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
        bits = face.bits
        for i, k in enumerate(c.scaled[1]):
            if k < 0 and not (face.mask >> i) & 1:
                bits |= 1 << i
        vertex = BinaryPoint(self.n, bits)
        return OracleOutcome.optimum(vertex, c)


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
        free = [i for i in range(self.n) if not (face.mask >> i) & 1]
        need = self.s - face.bits.bit_count()
        if need < 0 or need > len(free):
            return INFEASIBLE
        # cheapest selection; among cost ties the latest indices, which gives
        # the lexicographically smallest vertex
        ints = c.scaled[1]
        free.sort(key=lambda i: (ints[i], -i))
        bits = face.bits
        for i in free[:need]:
            bits |= 1 << i
        vertex = BinaryPoint(self.n, bits)
        return OracleOutcome.optimum(vertex, c)


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

    Kruskal greedy by (cost, -edge index): among cost ties the later edge
    comes first, which gives the lexicographically least tree.  The edges
    are sorted once per objective.  Edges fixed to 1 are forced
    (contracted), edges fixed to 0 are deleted.
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
        if num_nodes > len(self.edges) + 1:  # fewer than nodes - 1 edges
            raise DomainError("graph is not connected")
        dsu = _DSU(num_nodes)
        comps = num_nodes
        for u, v in self.edges:
            if dsu.union(u, v):
                comps -= 1
        if comps != 1:
            raise DomainError("graph is not connected")
        self.n = len(self.edges)
        self._order = (None, ())  # (c, every edge by (cost, -index) under c)

    def minimize(self, c: Objective, face: Optional[CubeFace] = None) -> OracleOutcome:
        face = _check_binary_query(self.n, c, face)
        dsu = _DSU(self.num_nodes)
        chosen = face.bits
        for e, (u, v) in enumerate(self.edges):
            if (chosen >> e) & 1 and not dsu.union(u, v):
                return INFEASIBLE  # forced edges contain a cycle
        count = chosen.bit_count()
        if self._order[0] != c:
            ints = c.scaled[1]
            self._order = (c, sorted(range(self.n), key=lambda e: (ints[e], -e)))
        for e in self._order[1]:
            if (face.mask >> e) & 1:
                continue
            u, v = self.edges[e]
            if dsu.union(u, v):
                chosen |= 1 << e
                count += 1
        if count != self.num_nodes - 1:
            return INFEASIBLE  # deletions disconnected the graph
        vertex = BinaryPoint(self.n, chosen)
        return OracleOutcome.optimum(vertex, c)


class HrepBinaryOracle(BinaryOracle):
    """Optimize over an explicit H-description assumed to have 0/1 vertices.

    The system is `LinearSystem.from_hpolytope(poly)`; `solve_lp` folds its
    one-variable rows, such as 0 <= x_i <= 1, into bounds.  A query solves one
    exact LP under K*c' + sum 2^(n-i) x_i (c' is `c.scaled`, K = 2^n) with
    the face's coordinates as `solve_lp`'s `fix`, so every face is solved on
    a tableau derived from the one kept on the system.  Its only minimizer
    over 0/1 vertices is the (value, coords)-least optimum; the query then
    re-prices that basis under c' and reads the optimum as ints
    (`LpResult.int_coords`): a coordinate outside {0, 1}, fractional or
    not, raises NotBinaryPolytope (the point is made only for its message),
    an unbounded optimum UnboundedInput.

    The answer's `bounds` are the re-priced tableau's `LpResult.penalties`
    for flipping each coordinate, plus the score: the LP over the face
    with x_i flipped costs at least that much, and inf means it is
    infeasible.  A coordinate whose map is not one +-1 column (fixed by the
    face or its bounds, or free) gets None.  The outcome holds the LP
    result, and the search lets go of the outcome once it has split it.
    """

    def __init__(self, poly: HPolytope):
        if not 1 <= poly.n <= MAX_BINARY_DIM:
            raise DomainError(f"dimension must be in 1..{MAX_BINARY_DIM}")
        self.n = poly.n
        self.system = LinearSystem.from_hpolytope(poly)
        self._canonical = (None, None)  # (c, its perturbed objective)

    def minimize(self, c: Objective, face: Optional[CubeFace] = None) -> OracleOutcome:
        face = _check_binary_query(self.n, c, face)
        system = self.system
        names = system.variables
        if self._canonical[0] != c:
            K = 1 << self.n
            self._canonical = (c, tuple(k * K + (K >> i)
                                        for i, k in enumerate(c.scaled[1], start=1)))
        result = solve_lp(system, self._canonical[1],
                          fix={name: (face.bits >> i) & 1
                               for i, name in enumerate(names) if (face.mask >> i) & 1})
        if result.is_infeasible:
            return INFEASIBLE
        if result.is_optimal:
            # only the point is read, never the value, so L = 1 will do
            result = solve_lp(system, c.scaled[1], start=result)
        if result.is_unbounded:
            raise UnboundedInput("H-description is unbounded; not a polytope")
        coords = result.int_coords(names)
        if coords is None or not {0, 1}.issuperset(coords):
            point = result.point  # only for the message
            name = next(name for name in names if point[name] not in (0, 1))
            raise NotBinaryPolytope(
                f"LP vertex has fractional coordinate {name} = {format_rational(point[name])}")
        vertex = BinaryPoint(self.n, sum(v << i for i, v in enumerate(coords)))
        score = c.scaled_dot(vertex)

        def bounds():
            steps = {name: 1 - 2 * v for name, v in zip(names, coords)}
            return [p if p is None or p == inf else score + p for p in result.penalties(steps)]

        return OracleOutcome(vertex, score, c.scaled[0], bounds)


class BruteForceOracle:
    """Reference oracle: exact scan of an explicit point list.

    BinaryPoints make a binary oracle, LatticePoints an integral one; a list
    that mixes the two is refused.
    """

    def __init__(self, points: Iterable):
        points = list(points)
        if not points:
            raise DomainError("point list must be nonempty")
        self.integral = isinstance(points[0], LatticePoint)
        kind = LatticePoint if self.integral else BinaryPoint
        for p in points:
            if not isinstance(p, (BinaryPoint, LatticePoint)):
                raise DomainError(f"unsupported point type {p.__class__.__name__}")
            if not isinstance(p, kind):
                raise DomainError("point list mixes binary and lattice points")
        n = points[0].n
        if any(p.n != n for p in points):
            raise DomainError("points disagree on dimension")
        self.n = n
        self.points = sorted(set(points))

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
            key = (c.scaled_dot(p), p)
            if best_key is None or key < best_key:
                best, best_key = p, key
        if best is None:
            return INFEASIBLE
        return OracleOutcome.optimum(best, c)


class LatticeBoxOracle(IntegralOracle):
    """P = an integer box [l, u]; optimization is coordinate-wise."""

    def __init__(self, box: LatticeBox):
        self.n = box.n
        self.box = box

    def minimize(self, c: Objective, box: Optional[LatticeBox] = None) -> OracleOutcome:
        if c.n != self.n:
            raise DomainError("objective dimension mismatch")
        if box is None:
            box = self.box
        elif box.n != self.n:
            raise DomainError("dimension mismatch")
        coords = []  # per coordinate, the query box clipped to the oracle's
        for k, a, b, p, q in zip(c.scaled[1], self.box.l.coords, self.box.u.coords,
                                 box.l.coords, box.u.coords):
            lo, hi = max(a, p), min(b, q)
            if lo > hi:
                return INFEASIBLE
            coords.append(lo if k >= 0 else hi)
        return OracleOutcome.optimum(LatticePoint(self.n, tuple(coords)), c)


class CountingOracle:
    """Transparent wrapper that counts minimize() calls; keeps the inner kind."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.integral = inner.integral
        self.calls = 0

    def minimize(self, c: Objective, restriction=None) -> OracleOutcome:
        self.calls += 1
        return self.inner.minimize(c, restriction)


# -- factory spellings matching the operation names --------------------------

def cube_oracle(n: int) -> CubeOracle:
    return CubeOracle(n)


def cardinality_oracle(n: int, s: int) -> CardinalityOracle:
    return CardinalityOracle(n, s)


def spanning_tree_oracle(num_nodes: int, edges: Sequence[Tuple[int, int]]) -> SpanningTreeOracle:
    return SpanningTreeOracle(num_nodes, edges)


def hrep_binary_oracle(poly: HPolytope) -> HrepBinaryOracle:
    return HrepBinaryOracle(poly)


def brute_force_oracle(points: Iterable) -> BruteForceOracle:
    return BruteForceOracle(points)


def lattice_box_oracle(l: Sequence[int], u: Sequence[int]) -> LatticeBoxOracle:
    return LatticeBoxOracle(LatticeBox.of(l, u))
