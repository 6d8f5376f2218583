"""Reference answers by plain enumeration, independent of the fvx solvers.

Every function here works from the problem documents the generator writes
(the same JSON the `fvx` CLI reads) and imports nothing from fvx, so a
defect in an fvx solver cannot hide by also being in its reference.
Vertices are tuples of ints; values are exact `Fraction`s.
"""

from __future__ import annotations

import heapq
import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from operator import mul


def rational(text) -> Fraction:
    return Fraction(str(text))


def bits_to_tuple(text: str) -> tuple:
    return tuple(int(ch) for ch in text)


def _hrep_rows(spec: dict) -> list:
    return [([rational(v) for v in row["a"]], row["rel"], rational(row["b"]))
            for row in spec["rows"]]


def _row_holds(lhs: Fraction, rel: str, rhs: Fraction) -> bool:
    if rel == "<=":
        return lhs <= rhs
    if rel == ">=":
        return lhs >= rhs
    return lhs == rhs


def _is_spanning_tree(v: tuple, nodes: int, edges: list) -> bool:
    if sum(v) != nodes - 1:
        return False
    parent = list(range(nodes))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for bit, (a, b) in zip(v, edges):
        if bit:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
    return True


def is_vertex(n: int, spec: dict, v: tuple) -> bool:
    """Membership of an integer point in the vertex / lattice set of `spec`."""
    if len(v) != n:
        return False
    ptype = spec["type"]
    if ptype == "lattice-box":
        return all(lo <= x <= hi for x, lo, hi in zip(v, spec["l"], spec["u"]))
    if any(x not in (0, 1) for x in v):
        return False
    if ptype == "cube":
        return True
    if ptype == "cardinality":
        return sum(v) == spec["s"]
    if ptype == "spanning-tree":
        return _is_spanning_tree(v, spec["nodes"], spec["edges"])
    if ptype == "hrep":
        return all(_row_holds(sum((a * x for a, x in zip(coeffs, v) if x), Fraction(0)),
                              rel, rhs)
                   for coeffs, rel, rhs in _hrep_rows(spec))
    raise ValueError(f"no reference for polytope type {ptype!r}")


def _hrep_points(n: int, spec: dict):
    """0/1 points satisfying the rows, by depth-first search with row bounds."""
    rows = []
    for coeffs, rel, rhs in _hrep_rows(spec):
        scale = lcm(rhs.denominator, *(c.denominator for c in coeffs))
        rows.append(([int(c * scale) for c in coeffs], rel, int(rhs * scale)))
    # per row and depth: the least and greatest contribution of the coordinates
    # not yet assigned, so a partial point that no completion can repair is cut
    tails = []
    for coeffs, _, _ in rows:
        lo, hi = [0] * (n + 1), [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            lo[i] = lo[i + 1] + min(coeffs[i], 0)
            hi[i] = hi[i + 1] + max(coeffs[i], 0)
        tails.append((lo, hi))
    point = [0] * n
    partial = [0] * len(rows)
    out = []

    def viable(depth):
        for (coeffs, rel, rhs), (lo, hi), acc in zip(rows, tails, partial):
            least, most = acc + lo[depth], acc + hi[depth]
            if rel == "<=" and least > rhs or rel == ">=" and most < rhs \
                    or rel == "=" and not least <= rhs <= most:
                return False
        return True

    def visit(depth):
        if not viable(depth):
            return
        if depth == n:
            out.append(tuple(point))
            return
        for bit in (0, 1):
            point[depth] = bit
            if bit:
                for r, (coeffs, _, _) in enumerate(rows):
                    partial[r] += coeffs[depth]
            visit(depth + 1)
            if bit:
                for r, (coeffs, _, _) in enumerate(rows):
                    partial[r] -= coeffs[depth]
        point[depth] = 0

    visit(0)
    return out


def vertices(n: int, spec: dict) -> tuple:
    """Every vertex (binary types) or lattice point (lattice-box) of `spec`."""
    return _vertices(n, json.dumps(spec, sort_keys=True))


@lru_cache(maxsize=16)
def _vertices(n: int, spec_key: str) -> tuple:
    # workloads reuse a few polytopes across many instances; enumerate each once
    return tuple(_enumerate(n, json.loads(spec_key)))


def _enumerate(n: int, spec: dict):
    ptype = spec["type"]
    if ptype == "cube":
        return product((0, 1), repeat=n)
    if ptype == "cardinality":
        return (tuple(1 if i in ones else 0 for i in range(n))
                for ones in map(set, combinations(range(n), spec["s"])))
    if ptype == "spanning-tree":
        nodes, edges = spec["nodes"], spec["edges"]
        trees = (tuple(1 if i in ones else 0 for i in range(n))
                 for ones in map(set, combinations(range(n), nodes - 1)))
        return (v for v in trees if _is_spanning_tree(v, nodes, edges))
    if ptype == "hrep":
        return _hrep_points(n, spec)
    if ptype == "lattice-box":
        return product(*(range(lo, hi + 1) for lo, hi in zip(spec["l"], spec["u"])))
    raise ValueError(f"no reference for polytope type {ptype!r}")


def forbidden_set(doc: dict) -> set:
    if doc["kind"] == "binary":
        return {bits_to_tuple(p) for p in doc.get("forbidden", [])}
    return {tuple(p) for p in doc.get("forbidden", [])}


def value(objective: list, v: tuple) -> Fraction:
    return sum((c * x for c, x in zip(objective, v) if x), Fraction(0))


def allowed_values(doc: dict, k: int) -> tuple:
    """(number of allowed points, their k smallest objective values sorted)."""
    objective = [rational(c) for c in doc["objective"]]
    scale = lcm(*(c.denominator for c in objective))
    weights = [int(c * scale) for c in objective]
    forbidden = forbidden_set(doc)
    # integer dot products keep the 2^14-point scans cheap; exact all the same
    values = [sum(map(mul, weights, v))
              for v in vertices(doc["n"], doc["polytope"]) if v not in forbidden]
    return len(values), [Fraction(v, scale) for v in heapq.nsmallest(k, values)]


def alldiff_optimum(doc: dict):
    """Minimum total of one distinct vertex per slot, or None if impossible.

    Exhaustive branch and bound over every slot's full vertex list: a branch
    is cut only when its partial total plus the slot-wise minima of the slots
    left cannot beat the best complete assignment found so far.
    """
    n = doc["n"]
    slots = []
    for slot in doc["slots"]:
        objective = [rational(c) for c in slot["objective"]]
        options = sorted((value(objective, v), v) for v in vertices(n, slot["polytope"]))
        slots.append(options)
    if any(not options for options in slots):
        return None
    rest_min = [Fraction(0)] * (len(slots) + 1)
    for i in range(len(slots) - 1, -1, -1):
        rest_min[i] = rest_min[i + 1] + slots[i][0][0]
    best = [None]
    used = set()

    def visit(i, total):
        if i == len(slots):
            if best[0] is None or total < best[0]:
                best[0] = total
            return
        for val, v in slots[i]:
            if best[0] is not None and total + val + rest_min[i + 1] >= best[0]:
                break  # options are sorted, so no later one can do better
            if v in used:
                continue
            used.add(v)
            visit(i + 1, total + val)
            used.discard(v)

    visit(0, Fraction(0))
    return best[0]
