"""Shared helpers for the test suite."""

from fractions import Fraction

from fvx import BinaryPoint, HPolytope, Objective, cube_hrep, exactlp, solve_lp


def feasible_at(system, p):
    """Is the system feasible with x1..xn pinned to the point p?"""
    pins = {f"x{i + 1}": (Fraction(v), Fraction(v)) for i, v in enumerate(p)}
    return solve_lp(system.with_bounds(pins), {}).is_optimal


def phase_pivots(monkeypatch):
    """Count pivots per phase, {1: ..., 2: ...} (drive-out pivots in phase 1)."""
    counts, phase = {1: 0, 2: 0}, [2]
    pivot, phase1 = exactlp._Simplex._pivot, exactlp._Simplex.phase1

    def counting(self, r, s):
        counts[phase[0]] += 1
        return pivot(self, r, s)

    def in_phase1(self):
        phase[0] = 1
        try:
            return phase1(self)
        finally:
            phase[0] = 2

    monkeypatch.setattr(exactlp._Simplex, "_pivot", counting)
    monkeypatch.setattr(exactlp._Simplex, "phase1", in_phase1)
    return counts


def all_binary(n):
    return [BinaryPoint(n, b) for b in range(1 << n)]


def random_forbidden(rng, n, size):
    """A random set of `size` distinct binary points in dimension n."""
    codes = rng.sample(range(1 << n), size)
    return [BinaryPoint(n, b) for b in sorted(codes)]


def brute_min(c, points):
    """Exact minimum of c over explicit points; None when there are none."""
    best = None
    for p in points:
        coords = p.coords() if isinstance(p, BinaryPoint) else p.coords
        val = sum((Fraction(ci) * vi for ci, vi in zip(c, coords)), start=Fraction(0))
        if best is None or val < best:
            best = val
    return best


def random_objective(rng, n, lo=-20, hi=20):
    return Objective.of([rng.randint(lo, hi) for _ in range(n)])


def random_rational_objective(rng, n):
    return Objective.of([Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                         for _ in range(n)])


def spanning_trees(num_nodes, edges):
    """All spanning trees of (num_nodes, edges) as BinaryPoints over edges."""
    m = len(edges)
    out = []
    for mask in range(1 << m):
        if bin(mask).count("1") != num_nodes - 1:
            continue
        parent = list(range(num_nodes))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for e in range(m):
            if (mask >> e) & 1:
                ru, rv = find(edges[e][0]), find(edges[e][1])
                if ru == rv:
                    ok = False
                    break
                parent[ru] = rv
        if ok:
            out.append(BinaryPoint(m, mask))
    return out


def random_01_hpolytope(rng):
    """A random H-polytope with 0/1 vertices, and its vertices: a capped
    cube, a small bipartite matching polytope (perfect on one side, or not),
    or a cube cut by a forest of unit equalities x_a + x_b = 1 and
    x_a - x_b = 0, which the exact LP substitutes out."""
    kind = rng.choice(("capped", "matching", "equalities"))
    if kind == "capped":
        n = rng.randint(1, 6)
        rows = list(cube_hrep(n).rows) + [((1,) * n, rng.choice(("<=", ">=")), rng.randint(0, n))]
    elif kind == "matching":
        left, right = rng.randint(1, 3), rng.randint(1, 3)
        n = left * right  # edge right * i + j joins left i to right j
        perfect = left <= right and rng.random() < 0.5
        rows = [(tuple(int(e // right == i) for e in range(n)), "=" if perfect else "<=", 1)
                for i in range(left)]
        rows += [(tuple(int(e % right == j) for e in range(n)), "<=", 1) for j in range(right)]
        rows += [(tuple(int(e == f) for e in range(n)), ">=", 0) for f in range(n)]
    else:
        n = rng.randint(2, 6)
        rows = list(cube_hrep(n).rows)
        for b in rng.sample(range(1, n), rng.randint(1, n - 1)):
            a, sign = rng.randrange(b), rng.choice((1, -1))
            rows.append((tuple(1 if i == a else sign if i == b else 0 for i in range(n)),
                         "=", int(sign == 1)))
    rng.shuffle(rows)
    P = HPolytope.of(n, rows)
    return P, [v for v in all_binary(n) if P.satisfies(v)]
