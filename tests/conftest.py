"""Shared helpers for the test suite."""

from fractions import Fraction

from fvx import BinaryPoint, Objective, exactlp, solve_lp


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
