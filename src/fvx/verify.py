"""Formulation verification against brute-force ground truth T.

The membership probes prove T inside proj Q, the projection of the system
Q onto x1..xn.  When conv(T) has few facets the run proves the other half
too: `_hull` enumerates the equations and facets of conv(T) exactly, in
ints, and one LP min a.x >= b per facet a.x >= b, and per side (a, b) and
(-a, -b) of each equation a.x = b, shows proj Q inside conv(T).  These LPs
may number `FACET_GUARD`, whatever the trials.  With both halves proj Q =
conv(T): every support trial's LP minimum is the brute-force one and every
removed point is in proj Q exactly when it is in conv(T), so neither runs
an LP.  Every facet LP runs, and each one that fails is reported as the
support mismatch it is, before any trial's.  Otherwise (too many facets, no
truth, a failed facet or a failed membership) the support trials sample
random integer objectives, which can refute but not prove, and the removed
points are probed (once the facets hold, only those inside conv(T)).  So
the trials size only that sample: they never turn the proof off.

A run has one phase order: the hull and its facet LPs, the box, the
membership probes, the exclusion probes, the support trials.  Every LP is
a `solve_lp` call on the one system under test, and `solve_lp` keeps the
post-phase-1 tableau on that system object, so phase 1 runs once for all
of them.  The box is T's own when the facets hold, else the projection's,
from 2n box LPs, min x_i and min -x_i.  A facet LP whose minimum v exceeds
b proves the cut a.x >= v on proj Q, which refutes the points breaking it
with no LP; for an equation side, the other side's LP then fails.
conv(T) membership is read off the facets whenever `_hull` ran, else asked
of `in_convex_hull`.  A trial c runs no LP when its least member (a
ground-truth point whose probe passed) and a lower bound on the LP minimum
both reach the brute-force minimum: the bound is that minimum itself when
the facets hold, else the box bound sum_i min(c_i l_i, c_i h_i).

Witnesses: every optimal LP of a run returns a feasible point of the
system.  When the point projects onto an integral point p, and the integer
core of `satisfies` (plain substitution into the system's own rows and
bounds, with no tableau code) confirms it, p is a proven member of the
projection and the run keeps that LP result as p's witness, one per point.
A corner probe of p that reaches distance 0 keeps its result as p's
witness with no substitution: its verdict already rests on that value.
A membership or exclusion probe of a witnessed point is skipped: the point
is a member.  All of this is in ints: an LP reads x1..xn as ints
(`LpResult.int_coords`, None when one is fractional), and only a new
integral candidate reads its whole point, once, as (L, ints)
(`LpResult.scaled_point`), which `_holds` checks as the point ints / L
against the system's rows and its bounds, read as int pairs once per run.

Starts: every facet, equation side, box and trial LP is one min a.x
(`_Witnesses.solve`, a an int vector) and starts from the witness least
under a, the first such; a corner probe of p starts from the witnessed
corner that differs from p in one coordinate, least by (distance, coords);
each cold when there is none.  The pinned probes (see Probes) start cold.
Any feasible basis is a valid phase-2 start: a start changes no status and
no value, only the pivots taken to reach them, and the point when there
are several optima.

Probes: the box [l, h] holds the projection; a point outside it is not a
member, and a point with every p_i in {l_i, h_i} (every binary point when
the box is [0,1]^n, every corner of a lattice box) is a member exactly
when the L1 distance sum_{p_i = l_i} (x_i - l_i) + sum_{p_i = h_i}
(h_i - x_i) has minimum 0.  Other points (strictly inside the box, or any
point when the projection is unbounded or the system infeasible) ask a
zero-objective `solve_lp` with x pinned to p by its `fix`, a cold solve,
which is optimal exactly when that is feasible.

Membership by convexity: the projection is convex, and no vertex of
conv(T) is the midpoint of two other points of T, so the truth points p
with no direction d among e_i and e_i +- e_j (over the coordinates that T
spans by two units or more; none for a binary T) where both p - d and
p + d are in T include every vertex of conv(T).  They are probed first;
when all are members, conv(T) lies in the projection and so does every
truth point, with no probe.  When one fails, the rest are probed too, so
the membership failures are exact.

Points may be BinaryPoints, LatticePoints or sequences of ints (lists are
read as tuples); anything else, or a point whose length is not the
dimension (the system's `n_original`), raises DomainError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Mapping, Optional, Sequence

from .core import (BinaryPoint, LatticePoint, _exact, _scale, format_rational, int_coords,
                   point_coords)
from .errors import DomainError, GuardExceeded
from .exactlp import solve_lp
from .linsys import LinearSystem

ENUM_GUARD_POINTS = 4096
ENUM_GUARD_DIM = 12
MAX_TRIALS = 10_000  # one LP each; far above the default 50
# pinned probes x system rows: each probe is a cold phase 1 over every row
# of the system
PIN_GUARD = 20_000
# most LPs the facet proof may take (one per live facet while `_hull` runs,
# two per equation), whatever the trials: it bounds the enumeration's time
# (the 10-cube less 512 random points has about 1,500 facets, 23 s unguarded)
# and, past it, the run samples trials instead
FACET_GUARD = 256


def _coords(points: Iterable, n: Optional[int] = None) -> list:
    """Coordinate tuples of the points, each of length n (default: the first's)."""
    out = []
    for p in points:
        if isinstance(p, (BinaryPoint, LatticePoint)):
            out.append(point_coords(p))
        elif isinstance(p, Sequence):
            out.append(int_coords(p))
        else:
            raise DomainError(f"point {p!r} is neither a point nor a sequence of ints")
    if n is None and out:
        n = len(out[0])
    for p in out:
        if len(p) != n:
            raise DomainError(f"point {list(p)} has {len(p)} coordinates, expected {n}")
    return out


def satisfies(system: LinearSystem, point: Mapping[str, Fraction]) -> bool:
    """Does `point` (a rational per variable) meet every bound and row of the system?

    Plain substitution, independent of the LP engine: the point is scaled to
    integers over one common denominator and checked by `_holds`.
    """
    if point.keys() != set(system.variables):
        return False
    den, ints = _scale(point.values())
    return _holds(system, _int_bounds(system), den, dict(zip(point, ints)))


def _int_bounds(system: LinearSystem) -> tuple:
    """The system's bounds as int pairs: ([(name, p, q) for each lower bound
    p/q], [(name, p, q) for each upper bound p/q]), q > 0."""
    lower, upper = [], []
    for name, (lo, hi) in system.bounds.items():
        if lo is not None:
            lower.append((name, lo.numerator, lo.denominator))
        if hi is not None:
            upper.append((name, hi.numerator, hi.denominator))
    return lower, upper


def _holds(system: LinearSystem, bounds: tuple, den: int, x: Mapping[str, int]) -> bool:
    """Does the point x / den (an int per variable over one positive int)
    meet every bound (`_int_bounds(system)`) and row of the system?  Each is
    compared exactly in ints."""
    lower, upper = bounds
    for name, p, q in lower:
        if x[name] * q < p * den:
            return False
    for name, p, q in upper:
        if x[name] * q > p * den:
            return False
    value = x.__getitem__
    for coeffs, rel, rhs in system.rows:
        lhs, b = sum(map(mul, coeffs.values(), map(value, coeffs))), rhs * den
        if lhs > b if rel == "<=" else lhs < b if rel == ">=" else lhs != b:
            return False
    return True


class _Witnesses(dict):
    """Integral projected points of one run -> the optimal LP result proving each."""

    def __init__(self, system: LinearSystem, names: Sequence[str]):
        super().__init__()
        self.system, self.names = system, names
        self.bounds = _int_bounds(system)  # read once per run

    def solve(self, a: Sequence[int]):
        """`solve_lp` of min a.x, a an int vector over x1..xn, from the witness
        least under a (the first such), cold when there is none; an optimal
        point may become a witness."""
        near = min(self, key=lambda p: sum(map(mul, a, p)), default=None)
        lp = solve_lp(self.system, a, start=self.get(near))
        if lp.is_optimal:
            p = lp.int_coords(self.names)
            if p is not None and p not in self and _holds(self.system, self.bounds,
                                                          *lp.scaled_point()):
                self[p] = lp
        return lp


def in_convex_hull(point, points: Sequence) -> bool:
    """Exact test: is `point` a convex combination of the explicit `points`?

    Independent of any formulation under test; one multiplier per point.
    When the point and every one of `points` have 0/1 coordinates no LP
    runs: a 0/1 point is a vertex of [0,1]^n, so it is in the hull exactly
    when it is one of the points.  Removed integral points that are not
    vertices can legitimately stay inside the hull of the rest.
    """
    target, *pts = _coords([point, *points])
    if not pts:
        return False
    if all(v in (0, 1) for p in (target, *pts) for v in p):
        return target in pts  # every 0/1 point is a vertex of [0,1]^n
    n = len(target)
    names = tuple(f"mu{i + 1}" for i in range(len(pts)))
    rows = []
    for i in range(n):
        coeffs = {names[j]: p[i] for j, p in enumerate(pts) if p[i]}
        rows.append((coeffs, "=", target[i]))
    rows.append(({name: 1 for name in names}, "=", 1))
    bounds = {name: (0, None) for name in names}
    system = LinearSystem.build(0, names, rows, bounds)
    return solve_lp(system, {}).is_optimal


def _primitive(v: list) -> list:
    """v divided by the gcd of its entries."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _echelon(vectors: Iterable, basis: list) -> list:
    """Grow `basis`, echelon rows (pivot, row) of ints, by each of the vectors
    (lists) independent of it; the indices of those vectors."""
    grew = []
    for i, v in enumerate(vectors):
        if len(basis) == len(v):
            break
        for c, row in basis:
            if v[c]:
                v = _primitive([x * row[c] - r * v[c] for x, r in zip(v, row)])
        c = next((c for c, x in enumerate(v) if x), None)
        if c is not None:
            basis.append((c, v))
            grew.append(i)
    return grew


def _kernel(basis: list, k: int) -> list:
    """Primitive int vectors spanning {a : row . a = 0 for each row of `basis`} in Z^k."""
    rows = [row for _, row in basis]
    for i, (c, _) in enumerate(basis):  # clear each pivot column above its row
        for j in range(i):
            if rows[j][c]:
                rows[j] = _primitive([x * rows[i][c] - r * rows[j][c]
                                      for x, r in zip(rows[j], rows[i])])
    pivots = [c for c, _ in basis]
    L, out = lcm(*(row[c] for c, row in zip(pivots, rows))), []
    for f in range(k):
        if f not in pivots:
            a = [0] * k
            a[f] = L
            for c, row in zip(pivots, rows):
                a[c] = -row[f] * L // row[c]
            out.append(_primitive(a))
    return out


def _hull(truth: list, limit: int) -> Optional[tuple]:
    """(equations, facets) of conv(truth), each a list of (a, b) of ints: the
    hull is {x : a.x = b for each equation, a.x >= b for each facet}; None
    once two per equation and one per live facet number more than `limit`.

    The equations are the kernel of the echelon rows of the p - p0.  Their
    d pivot columns are coordinates y that the affine hull projects onto one
    to one, so the facets are found there, as the extreme rays h = (a, b) of
    the cone {h : h.(p_y, -1) >= 0 for each point p}, by the double
    description method: start from the simplex of p0 and the points that
    grew the echelon, then add each other point q.  Each ray keeps the
    bitmask of the points it is tight on.  The rays that q cuts (h.q < 0)
    go; each pair of a kept ray and a cut one that are adjacent (their
    common tight points number at least d - 1 and lie on no third ray)
    combines into a ray tight on q."""
    points = list(dict.fromkeys(truth))
    p0, basis = points[0], []
    simplex = [0, *(i + 1 for i in _echelon(([x - y for x, y in zip(p, p0)]
                                              for p in points[1:]), basis))]
    equations = [(tuple(a), sum(map(mul, a, p0))) for a in _kernel(basis, len(p0))]
    limit -= 2 * len(equations)
    if limit < 0:
        return None
    cols = [c for c, _ in basis]
    d = len(cols)
    if not d:
        return equations, []
    ws = [[p[c] for c in cols] + [-1] for p in points]
    # the simplex's rays, W^-1's columns: the kernel of [W | -I] over its rows w
    basis, full = [], sum(1 << i for i in simplex)
    _echelon([ws[i] + [-(i == j) for j in simplex] for i in simplex], basis)
    rays = [(_primitive(a[:d + 1]), full & ~(1 << i))
            for i, a in zip(simplex, _kernel(basis, 2 * d + 2))]
    done = set(simplex)
    for k, w in enumerate(ws):
        if len(rays) > limit:
            return None
        if k in done:
            continue
        s = [sum(map(mul, h, w)) for h, _ in rays]
        cut = [(h, m, v) for (h, m), v in zip(rays, s) if v < 0]
        masks = [m for _, m in rays] if cut else ()
        new = [(_primitive([sp * y - sn * x for x, y in zip(hp, hn)]), z | 1 << k)
               for (hp, mp), sp in zip(rays, s) if sp > 0 for hn, mn, sn in cut
               if (z := mp & mn).bit_count() >= d - 1 and sum(z & m == z for m in masks) == 2]
        rays = [(h, m | 1 << k if v == 0 else m) for (h, m), v in zip(rays, s) if v >= 0] + new
    if len(rays) > limit:
        return None
    facets = []
    for h, _ in rays:
        a = [0] * len(p0)
        for c, v in zip(cols, h):
            a[c] = v
        facets.append((tuple(a), h[-1]))
    return equations, facets


def _in_hull(hull: tuple, p: tuple) -> bool:
    """Does p meet every equation and facet of `_hull`?"""
    equations, facets = hull
    return (all(sum(map(mul, a, p)) == b for a, b in equations)
            and all(sum(map(mul, a, p)) >= b for a, b in facets))


@dataclass
class VerificationReport:
    trials: int
    seed: int
    support_mismatches: list = field(default_factory=list)
    excluded_failures: list = field(default_factory=list)
    membership_failures: list = field(default_factory=list)
    size_ok: bool = True
    counted: int = 0
    certified: Optional[int] = None

    @property
    def passed(self) -> bool:
        return (not self.support_mismatches and not self.excluded_failures
                and not self.membership_failures and self.size_ok)

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "trials": self.trials,
            "seed": self.seed,
            "support_mismatches": [
                {"objective": list(c),
                 "lp": None if lp is None else format_rational(lp),
                 "brute": None if bf is None else format_rational(bf)}
                for c, lp, bf in self.support_mismatches
            ],
            "excluded_failures": [list(p) for p in self.excluded_failures],
            "membership_failures": [list(p) for p in self.membership_failures],
            "size_ok": self.size_ok,
            "counted_inequalities": self.counted,
            "certified": self.certified,
        }


def _projection_box(run: _Witnesses) -> Optional[list]:
    """[(min x_i, -min -x_i)] over the system, each an int when integral, or
    None unless all 2n LPs are optimal."""
    box = []
    for i in range(len(run.names)):
        e = [int(j == i) for j in range(len(run.names))]
        lo = run.solve(e)
        hi = run.solve([-x for x in e]) if lo.is_optimal else lo
        if not hi.is_optimal:
            return None
        box.append((_exact(lo.value), _exact(-hi.value)))
    return box


def _facet_cuts(run: _Witnesses, hull: tuple) -> tuple:
    """(cuts, failures) of the facet LPs, one per facet of `_hull` and one per
    side (a, b) and (-a, -b) of each equation a.x = b, read as facets: the
    projection lies in conv(truth) exactly when there is no failure.  A
    facet a.x >= b must have LP minimum v >= b, and proves the cut a.x >= v
    when v > b (an equation side then fails on its other side).  Each
    failure is the support mismatch it is, (a, the LP minimum or None, b)."""
    equations, facets = hull
    cuts, failures = [], []
    for a, b in facets + [side for a, b in equations
                          for side in ((a, b), (tuple(-x for x in a), -b))]:
        lp = run.solve(a)
        if not lp.is_optimal or lp.value < b:
            failures.append((a, lp.value, Fraction(b)))  # value None unless optimal
        elif lp.value > b:
            cuts.append((a, lp.value))
    return cuts, failures


def _cut(cuts: list, p: tuple) -> bool:
    """Does p break one of the cuts, and so lie outside the projection?"""
    return any(sum(map(mul, a, p)) < v for a, v in cuts)


def _box_bound(c: list, box: list):
    """The least of c.x over the box: sum of min(c_i l_i, c_i h_i)."""
    return sum(ci * (lo if ci > 0 else hi) for ci, (lo, hi) in zip(c, box) if ci)


def _scores(c: list, columns: list, size: int) -> list:
    """c.p for each point p of the truth, one column (coordinate) at a time."""
    scores = [0] * size
    for ci, column in zip(c, columns):
        if ci:
            scores = list(map(add, scores, map(ci.__mul__, column)))
    return scores


def _needs_pin(run: _Witnesses, box: Optional[list], p: tuple) -> bool:
    """Does p have no witness yet, and neither lie outside the box nor on a corner?"""
    return p not in run and (box is None or (
        all(lo <= v <= hi for v, (lo, hi) in zip(p, box))
        and not all(v == lo or v == hi for v, (lo, hi) in zip(p, box))))


def _pin_guard(run: _Witnesses, box: Optional[list], cuts: list, points: list,
               pinned: int) -> int:
    """`pinned` plus the pinned probes the points need; GuardExceeded when
    that many times the system's rows passes `PIN_GUARD`."""
    pinned += sum(_needs_pin(run, box, p) and not _cut(cuts, p) for p in points)
    if pinned * len(run.system.rows) > PIN_GUARD:
        raise GuardExceeded(f"{pinned} pinned probes on {len(run.system.rows)} rows exceed "
                            f"the pinned-probe guard {PIN_GUARD} (probes x rows)")
    return pinned


def _unstraddled(truth: list) -> list:
    """The distinct truth points p with no direction d among e_i and e_i +- e_j,
    over the coordinates the truth spans by two units or more, where both
    p - d and p + d are truth points.  No vertex of conv(truth) is the
    midpoint of two other points, so every vertex is one of them."""
    points = dict.fromkeys(truth)
    columns = list(zip(*points))
    units = [tuple(int(k == i) for k in range(len(columns))) for i, column in enumerate(columns)
             if max(column) - min(column) >= 2]
    steps = units + [tuple(map(op, u, w)) for k, u in enumerate(units) for w in units[k + 1:]
                     for op in (add, sub)]
    return [p for p in points if not any(tuple(map(sub, p, d)) in points
                                         and tuple(map(add, p, d)) in points for d in steps)]


def _in_projection(run: _Witnesses, box: Optional[list], p: tuple) -> bool:
    """Is the integral point p in the projection of the system onto x1..xn?"""
    if _needs_pin(run, box, p):
        return solve_lp(run.system, {}, fix=dict(zip(run.names, p))).is_optimal
    if p in run:
        return True
    if any(v < lo or v > hi for v, (lo, hi) in zip(p, box)):
        return False
    # p is on a corner: each term x_i - l_i or h_i - x_i is nonnegative on
    # the projection
    objective, target, near = [], 0, []
    for i, (v, (lo, hi)) in enumerate(zip(p, box)):
        objective.append(1 if v == lo else -1)
        target += lo if v == lo else -hi
        if lo != hi:  # the corner across coordinate i
            q = (*p[:i], hi if v == lo else lo, *p[i + 1:])
            if q in run:
                near.append((hi - lo, q))
    lp = solve_lp(run.system, objective, start=run[min(near)[1]] if near else None)
    if lp.is_optimal and lp.value == target:
        run[p] = lp  # at distance 0 the LP's point projects onto p
        return True
    return False


def verify_formulation(system: LinearSystem, ground_truth: Iterable,
                       X: Iterable = (), trials: int = 50,
                       seed: int = 0) -> VerificationReport:
    """Check a formulation against an explicit allowed-vertex list.

    Proves the projection inside conv(`ground_truth`) from its facets when
    `_hull` gives them (listing each facet LP that fails, an equation
    being two facets, as a support mismatch, first), probes the allowed
    points for membership (see Membership by convexity in the module
    docstring) and every point of X for exclusion (expected exactly when
    the point is outside the hull of the ground truth, which for removed
    vertices is always), compares the LP minimum of `trials` random integer objectives in
    [-100, 100]^n with the brute-force minimum unless the proof and the
    memberships decide them all, then audits the size certificate.  The
    module docstring gives the phase order and the route of each probe and
    trial; a start changes no LP status or value, so the report depends on
    the route only through the failed facets, which only `_hull`'s route
    lists.  Deterministic for a fixed seed.  A negative
    `trials` or a point whose length is not `system.n_original` raises
    DomainError, more than `MAX_TRIALS` trials GuardExceeded, and so does a
    run whose pinned probes times the system's rows exceed `PIN_GUARD`
    (counted before each batch of membership probes, and again with the
    exclusion probes before those run; the trials come last, so their
    witnesses do not lower the count).
    """
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    if trials > MAX_TRIALS:
        raise GuardExceeded(f"trials {trials} exceeds the trials guard "
                            f"MAX_TRIALS = {MAX_TRIALS}")
    n = system.n_original
    truth = _coords(ground_truth, n)
    removed = _coords(X, n)
    if n > ENUM_GUARD_DIM:
        raise GuardExceeded(f"dimension {n} exceeds the enumeration guard {ENUM_GUARD_DIM}")
    if len(truth) > ENUM_GUARD_POINTS:
        raise GuardExceeded(f"{len(truth)} ground-truth points exceed the "
                            f"guard {ENUM_GUARD_POINTS}")
    report = VerificationReport(trials=trials, seed=seed)
    rng = random.Random(seed)
    run = _Witnesses(system, [f"x{i + 1}" for i in range(n)])

    hull = _hull(truth, FACET_GUARD) if truth else None
    cuts, report.support_mismatches = _facet_cuts(run, hull) if hull is not None else ([], [])
    proved = hull is not None and not report.support_mismatches
    columns = list(zip(*truth))
    if proved:  # the projection lies in conv(truth), so in the truth's box
        box = [(min(column), max(column)) for column in columns]
    else:
        box = _projection_box(run) if truth or removed else None
    # a removed vertex must probe infeasible; a removed non-vertex point may
    # lie in the hull of the rest, so each probe is compared with the exact
    # hull membership
    inside = [_in_hull(hull, p) if hull else in_convex_hull(p, truth) for p in removed]
    # the projection is convex, so it holds every truth point once it holds
    # those that no unit pair straddles, every vertex of conv(truth) among
    # them; the rest are probed only when one of those fails
    first = _unstraddled(truth)
    pinned = _pin_guard(run, box, cuts, first, 0)
    found = {p: not _cut(cuts, p) and _in_projection(run, box, p) for p in first}
    if not all(found.values()):
        rest = [p for p in dict.fromkeys(truth) if p not in found]
        pinned = _pin_guard(run, box, cuts, rest, pinned)
        found.update((p, not _cut(cuts, p) and _in_projection(run, box, p)) for p in rest)
    member = [found.get(p, True) for p in truth]
    report.membership_failures = [p for p, ok in zip(truth, member) if not ok]
    # truth <= proj Q <= conv(truth): the probes below and every trial are decided
    decided = proved and not report.membership_failures
    # with the facets proved, a removed point outside conv(truth) is outside
    # the projection, and so is not probed
    probed = [(p, hit) for p, hit in zip(removed, inside) if not proved or hit and not decided]
    _pin_guard(run, box, cuts, [p for p, _ in probed], pinned)
    report.excluded_failures = [p for p, hit in probed
                                if (not _cut(cuts, p) and _in_projection(run, box, p)) != hit]
    for _ in range(0 if decided else trials):
        c = [rng.randint(-100, 100) for _ in range(n)]
        if truth:
            scores = _scores(c, columns, len(truth))
            brute = min(scores)
            least = min((v for v, ok in zip(scores, member) if ok), default=None)
            if least == brute and (proved or box and _box_bound(c, box) == brute):
                continue  # lower bound <= LP min <= a member's value: no mismatch
            lp = run.solve(c)
            if lp.value != brute:  # None unless optimal
                report.support_mismatches.append((tuple(c), lp.value, Fraction(brute)))
        else:
            lp = run.solve(c)
            if not lp.is_infeasible:
                report.support_mismatches.append((tuple(c), lp.value, None))

    report.counted = system.counted_inequalities()
    report.certified = system.meta.get("certified")
    if report.certified is not None:
        report.size_ok = report.counted <= report.certified
    return report
