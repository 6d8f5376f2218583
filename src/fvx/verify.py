"""Formulation verification against brute-force ground truth.

Support sampling (random integer objectives, LP versus brute-force minimum)
is probabilistic; the membership and exclusion probes are exhaustive.  The
combination certifies that the projection's integral points are exactly the
ground truth: an excluded point is a vertex of the ambient polytope, so it
can never lie in the hull of the remaining points.

A run has three phases, in this order: the box LPs, the support trials, the
probes.  Every box LP, trial and L1 objective is a `solve_lp` call on the
one system under test, and `solve_lp` keeps the post-phase-1 tableau on
that system object, so phase 1 runs once for all of them.

Witnesses: every optimal LP of those phases returns a feasible point of the
system.  When the point projects onto an integral point p, and `satisfies`
(plain substitution into the system's rows and bounds, with no tableau
code) confirms it, p is a proven member of the projection and the run keeps
that LP result as p's witness, one per point.  A membership or exclusion
probe of a witnessed point is skipped: the point is a member.  A witness
reads out only x1..xn (`LpResult.coords`); the full point is built only for
a new integral candidate, for `satisfies`.

Starts: every trial and corner probe starts from the optimal basis of the
witness nearest its optimum, when there is one.  A trial takes the
(value, coords)-least witnessed ground-truth point under its objective (the
brute-force scan has the values; one dict lookup per point), so it starts
at its optimum whenever the brute-force minimizer is witnessed.  A corner
probe of p takes the witnessed corner that differs from p in one
coordinate, least by (distance, coords); at most n lookups.  The box LPs
start cold.  Any feasible basis is a valid phase-2 start: a start changes
no status and no value, only the pivots taken to reach them, and the point
when there are several optima.

Probes: the min and max of each x_i give the projection's bounding box
[l, h]; a point outside it is not a member, and a point with every p_i in
{l_i, h_i} (every binary point when the box is [0,1]^n, every corner of a
lattice box) is a member exactly when the L1 distance
sum_{p_i = l_i} (x_i - l_i) + sum_{p_i = h_i} (h_i - x_i) has minimum 0.
Other points (strictly inside the box, or any point when the projection is
unbounded or the system infeasible) ask a zero-objective `solve_lp` with x
pinned to p by its `fix`, which is optimal exactly when that is feasible.

Points may be BinaryPoints, LatticePoints or sequences of ints (lists are
read as tuples); anything else, or a point whose length is not the
dimension (the system's `n_original`), raises DomainError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .core import BinaryPoint, LatticePoint, _scale, format_rational, int_coords, point_coords
from .errors import DomainError, GuardExceeded
from .exactlp import solve_lp
from .linsys import LinearSystem

ENUM_GUARD_POINTS = 4096
ENUM_GUARD_DIM = 12
MAX_TRIALS = 10_000  # one LP each; far above the default 50
PIN_GUARD = 20_000  # pinned probes x system rows; each probe runs a phase 1 of its own


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
    integers over one common denominator and each row and bound is compared
    exactly in ints.
    """
    if point.keys() != set(system.variables):
        return False
    den, ints = _scale(point.values())
    x = dict(zip(point, ints))
    for name, (lo, hi) in system.bounds.items():
        if lo is not None and x[name] * lo.denominator < lo.numerator * den:
            return False
        if hi is not None and x[name] * hi.denominator > hi.numerator * den:
            return False
    for coeffs, rel, rhs in system.rows:
        lhs, b = sum([a * x[name] for name, a in coeffs.items()]), rhs * den
        if lhs > b if rel == "<=" else lhs < b if rel == ">=" else lhs != b:
            return False
    return True


class _Witnesses(dict):
    """Integral projected points of one run -> the optimal LP result proving each."""

    def __init__(self, system: LinearSystem, names: Sequence[str]):
        super().__init__()
        self.system, self.names = system, names

    def solve(self, objective, sense: str = "min", start=None):
        """`solve_lp` on the system under test; an optimal point may become a witness."""
        lp = solve_lp(self.system, objective, sense, start=start)
        if lp.is_optimal:
            x = lp.coords(self.names)
            if all(v.denominator == 1 for v in x):
                p = tuple(v.numerator for v in x)
                if p not in self and satisfies(self.system, lp.point):
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
    bounds = {name: (Fraction(0), None) for name in names}
    system = LinearSystem.build(0, names, rows, bounds)
    return solve_lp(system, {}).is_optimal


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
    """[(min x_i, max x_i)] over the system, or None unless all 2n LPs are optimal."""
    box = []
    for name in run.names:
        lo = run.solve({name: 1}, sense="min")
        if not lo.is_optimal:
            return None
        hi = run.solve({name: 1}, sense="max")
        if not hi.is_optimal:
            return None
        box.append((lo.value, hi.value))
    return box


def _needs_pin(run: _Witnesses, box: Optional[list], p: tuple) -> bool:
    """Does p have no witness yet, and neither lie outside the box nor on a corner?"""
    return p not in run and (box is None or (
        all(lo <= v <= hi for v, (lo, hi) in zip(p, box))
        and not all(v == lo or v == hi for v, (lo, hi) in zip(p, box))))


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
    objective, target, near = {}, 0, []
    for i, (name, v, (lo, hi)) in enumerate(zip(run.names, p, box)):
        if v == lo:
            objective[name], target = 1, target + lo
        else:
            objective[name], target = -1, target - hi
        if lo != hi:  # the corner across coordinate i
            q = (*p[:i], hi if v == lo else lo, *p[i + 1:])
            if q in run:
                near.append((hi - lo, q))
    lp = run.solve(objective, sense="min", start=run[min(near)[1]] if near else None)
    return lp.is_optimal and lp.value == target


def verify_formulation(system: LinearSystem, ground_truth: Iterable,
                       X: Iterable = (), trials: int = 50,
                       seed: int = 0) -> VerificationReport:
    """Check a formulation against an explicit allowed-vertex list.

    Runs `trials` random integer objectives in [-100, 100]^n comparing the LP
    minimum with the brute-force minimum over `ground_truth`, then probes
    every allowed point for membership and every point of X for exclusion
    (exclusion expected exactly when the point is outside the hull of the
    ground truth, which for removed vertices is always), then audits the
    size certificate.  Deterministic for a fixed seed.  A negative `trials`
    or a point whose length is not `system.n_original` raises DomainError,
    more than `MAX_TRIALS` trials GuardExceeded, and so does a run whose
    pinned probes left after the trials, times the system's rows, exceed
    `PIN_GUARD` (checked before any probe runs).

    The phases run in this order: 2n box LPs (min and max of each x_i)
    give the projection's bounding box, then the trials, then the probes.
    Each optimal LP on the system whose point projects onto an integral
    point, and passes `satisfies`, witnesses that point; each trial starts
    from the witness of its (value, coords)-least witnessed ground-truth
    point.  A witnessed point needs no probe.  Of the others, a point
    outside the box needs no LP; a point on a corner of it is one
    L1-distance objective on the same system, started from the nearest
    witnessed corner next to it; any other point, or every point when the
    box LPs are not all optimal, is a zero-objective `solve_lp` with x
    pinned to the point.  All of these answer the same question, and a
    start changes no LP value, so the report does not depend on which one
    ran.
    """
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    if trials > MAX_TRIALS:
        raise GuardExceeded(f"trials {trials} exceeds the guard {MAX_TRIALS}")
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

    box = _projection_box(run) if truth or removed else None
    for _ in range(trials):
        c = [rng.randint(-100, 100) for _ in range(n)]
        if truth:
            scored = [(sum([ci * vi for ci, vi in zip(c, p)]), p) for p in truth]
            brute = min(scored)[0]
            near = min((s for s in scored if s[1] in run), default=None)
            lp = run.solve(c, start=None if near is None else run[near[1]])
            if lp.value != brute:  # None unless optimal
                report.support_mismatches.append((tuple(c), lp.value, Fraction(brute)))
        else:
            lp = run.solve(c)
            if not lp.is_infeasible:
                report.support_mismatches.append((tuple(c), lp.value, None))

    pinned = sum(_needs_pin(run, box, p) for p in (*truth, *removed))
    if pinned * len(system.rows) > PIN_GUARD:
        raise GuardExceeded(f"{pinned} pinned probes on {len(system.rows)} rows exceed "
                            f"the pinned-probe guard {PIN_GUARD} (probes x rows)")
    for p in truth:
        if not _in_projection(run, box, p):
            report.membership_failures.append(p)
    for p in removed:
        probe = _in_projection(run, box, p)
        # a removed vertex must probe infeasible; a removed non-vertex point
        # may lie in the hull of the rest, so compare against the exact
        # explicit-point hull membership
        if probe != in_convex_hull(p, truth):
            report.excluded_failures.append(p)

    report.counted = system.counted_inequalities()
    report.certified = system.meta.get("certified")
    if report.certified is not None:
        report.size_ok = report.counted <= report.certified
    return report
