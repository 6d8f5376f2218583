"""Formulation verification against brute-force ground truth.

Support sampling (random integer objectives, LP versus brute-force minimum)
is probabilistic; the membership and exclusion probes are exhaustive.  The
combination certifies that the projection's integral points are exactly the
ground truth: an excluded point is a vertex of the ambient polytope, so it
can never lie in the hull of the remaining points.

Every trial, box and L1 objective of a run is a `solve_lp` call on the one
system under test, and `solve_lp` keeps the post-phase-1 tableau on that
system object, so phase 1 runs once for all of them whatever else is solved
in between.
The min and max of each x_i give the projection's bounding box [l, h]; a
point outside it is not a member, and a point with every p_i in {l_i, h_i}
(every binary point when the box is [0,1]^n, every corner of a lattice box)
is a member exactly when the L1 distance
sum_{p_i = l_i} (x_i - l_i) + sum_{p_i = h_i} (h_i - x_i) has minimum 0.
Other points (strictly inside the box, or any point when the projection is
unbounded or the system infeasible) pin x to p with `with_bounds` and ask a
zero-objective `solve_lp`, which is optimal exactly when that is feasible.

Points may be BinaryPoints, LatticePoints or coordinate tuples; a point
whose length is not the dimension (the system's `n_original`) raises
DomainError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import format_rational, point_coords
from .errors import DomainError, GuardExceeded
from .exactlp import solve_lp
from .linsys import LinearSystem

ENUM_GUARD_POINTS = 4096
ENUM_GUARD_DIM = 12
MAX_TRIALS = 10_000  # one LP each; far above the default 50


def _coords(points: Iterable, n: Optional[int] = None) -> list:
    """Coordinate tuples of the points, each of length n (default: the first's)."""
    out = [p if isinstance(p, tuple) else point_coords(p) for p in points]
    if n is None and out:
        n = len(out[0])
    for p in out:
        if len(p) != n:
            raise DomainError(f"point {list(p)} has {len(p)} coordinates, expected {n}")
    return out


def in_convex_hull(point, points: Sequence) -> bool:
    """Exact test: is `point` a convex combination of the explicit `points`?

    Independent of any formulation under test; one multiplier per point.
    For binary points removed from a 0-1 vertex set this is always False
    (vertices are extreme), but removed integral points that are not
    vertices can legitimately stay inside the hull of the rest.
    """
    target, *pts = _coords([point, *points])
    if not pts:
        return False
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


def _projection_box(system: LinearSystem, names: Sequence[str]) -> Optional[list]:
    """[(min x_i, max x_i)] over the system, or None unless all 2n LPs are optimal."""
    box = []
    for name in names:
        lo = solve_lp(system, {name: 1}, sense="min")
        if not lo.is_optimal:
            return None
        hi = solve_lp(system, {name: 1}, sense="max")
        if not hi.is_optimal:
            return None
        box.append((lo.value, hi.value))
    return box


def _in_projection(system: LinearSystem, names: Sequence[str],
                   box: Optional[list], p: tuple) -> bool:
    """Is the integral point p in the projection of the system onto x1..xn?"""
    if box is not None:
        if any(v < lo or v > hi for v, (lo, hi) in zip(p, box)):
            return False
        if all(v == lo or v == hi for v, (lo, hi) in zip(p, box)):
            # each term x_i - l_i or h_i - x_i is nonnegative on the projection
            objective, target = {}, 0
            for name, v, (lo, hi) in zip(names, p, box):
                if v == lo:
                    objective[name], target = 1, target + lo
                else:
                    objective[name], target = -1, target - hi
            lp = solve_lp(system, objective, sense="min")
            return lp.is_optimal and lp.value == target
    pins = {name: (Fraction(v), Fraction(v)) for name, v in zip(names, p)}
    return solve_lp(system.with_bounds(pins), {}).is_optimal


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
    more than `MAX_TRIALS` trials GuardExceeded.

    Before the probes, 2n LPs (min and max of each x_i) give the
    projection's bounding box.  A point outside the box needs no LP; a point
    on a corner of it is one L1-distance objective on the same system; any
    other point, or every point when the box LPs are not all optimal, is a
    zero-objective `solve_lp` with x pinned to the point.  All three answer
    the same question, so the report does not depend on which one ran.
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
    names = [f"x{i + 1}" for i in range(n)]

    for _ in range(trials):
        c = [rng.randint(-100, 100) for _ in range(n)]
        lp = solve_lp(system, c, sense="min")
        if truth:
            brute = Fraction(min(sum(ci * vi for ci, vi in zip(c, p)) for p in truth))
            if lp.value != brute:  # None unless optimal
                report.support_mismatches.append((tuple(c), lp.value, brute))
        elif not lp.is_infeasible:
            report.support_mismatches.append((tuple(c), lp.value, None))

    box = _projection_box(system, names) if truth or removed else None
    for p in truth:
        if not _in_projection(system, names, box, p):
            report.membership_failures.append(p)
    for p in removed:
        probe = _in_projection(system, names, box, p)
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
