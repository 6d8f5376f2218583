"""Formulation verification against brute-force ground truth T.

The membership probes prove T inside proj Q, the projection of the system
Q onto x1..xn.  The run proves the other half from Q's blocks alone when Q
is a plain union hull of integral blocks (see Structural proof), else,
when conv(T) has few facets, from those: `_hull` enumerates the equations
and facets of conv(T) exactly, in ints, and one LP min a.x >= b per facet
a.x >= b, and per side (a, b) and (-a, -b) of each equation a.x = b,
shows proj Q inside conv(T).  These LPs may number `FACET_GUARD`,
whatever the trials.  With both halves proj Q = conv(T): every support
trial's LP minimum is the brute-force one and every removed point is in
proj Q exactly when it is in conv(T), so neither runs an LP.  Every facet
LP runs, and each one that fails is reported as the support mismatch it
is, before any trial's.  Otherwise (no structural proof and too many
facets, no truth, a failed facet or a failed membership) the support
trials sample random integer objectives, which can refute but not prove,
and the removed points are probed (once the facets hold, only those
inside conv(T)).  So the trials size only that sample: they never turn
the proof off.

A run has one phase order: the structural proof, else the hull and its
facet LPs; the box, the membership probes, the exclusion probes, the
support trials.  The report's "proof" names the route: "structural",
"facets" (the facet LPs ran) or "sampled" (neither).  Every LP is a
`solve_lp` call on the one system under test, and `solve_lp` keeps the
post-phase-1 tableau on that system object, so phase 1 runs once for all
of them.  The box is T's own when the proof holds, else the projection's,
from 2n box LPs, min x_i and min -x_i.  A facet LP whose minimum v exceeds
b proves the cut a.x >= v on proj Q, which refutes the points breaking it
with no LP; for an equation side, the other side's LP then fails.
conv(T) membership of a removed point is read only when its probe may run,
off the facets whenever `_hull` ran, else asked of `in_convex_hull`.  A
trial c runs no LP when its least member (a ground-truth point whose probe
passed) and a lower bound on the LP minimum both reach the brute-force
minimum: the bound is that minimum itself when the proof holds, else the
box bound sum_i min(c_i l_i, c_i h_i).

Witnesses: every optimal LP of a run returns a feasible point of the
system.  When the point projects onto an integral point p, and the integer
core of `satisfies` (plain substitution into the system's own rows and
bounds, with no tableau code) confirms it, p is a proven member of the
projection and the run keeps that LP result as p's witness, one per point.
A corner probe of p that reaches distance 0 keeps its result as p's
witness with no substitution: its verdict already rests on that value.
A membership or exclusion probe of a witnessed or lifted point (see Lifts)
is skipped: the point is a member.  All of this is in ints: an LP reads
x1..xn as ints (`LpResult.int_coords`, None when one is fractional), and
only a new integral candidate reads its whole point, once, as (L, ints)
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

Lifts: every compile method writes a disjunctive hull, x = sum_j y_j,
sum_j lam_j = 1 and block j's rows homogenized in (y_j, lam_j), with y_j
named b{j}_y1.., lam_j named lam{j}.  A point t lies in block j's polytope
exactly when its lift, x = t, b{j}_y{i} = t_i (i <= n), lam{j} = 1 and
every other variable 0, meets the system.  Once per run, before any LP,
`_lifts` substitutes each block's lift into every row and bound of the
system, the identity `_holds` computes on a whole point: a row that reads
a constant is checked once, and a block that fails one is dropped; the
others leave int rows over t, checked per point shortest first (the rows
every block has once, before any block's own), and read by the
structural proof too.  The first block whose rows all hold makes t a
member, kept in `_Witnesses.lifted`, with no LP; a lifted point has no LP
basis, so it is no witness and starts no LP.  A failed lift proves nothing,
and a point no block lifts (an auxiliary column, such as a nested hull's,
reads 0 in the lift; a system with other names has no block) takes its
probe.  So a lift never changes a verdict, only the LPs run.

Structural proof: by Balas (1998, "Disjunctive programming: properties of
the convex hull of feasible points", Discrete Appl. Math. 89) a union hull
of blocks B_j projects into conv(the union of the B_j) once lam_j = 0
forces y_j = 0, and a block that is an integral polytope lies in conv(T)
when its lattice points are in T.  So proj Q lies in conv(T) under checks
1-6, made exactly in ints on the file alone (block names only group
columns), and proj Q = conv(T) under check 7 too:
1. after x1..xn the variables are exactly b{j}_y1..b{j}_y{n} and lam{j}
   per block j (a nested hull fails here);
2. every x_i is free, every lam{j} in [0, inf), every copy's bound 0 or
   absent;
3. the rows are one x_i - sum_j b{j}_y{i} = 0 per i, with every block, one
   sum_j lam{j} = 1, and rows of rhs 0 inside one block, and every block
   lifts (`_shaped`, with `_lifts`); so B_j is block j's lift rows over t;
4. each row of B_j divided by its gcd has an int rhs, and one variable or,
   up to sign, the block's one +-1 vector: a totally unimodular matrix
   (Schrijver 1986, Theory of Linear and Integer Programming, ch. 19), so
   B_j is integral;
5. every t_i has a lower and an upper one-variable side in B_j, so B_j is
   bounded and its homogenized sides force y_j = 0 at lam_j = 0;
6. every lattice point of B_j's box that meets its rows is in T, over at
   most `ENUM_GUARD_POINTS` box points in all (`_structural`);
7. every truth point that no unit pair straddles, every vertex of conv(T)
   among them (see Membership by convexity), lifts into a block.
Then every facet LP of `_hull`'s route would reach its facet's b, and so
cut off nothing, and every probe and trial is decided as the facets
decide it, with no `_hull`, facet LP or box LP.  Without check 7 a shrunk
block (a one-variable side tightened, say) passes 1-6, and the facet
LPs' cuts would refute points that the run must otherwise probe.  A
system failing any check takes the facet route unchanged, so the checks
only skip LPs (which can spare a run the pinned-probe guard) and never
move a verdict.

Probes: the box [l, h] holds the projection; a point outside it is not a
member, and a point with every p_i in {l_i, h_i} (every binary point when
the box is [0,1]^n, every corner of a lattice box) is a member exactly
when the L1 distance sum_{p_i = l_i} (x_i - l_i) + sum_{p_i = h_i}
(h_i - x_i) has minimum 0.  Other points (strictly inside the box, or any
point when the projection is unbounded or the system infeasible) ask a
zero-objective `solve_lp` with x pinned to p by its `fix`, a cold solve,
which is optimal exactly when that is feasible.  Each probe runs only
when no lift answers the point first.

Membership by convexity: the projection is convex, and no vertex of
conv(T) is the midpoint of two other points of T, so the truth points p
with no direction d among e_i and e_i +- e_j (over the coordinates that T
spans by two units or more; none for a binary T) where both p - d and
p + d are in T include every vertex of conv(T).  They are probed first
(a lifted point runs no LP); when all are members, conv(T) lies in the
projection and so does every truth point, with no probe.  When one fails,
the rest are probed too, so the membership failures are exact.

Points may be BinaryPoints, LatticePoints or sequences of ints (lists are
read as tuples); anything else, or a point whose length is not the
dimension (the system's `n_original`), raises DomainError.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
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
_BLOCK_NAME = re.compile(r"b(\d+)_y(\d+)|lam(\d+)")  # a union hull's block columns


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


def _meets(lhs: int, rel: str, rhs: int) -> bool:
    """Does lhs rel rhs hold?"""
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


def _lifts(system: LinearSystem, bounds: tuple) -> tuple:
    """The rows over t that the blocks' lifts leave (see Lifts): (the rows
    every block has, [each block's other rows], shaped), over the blocks
    whose rows that read a constant all hold; each row (terms, rel, b)
    compares the sum of a * t_i over its terms (i, a) with b, shortest
    first.  `shaped` says the system is a plain union hull of the blocks
    listed, all of them (checks 1-3 of Structural proof)."""
    n = system.n_original
    # a variable's lift: t_i for x_i, and for block j's b{j}_y{i} (i <= n);
    # 1 (column n) for lam{j}; 0 for any other
    column = {f"x{i + 1}": (None, i) for i in range(n)}
    for name in system.variables[n:]:
        m = _BLOCK_NAME.fullmatch(name)
        if m and (m[3] or int(m[2]) <= n):
            column[name] = (m[3], n) if m[3] else (m[1], int(m[2]) - 1)
    lower, upper = bounds
    rows = [*system.rows, *(({v: q}, ">=", p) for v, p, q in lower),
            *(({v: q}, "<=", p) for v, p, q in upper)]
    parts, own = [], {}  # per row, block (None for x) -> its coefficients over (t, 1)
    for r, (coeffs, _, _) in enumerate(rows):
        part = {}
        for name, a in coeffs.items():
            if name in column:
                j, i = column[name]
                if j not in part:
                    part[j] = {}
                    own.setdefault(j, []).append(r)
                part[j][i] = part[j].get(i, 0) + a
        parts.append(part)
    shared = own.pop(None, [])
    # a row with no term in x or in block j reads 0 on j's lift
    zero = {r for r, (_, rel, rhs) in enumerate(rows) if not _meets(0, rel, rhs)}
    blocks = []
    for j, mine in own.items():
        if not zero.issubset(mine + shared):
            continue
        kept = {}
        for r in dict.fromkeys(mine + shared):
            a = dict(parts[r].get(j, {}))
            for i, v in parts[r].get(None, {}).items():
                a[i] = a.get(i, 0) + v
            _, rel, rhs = rows[r]
            rhs -= a.pop(n, 0)
            terms = tuple((i, v) for i, v in a.items() if v)
            if terms:
                kept[terms, rel, rhs] = None
            elif not _meets(0, rel, rhs):
                break
        else:
            blocks.append(kept)
    common = [row for row in blocks[0] if all(row in k for k in blocks[1:])] if blocks else []
    shaped = len(blocks) == len(own) and _shaped(system, column, parts, len(own))
    return (_shortest(common), [_shortest(row for row in k if row not in common) for k in blocks],
            shaped)


def _shaped(system: LinearSystem, column: dict, parts: list, k: int) -> bool:
    """Checks 1-3 of Structural proof, on `_lifts`' reading of the k blocks
    that have rows: per block j exactly the columns b{j}_y1..b{j}_y{n} and
    lam{j}; every x_i free, every lam{j} >= 0 and every copy's bound 0 or
    absent; the rows one x_i - sum_j b{j}_y{i} = 0 per i, one
    sum_j lam{j} = 1 and rows with rhs 0 inside one block."""
    n = system.n_original
    cols = [column.get(name) for name in system.variables[n:]]
    if (not k or None in cols or len({j for j, _ in cols}) != k
            or not len(set(cols)) == len(cols) == (n + 1) * k):
        return False
    for name in system.variables:
        lo, hi = system.bound(name)
        j, i = column[name]
        if not (lo is hi is None if j is None else (lo, hi) == (0, None) if i == n
                else lo in (None, 0) and hi in (None, 0)):
            return False
    coupled, convexity = set(), 0
    for (_, rel, rhs), part in zip(system.rows, parts):
        x = part.get(None)
        if x:  # x_i - sum_j b{j}_y{i} = 0
            i = next(iter(x))
            if (rel, rhs, x, len(part)) != ("=", 0, {i: 1}, k + 1) or i in coupled or any(
                    a != {i: -1} for j, a in part.items() if j is not None):
                return False
            coupled.add(i)
        elif rhs:  # sum_j lam{j} = 1
            if (rel, rhs, len(part)) != ("=", 1, k) or any(a != {n: 1} for a in part.values()):
                return False
            convexity += 1
        elif len(part) != 1:
            return False
    return convexity == 1 and len(coupled) == n


def _shortest(rows: Iterable) -> list:
    return sorted(rows, key=lambda row: len(row[0]))


def _hold(rows: list, p: tuple) -> bool:
    """Does p meet every row (terms, rel, b) of `_lifts`?"""
    return all(_meets(sum(a * p[i] for i, a in terms), rel, b) for terms, rel, b in rows)


def _structural(lifts: tuple, truth: list) -> bool:
    """Checks 4-6 of Structural proof on `_lifts` of a shaped system: each
    block B_j, its rows over t read off its lift, is integral (divided by
    its gcd each row has an int rhs, and one variable or, up to sign, the
    block's one +-1 vector u), bounded (each t_i has a lower and an upper
    one-variable side) and has no lattice point outside the truth, among at
    most `ENUM_GUARD_POINTS` box points in all."""
    common, blocks, shaped = lifts
    if not shaped:
        return False
    n, flip = len(truth[0]), {">=": "<=", "<=": ">=", "=": "="}
    boxes = []
    for own in blocks:
        lo, hi, u, rows = [None] * n, [None] * n, None, []
        for terms, rel, b in (*common, *own):
            terms = sorted(terms)
            g = gcd(*(a for _, a in terms)) * (1 if terms[0][1] > 0 else -1)
            if b % g or any(abs(a) != abs(g) for _, a in terms):
                return False
            rel, b = rel if g > 0 else flip[rel], b // g
            if len(terms) == 1:
                (i, _), = terms
                if rel != "<=":
                    lo[i] = b if lo[i] is None else max(lo[i], b)
                if rel != ">=":
                    hi[i] = b if hi[i] is None else min(hi[i], b)
                continue
            v = tuple((i, a // g) for i, a in terms)
            if v != (u := u or v):
                return False
            rows.append((v, rel, b))
        if None in lo or None in hi:
            return False
        boxes.append((lo, hi, rows))
    if sum(prod(max(h - l + 1, 0) for l, h in zip(lo, hi)) for lo, hi, _ in boxes) \
            > ENUM_GUARD_POINTS:
        return False
    points = set(truth)
    return all(p in points or not _hold(rows, p) for lo, hi, rows in boxes
               for p in product(*(range(l, h + 1) for l, h in zip(lo, hi))))


class _Witnesses(dict):
    """Integral projected points of one run -> the optimal LP result proving each."""

    def __init__(self, system: LinearSystem, names: Sequence[str]):
        super().__init__()
        self.system, self.names = system, names
        self.bounds = _int_bounds(system)  # read once per run
        self.lifted, self.lifts = set(), _lifts(system, self.bounds)

    def member(self, p: tuple) -> bool:
        """Is p witnessed, or lifted into a block (see Lifts)?"""
        if p in self or p in self.lifted:
            return True
        common, blocks, _ = self.lifts
        if _hold(common, p) and any(_hold(rows, p) for rows in blocks):
            self.lifted.add(p)
            return True
        return False

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
    return solve_lp(system, ()).is_optimal


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
    proof: str = "sampled"  # or "structural" or "facets": the route of proj Q in conv(T)

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
            "proof": self.proof,
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


def _off_corners(box: Optional[list], p: tuple) -> bool:
    """Is there no box, or is p inside it but not on a corner?"""
    return box is None or (all(lo <= v <= hi for v, (lo, hi) in zip(p, box))
                           and not all(v == lo or v == hi for v, (lo, hi) in zip(p, box)))


def _pin_guard(run: _Witnesses, box: Optional[list], cuts: list, points: list,
               pinned: int) -> int:
    """`pinned` plus the pinned probes the points need: those off the box's
    corners, neither cut, witnessed nor lifted; GuardExceeded when that many
    times the system's rows passes `PIN_GUARD`."""
    pinned += sum(_off_corners(box, p) and not _cut(cuts, p) and not run.member(p)
                  for p in points)
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
    if run.member(p):
        return True
    if _off_corners(box, p):
        return solve_lp(run.system, [0] * len(run.names), fix=dict(zip(run.names, p))).is_optimal
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

    Proves the projection inside conv(`ground_truth`) from the system's
    blocks (see Structural proof in the module docstring), else from its
    facets when `_hull` gives them (listing each facet LP that fails, an
    equation being two facets, as a support mismatch, first), probes the allowed
    points for membership (see Membership by convexity in the module
    docstring) and every point of X for exclusion (expected exactly when
    the point is outside the hull of the ground truth, which for removed
    vertices is always), compares the LP minimum of `trials` random integer objectives in
    [-100, 100]^n with the brute-force minimum unless the proof and the
    memberships decide them all, then audits the size certificate.  The
    module docstring gives the phase order and the route of each probe and
    trial; a start changes no LP status or value, and a lift answers only
    "member" after an exact substitution, so the report depends on the
    route only through its "proof" and the failed facets, which only
    `_hull`'s route lists.  Deterministic for a fixed seed.  A negative
    `trials` or a point whose length is not `system.n_original` raises
    DomainError, more than `MAX_TRIALS` trials GuardExceeded, and so does a
    run whose pinned probes times the system's rows exceed `PIN_GUARD`
    (counted before each batch of membership probes, and again with the
    exclusion probes before those run, with no probe for a lifted point;
    the trials come last, so their witnesses do not lower the count).
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

    # the projection is convex, so it holds every truth point once it holds
    # those that no unit pair straddles, every vertex of conv(truth) among
    # them; the rest are probed only when one of those fails
    first = _unstraddled(truth)
    # the blocks prove proj Q inside conv(truth) and the lifts put `first` in
    # proj Q, so proj Q = conv(truth): the facet LPs would cut off nothing
    structural = bool(truth) and _structural(run.lifts, truth) and all(map(run.member, first))
    hull = _hull(truth, FACET_GUARD) if truth and not structural else None
    cuts, report.support_mismatches = _facet_cuts(run, hull) if hull is not None else ([], [])
    proved = structural or hull is not None and not report.support_mismatches
    report.proof = "structural" if structural else "sampled" if hull is None else "facets"
    columns = list(zip(*truth))
    if proved:  # the projection lies in conv(truth), so in the truth's box
        box = [(min(column), max(column)) for column in columns]
    else:
        box = _projection_box(run) if truth or removed else None
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
    # a removed vertex must probe infeasible; a removed non-vertex point may
    # lie in the hull of the rest, so each probe is compared with the exact
    # hull membership, read only for the probes that may run: with the proof,
    # a removed point outside conv(truth) is outside the projection
    probed = [] if decided else [
        (p, hit) for p in removed
        if (hit := _in_hull(hull, p) if hull else in_convex_hull(p, truth)) or not proved]
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
