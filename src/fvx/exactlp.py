"""Exact rational LP solving: two-phase primal simplex, Dantzig's rule with
a Bland fallback.

Everything is computed exactly, with no floating point and no tolerances,
and in Python ints from the tableau build to the objective value:

- build: each variable is one affine map x = offset + sum of coef * column
  (`var_cols`: no column for a fixed variable, one for a one-sided or boxed
  one, a +/- pair for a free one, coefficients +-1; a substituted variable,
  below, maps to the int combination of its variables' columns); every
  bound is an int (`_folded` writes a non-integral one as an integer row),
  so every offset and every row's rhs is an int;
- pivots: tableau rows are sparse integer numerator dicts with one positive
  denominator per row, so a pivot is integer multiply/subtract plus a gcd
  normalization;
- phase 1 is phase 2 with cost 1 on every artificial column;
- phase 2: the integer costs are priced against the basis scaled by the
  lcm of the basic rows' denominators; the z row is one positive multiple
  of the reduced costs, so the scaling changes no pivot;
- readout: the objective value is read off the final z row, with no
  point, when it is first asked for: sum of cost * offset - zrhs/zden,
  made one Fraction.  Every coordinate readout is one walk of the basis,
  `_Simplex.scaled(names)`: (L, the named variables' values times L as
  ints), L the lcm of the basic rows' denominators.  The point (one Fraction per variable),
  `int_coords(names)` (the named coordinates as ints, None when one is not
  integral) and `scaled_point()` (the whole point as (L, an int per
  variable)) are views of it, read only when asked for.
  `LpResult.penalties` reads Driebeek's penalties off the final tableau.

An objective is a list or tuple of exactly n_original ints, the costs of
x1..xn, priced as given; a rational objective is the caller's to scale
(`Objective.scaled`).  `Fraction`s remain only where non-integral values
enter (a bound, which `_folded` writes as an integer row) and where they
leave (`LpResult.point` and `value`).
Pricing (`_Simplex._iterate`) enters the most negative z-row entry (Dantzig
1963), the lowest column on ties, and falls back to Bland's lowest-index rule
(Bland 1977) after `DEGENERATE_RUN` degenerate pivots in a row, until the
next nondegenerate one; this guarantees termination.  Ratio-test ties go to
the lowest basic column.  Every answer (including the optimal basic point)
is deterministic.

Presolve is the solver's own (Andersen & Andersen 1995), and points are
the original system's.  A tableau build turns each one-variable row into a
bound (`_folded`), so it adds no tableau row and its variable no split
column pair, and a non-integral bound into an integer row.  Then
`_presolve` substitutes variables out through equality rows of unit form
(every nonzero coefficient +-m, the rhs a multiple of m): a free variable
through any such row, a bounded one through such a row of two variables,
its bounds moved onto the other one.  Rows go in order and variables in
row order, so the tableau stays deterministic.  The row leaves the tableau, with its artificial, and so do
the variable's columns: its map is an int offset plus an int combination
of the columns of the variables left (x = r + sum of +-y, composed), so
every readout (`scaled`, `point`, `int_coords`, `column_objective`,
`objective_value`) reads it as any other map.  The disjunctive hull has
such rows by construction: x_i = sum_j y_ij, and copy = lam_j for each
coordinate that a block fixes to 1.  Only the tableau changes: LP files,
size counts and `verify`'s substitution checks read the system's own rows
and bounds.  The fold and the presolve run once per solved system object
(its solver is kept, below): never for a fixing, and never for a system
that is not solved, such as a `with_bounds` child.

`solve_lp` runs phase 1 once per system object and keeps the post-phase-1
solver on it as `_phase1` (None when infeasible).  That solver is never
pivoted: every solve, cold or from `start`, pivots a `restart()` copy of its
base solver, whatever other systems were solved in between, so every answer
is the cold answer unless `start` is given.  The saved solver lives and dies
with its system (it holds no reference back to it), and systems derived by
`with_bounds` start without it.  Systems are treated as
immutable: a system's rows and bounds must not change once it is solved.

Warm starts: an optimal `LpResult` carries its optimal tableau (the
solver's own row and basis lists, not copied), and
`solve_lp(system, objective, start=result)` runs phase 2 from that basis
instead of the post-phase-1 one.  Any feasible basis is a valid phase-2
start, so the status and the value are the cold ones; only the point may be
another optimum.  `start` must come from the same system object, and a
start that `fix` made carries its fixings.  `start` with `fix` is refused:
`fix` is always a cold solve.

Fixings: each solver keeps one row list over columns, before any sign flip,
as `template`: every presolved row, then the bound row col <= hi - lo of
each boxed column (with `var_cols` and `bound_rows`, pivots never touch
it).  `solve_lp(system, objective, fix={name: int})` takes the kept
solver's `fixed(fix)`, built from the template by `_normalize` (the one
place that checks and drops a row left with no column) with no
`with_bounds` child, fold or presolve: a fixed variable with columns of its
own leaves through the shift, its value moved into the right-hand sides
and into the offset of every substituted map that uses its columns; a
fixed substituted variable adds the template row sum of coef * col =
v - offset over its map.  Every other column keeps its number, and the
pivot rule compares only z-row entries and column order, so when no fixed
variable is in a folded equality row (the child's presolve then
substitutes as this one did) the pivots are those of a cold solve of
`system.with_bounds({name: (v, v)})`.  Otherwise
fixing can change what the child's presolve substitutes (its fixed x_i
leaves its coupling row to another variable, or a row becomes a
doubleton) and the pivots may differ.  The status and the value are the
child's, and so was the point on every such fixing the tests draw.
A restriction of an infeasible system is infeasible with no tableau at all.

`solve_lp` is the only entry point.  A feasibility question is
`solve_lp(system, [0] * system.n_original)`: phase 2 then makes no pivot, so
the answer is optimal (value 0) exactly when the system is feasible, bounded
or not.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from math import ceil, floor, gcd, inf, lcm
from operator import itemgetter
from typing import Mapping, Optional, Sequence

from .core import _scale
from .errors import DomainError
from .linsys import LinearSystem, intersect_bounds

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Degenerate pivots in a row after which Bland's rule enters, until the next
#: nondegenerate pivot.
DEGENERATE_RUN = 20


class LpResult:
    """Outcome of an exact LP solve.

    When optimal, `point` assigns an exact rational to every variable of the
    system and `value` is the objective evaluated at that point; the result
    then also keeps `(system, solver, costs)` for `solve_lp`'s `start`,
    outside `repr` and `==`.  The value (read off the final z row under the
    kept costs), the point, and the ints of
    `int_coords` and `scaled_point` are read out of the solver only when
    asked for; the value and the point are kept.  The solver is
    never pivoted after it is returned (`start` pivots a `restart()` copy of
    it, and a solver built for `fix` belongs to its result alone), so a late
    readout equals an eager one.
    `LpResult(status, point, value)` is a result with the given point and
    value; `repr` and `==` compare `(status, point, value)`.
    """

    __slots__ = ("status", "_point", "_value", "_tableau")

    def __init__(self, status: str, point: Optional[dict] = None,
                 value: Optional[Fraction] = None, _tableau: Optional[tuple] = None):
        self.status, self._point, self._value, self._tableau = status, point, value, _tableau

    @property
    def value(self) -> Optional[Fraction]:
        if self._value is None and self._tableau is not None:
            self._value = self._tableau[1].objective_value(self._tableau[2])
        return self._value

    @property
    def point(self) -> Optional[dict]:
        # threads racing here read out equal points
        if self._point is None and self._tableau is not None:
            self._point = self._tableau[1].point()
        return self._point

    def int_coords(self, names) -> Optional[tuple]:
        """The named coordinates of the point as ints, or None when one of
        them is not integral; off the solver in ints while the point is not
        read out."""
        if self._point is None:
            L, ints = self._tableau[1].scaled(names)
        else:
            L, ints = _scale(map(self._point.__getitem__, names))
        return None if any(v % L for v in ints) else tuple(v // L for v in ints)

    def scaled_point(self) -> tuple:
        """(L, {name: point[name] * L as an int}) for some positive int L,
        off the solver in ints while the point is not read out."""
        if self._point is None:
            return self._tableau[1].scaled_point()
        L, ints = _scale(self._point.values())
        return L, dict(zip(self._point, ints))

    def penalties(self, steps: Mapping[str, int]) -> list:
        """Driebeek's penalties (Driebeek 1966, *Management Sci.* 12) off the
        optimal tableau: per name of `steps`, in order, a lower bound on the
        rise of the objective from this optimum to any feasible point where
        the variable has moved at least one unit the way of its step (+1 up,
        -1 down), rounded up to an int.  It is inf when no feasible point
        moves the variable so, and None when its map is not one +-1 column.

        Every column is >= 0 and the objective is its optimum plus the sum of
        zc_j/zden * col_j over the nonbasic columns.  A nonbasic column sits
        at 0, so moving it one unit up costs zc/zden, and down is infeasible.
        A basic column is (rhs - sum of a_j * col_j) / den over its row, so
        it moves one unit only when the columns whose sign moves it that way
        add up sum of |a_j| col_j >= den: at least den * min of
        zc_j / (zden * |a_j|) over them.
        """
        solver = self._tableau[1]
        zc, zden, var_cols = solver.zc, solver.zden, solver.var_cols
        row_of = dict(zip(solver.basis, solver.rows))
        out = []
        for name, step in steps.items():
            cols = var_cols[name][1]
            if len(cols) != 1 or abs(cols[0][1]) != 1:
                out.append(None)
                continue
            (col, coef), = cols
            up = coef * step > 0  # the way the column must move
            if col not in row_of:
                out.append(-(-zc.get(col, 0) // zden) if up else inf)
                continue
            row, _, den = row_of[col]
            out.append(min((-(-zc.get(j, 0) * den // (zden * abs(a)))
                            for j, a in row.items() if (a < 0 if up else a > 0) and j != col),
                           default=inf))
        return out

    def __eq__(self, other):
        if not isinstance(other, LpResult):
            return NotImplemented
        return (self.status, self.point, self.value) == (other.status, other.point, other.value)

    __hash__ = None

    def __repr__(self) -> str:
        return f"LpResult(status={self.status!r}, point={self.point!r}, value={self.value!r})"

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL

    @property
    def is_infeasible(self) -> bool:
        return self.status == INFEASIBLE

    @property
    def is_unbounded(self) -> bool:
        return self.status == UNBOUNDED


_INFEASIBLE = LpResult(INFEASIBLE, None, None)
_UNBOUNDED = LpResult(UNBOUNDED, None, None)


_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


def _folded(system: LinearSystem) -> tuple:
    """(bounds, rows) in ints: the system's bounds tightened by each
    one-variable row a*v rel b (to b/a, the sense flipped when a < 0), then
    each bound p/q that is not an int written as the row q*v >= p (<= p for
    an upper bound, = p for a fixing) and relaxed to its floor (ceil);
    crossed bounds stay crossed, as (ceil lo, floor hi), with no row.  The
    rows are the system's others in order, then these, as a tuple."""
    bounds, rows = dict(system.bounds), []
    for row in system.rows:
        coeffs, rel, rhs = row
        if len(coeffs) != 1 or 0 in coeffs.values():
            rows.append(row)
            continue
        (name, a), = coeffs.items()
        q = Fraction(rhs, a) if rhs % a else rhs // a
        rel = rel if a > 0 else _FLIPPED[rel]
        bound = (None if rel == "<=" else q, None if rel == ">=" else q)
        bounds[name] = intersect_bounds(bound, bounds.get(name, (None, None)))
    for name, (lo, hi) in list(bounds.items()):
        if type(lo) is not Fraction and type(hi) is not Fraction:
            continue
        if lo is not None and hi is not None and lo > hi:
            bounds[name] = (ceil(lo), floor(hi))
            continue
        if lo == hi:
            rows.append(({name: lo.denominator}, "=", lo.numerator))
        else:
            rows += [({name: q.denominator}, rel, q.numerator)
                     for q, rel in ((lo, ">="), (hi, "<=")) if type(q) is Fraction]
        bounds[name] = (None if lo is None else floor(lo), None if hi is None else ceil(hi))
    return bounds, tuple(rows)


def _reduced(cols: dict, rhs: int, den: int) -> list:
    """The tableau row [cols, rhs, den] divided by the gcd of all its entries."""
    g = gcd(den, rhs)
    if g != 1:
        for v in cols.values():
            g = gcd(g, v)
            if g == 1:
                break
    if g > 1:
        return [{j: v // g for j, v in cols.items()}, rhs // g, den // g]
    return [cols, rhs, den]


class _Simplex:
    """The tableau of one LinearSystem: build, phase 1, then phase 2.

    Once phase 1 is done, pivots replace tableau rows (the row lists and their
    column dicts) and never mutate them; `restart` relies on that.
    """

    def __init__(self, system: LinearSystem):
        self.variables = system.variables  # not the system, which keeps this solver
        self.trivially_infeasible = False
        self.var_cols = {}    # name -> (offset, ((col, coef), ...)): x = offset +
                              # sum of coef * col, the offset an int, coef a
                              # nonzero int (+-1 unless substituted)
        self.rows = []        # [cols dict, rhs int, den int] in standard equality form
        self.basis = []
        bounds, rows, self.substituted = self._presolve(*_folded(system))
        self._build_columns(bounds)
        self._substitute()
        self._build_rows(rows)

    def restart(self) -> "_Simplex":
        """A copy of this solver with row and basis lists of its own, in O(rows).

        The row objects are shared, not copied: pivots replace rows and never
        mutate them, so pivoting the copy leaves this solver as it is.
        """
        other = copy.copy(self)
        other.rows, other.basis = list(self.rows), list(self.basis)
        return other

    # -- construction ----------------------------------------------------------

    @staticmethod
    def _presolve(bounds: Mapping[str, tuple], rows: tuple) -> tuple:
        """(bounds, rows, substitutions): variables substituted out through
        equality rows (Andersen & Andersen 1995).

        Equality rows go in order, each read under the substitutions made so
        far.  A row of unit form (every nonzero coefficient +-m, the rhs a
        multiple of m) gives up the first variable, in row order, that is
        free, or bounded (not fixed) while the row holds two variables:
        x = r + sum of t * y, r an int and each t = +-1.  A bounded x's
        bounds move onto its one y.  The row is dropped; every other row, and
        every earlier map, is rewritten over the variables left, so rows
        stay integral.  The substitutions map each name to (r, {name: t})
        over variables that keep columns, in the order they were made.
        """
        bounds, maps, users, spent = dict(bounds), {}, {}, set()

        def expand(coeffs, rhs):
            if maps.keys().isdisjoint(coeffs):
                return coeffs, rhs
            out = {}
            for name, a in coeffs.items():
                if name in maps:
                    r, terms = maps[name]
                    rhs -= a * r
                    for other, t in terms.items():
                        out[other] = out.get(other, 0) + a * t
                else:
                    out[name] = out.get(name, 0) + a
            return {name: a for name, a in out.items() if a}, rhs

        for i, (coeffs, rel, rhs) in enumerate(rows):
            if rel != "=":
                continue
            coeffs, rhs = expand(coeffs, rhs)
            terms = [(name, a) for name, a in coeffs.items() if a]
            m = abs(terms[0][1]) if terms else 0
            if not m or rhs % m or any(abs(a) != m for _, a in terms):
                continue
            for x, p in terms:
                lo, hi = bounds.get(x, (None, None))
                if (lo is None and hi is None) or (len(terms) == 2 and (
                        lo is None or hi is None or lo < hi)):
                    break
            else:
                continue
            r = rhs // p
            expr = {y: -a // p for y, a in terms if y != x}
            if lo is not None or hi is not None:  # x = r + t * y within [lo, hi]
                (y, t), = expr.items()
                lo, hi = (hi, lo) if t < 0 else (lo, hi)
                bounds[y] = intersect_bounds((None if lo is None else t * (lo - r),
                                              None if hi is None else t * (hi - r)),
                                             bounds.get(y, (None, None)))
            bounds.pop(x, None)
            for u in users.pop(x, ()):  # earlier maps that hold x
                ru, eu = maps[u]
                c = eu.pop(x, 0)
                for y, t in expr.items() if c else ():
                    eu[y] = eu.get(y, 0) + c * t
                    if not eu[y]:
                        del eu[y]
                    users.setdefault(y, set()).add(u)
                maps[u] = (ru + c * r, eu)
            maps[x] = (r, expr)
            for y in expr:
                users.setdefault(y, set()).add(x)
            spent.add(i)

        kept = []
        for i, row in enumerate(rows):
            if i not in spent:
                coeffs, rel, rhs = row
                if not maps.keys().isdisjoint(coeffs):
                    coeffs, rhs = expand(coeffs, rhs)
                    row = (coeffs, rel, rhs)
                kept.append(row)
        return bounds, tuple(kept), maps

    def _substitute(self):
        """Give each substituted variable its map over columns: r plus t times
        each of its variables' maps."""
        var_cols = self.var_cols
        for name, (r, expr) in self.substituted.items():
            offset, cols = r, []
            for y, t in expr.items():
                o, terms = var_cols[y]
                offset += t * o
                cols += [(col, t * coef) for col, coef in terms]
            var_cols[name] = (offset, tuple(cols))

    def _build_columns(self, bounds: Mapping[str, tuple]):
        ncol = 0
        self.bound_rows = []  # (col, limit) meaning col <= limit
        for name in self.variables:
            if name in self.substituted:
                continue
            lo, hi = bounds.get(name, (None, None))
            if hi is not None:
                if lo is not None and hi <= lo:
                    self.trivially_infeasible |= hi < lo
                    self.var_cols[name] = (lo, ())
                    continue
            if lo is not None:
                self.var_cols[name] = (lo, ((ncol, 1),))
                if hi is not None:
                    self.bound_rows.append((ncol, hi - lo))
                ncol += 1
            elif hi is not None:
                self.var_cols[name] = (hi, ((ncol, -1),))
                ncol += 1
            else:
                self.var_cols[name] = (0, ((ncol, 1), (ncol + 1, -1)))
                ncol += 2
        self.nstruct = ncol

    def _transform_row(self, coeffs: Mapping[str, int], rhs: int) -> tuple:
        """Rewrite a row over variables into one over columns; returns (cols, rhs).

        Every variable has columns of its own, so no two terms share a column.
        """
        out = {}
        b = rhs
        var_cols = self.var_cols
        for name, a in coeffs.items():
            offset, cols = var_cols[name]
            if offset:
                b -= a * offset
            for col, sign in cols:
                out[col] = a * sign
        return {c: v for c, v in out.items() if v}, b

    def _build_rows(self, rows: tuple):
        """Keep the template, then normalize: each presolved row as (cols, rhs,
        rel) from `_transform_row`, before any sign flip and even with no
        column, then each boxed column's bound row ({col: 1}, limit, "<=")."""
        self.template = [(*self._transform_row(coeffs, rhs), rel) for coeffs, rel, rhs in rows]
        self.template += [({col: 1}, limit, "<=") for col, limit in self.bound_rows]
        self._normalize({})

    def _normalize(self, shift: Mapping[int, int]):
        """Build the tableau rows from the template with columns fixed to values.

        Each column in `shift` (col -> int) leaves every row: its value
        times its coefficient moves into the int rhs.  A row with no column
        left is checked and dropped.  Then each row becomes an equality with a
        slack (<=, >=) and, where the slack cannot be basic, an artificial.
        Every other column keeps its number, so the pivot rule, which
        compares only z-row entries and column order, takes the pivots of a
        build that never had the shifted columns.
        """
        pending = []
        for cols, b, rel in self.template:
            if shift and not shift.keys().isdisjoint(cols):
                kept = {}
                for c, a in cols.items():
                    if c in shift:
                        b -= a * shift[c]
                    else:
                        kept[c] = a
                cols = kept
            if not cols:
                if not (b >= 0 if rel == "<=" else b <= 0 if rel == ">=" else b == 0):
                    self.trivially_infeasible = True
                continue
            pending.append((cols, rel, b))

        nslack = sum(1 for _, rel, _ in pending if rel != "=")
        slack = self.nstruct
        art = self.art_start = slack + nslack
        for cols, rel, bi in pending:
            cols = dict(cols)  # the template keeps its own
            if rel == ">=":
                cols, bi = {c: -v for c, v in cols.items()}, -bi
            basis_col = None
            if rel != "=":
                cols[slack] = 1
                basis_col = slack if bi >= 0 else None
                slack += 1
            if bi < 0:
                cols, bi = {c: -v for c, v in cols.items()}, -bi
            if basis_col is None:
                cols[art] = 1
                basis_col = art
                art += 1
            self.rows.append([cols, bi, 1])
            self.basis.append(basis_col)
        self.ncols = art

    def fixed(self, values: Mapping[str, int]) -> "_Simplex":
        """A solver for this system with each named variable fixed to its int value.

        The tableau comes from this solver's template, with no presolve: a
        variable with columns of its own leaves through `_normalize`'s shift
        (a value outside its bounds makes the copy trivially infeasible), and
        every substituted map that uses a shifted column takes that column's
        value into its offset.  A substituted variable adds the template row
        sum of coef * col = value - offset over its map, which `_normalize`
        gives its artificial.  Each fixed variable's map becomes (value, ()).
        The copy has rows of its own; `phase1` runs on it before `phase2`.
        """
        other = copy.copy(self)
        other.var_cols, other.rows, other.basis = dict(self.var_cols), [], []
        shift, pins = {}, []
        for name, v in values.items():
            offset, cols = self.var_cols[name]
            if name in self.substituted:
                pins.append((dict(cols), v - offset, "="))
                ok = True
            elif not cols:  # already fixed
                ok = v == offset
            elif len(cols) == 1:
                (col, sign), = cols
                shift[col] = (v - offset) * sign
                ok = shift[col] >= 0
            else:  # a free variable's +/- pair
                shift[cols[0][0]], shift[cols[1][0]] = v, 0
                ok = True
            if not ok:
                other.trivially_infeasible = True
                return other
            other.var_cols[name] = (v, ())
        for name in self.substituted if shift else ():
            offset, cols = other.var_cols[name]
            if any(col in shift for col, _ in cols):
                other.var_cols[name] = (
                    offset + sum(coef * shift[col] for col, coef in cols if col in shift),
                    tuple(term for term in cols if term[0] not in shift))
        if pins:
            other.template = self.template + pins
        other._normalize(shift)
        return other

    # -- pivoting ---------------------------------------------------------------

    @staticmethod
    def _combine(ci, bi, di, f, prc, prr, prd):
        if prd == 1:
            new = dict(ci)
        else:
            new = {j: v * prd for j, v in ci.items()}
        for j, pv in prc.items():
            t = new.get(j, 0) - f * pv
            if t:
                new[j] = t
            else:
                new.pop(j, None)
        return _reduced(new, bi * prd - f * prr, di * prd)

    def _pivot(self, r: int, s: int):
        cols, rhs, _den = self.rows[r]
        p = cols[s]
        if p < 0:
            cols = {j: -v for j, v in cols.items()}
            rhs = -rhs
            p = -p
        self.rows[r] = _reduced(cols, rhs, p)
        prc, prr, prd = self.rows[r]
        for i, row in enumerate(self.rows):
            if i == r:
                continue
            f = row[0].get(s)
            if f:
                self.rows[i] = self._combine(row[0], row[1], row[2], f, prc, prr, prd)
        f = self.zc.get(s)
        if f:
            zrow = self._combine(self.zc, self.zrhs, self.zden, f, prc, prr, prd)
            self.zc, self.zrhs, self.zden = zrow
        self.basis[r] = s

    def _iterate(self) -> str:
        """Pivot until optimal or unbounded, the pricing loop of both phases.

        Dantzig's rule enters the most negative z-row entry, the lowest
        column on ties; the z row is one positive multiple of the reduced
        costs, so comparing its ints is exact.  After `DEGENERATE_RUN`
        degenerate pivots in a row (a ratio-test rhs of 0), Bland's
        lowest-index rule enters instead until the next nondegenerate pivot.
        The ratio test takes the least ratio, the lowest basic column on
        ties.  This terminates: there are finitely many bases and each
        nondegenerate pivot strictly improves the objective, so there are
        finitely many nondegenerate pivots, and between two of them Bland's
        rule cannot cycle.
        """
        rows = self.rows
        basis = self.basis
        degenerate = 0
        while True:
            s = None
            if degenerate < DEGENERATE_RUN:
                best = 0
                # no z-row entry is 0, so a tie has best < 0 and s set
                for j, v in self.zc.items():
                    if v < best or v == best and j < s:
                        s, best = j, v
            else:
                for j, v in self.zc.items():
                    if v < 0 and (s is None or j < s):
                        s = j
            if s is None:
                return OPTIMAL
            best_r = -1
            best_rhs = best_num = best_basis = 0
            for i, (cols, rhs, _den) in enumerate(rows):
                a = cols.get(s)
                if a is None or a <= 0:
                    continue
                if best_r < 0:
                    best_r, best_rhs, best_num, best_basis = i, rhs, a, basis[i]
                    continue
                lhs = rhs * best_num
                rhsq = best_rhs * a
                if lhs < rhsq or (lhs == rhsq and basis[i] < best_basis):
                    best_r, best_rhs, best_num, best_basis = i, rhs, a, basis[i]
            if best_r < 0:
                return UNBOUNDED
            degenerate = degenerate + 1 if best_rhs == 0 else 0
            self._pivot(best_r, s)

    # -- phases -----------------------------------------------------------------

    def phase1(self) -> bool:
        """Drive artificials to zero; True iff the system is feasible."""
        if self.trivially_infeasible:
            return False
        art = self.art_start
        # every artificial is basic in its own row, so its priced cost is 1 - 1
        status = self.phase2({j: 1 for j in range(art, self.ncols)})
        assert status == OPTIMAL  # phase-1 objective is bounded below by 0
        if self.zrhs < 0:  # optimum of sum of artificials is -zrhs/zden > 0
            return False
        # drive remaining artificials out of the basis (all at value zero)
        for i in range(len(self.rows)):
            if self.basis[i] < art:
                continue
            target = min((j for j in self.rows[i][0] if j < art), default=None)
            if target is not None:
                self._pivot(i, target)
        keep = [i for i, b in enumerate(self.basis) if b < art]
        self.rows = [self.rows[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        for cols, _rhs, _den in self.rows:
            for j in [j for j in cols if j >= art]:
                del cols[j]
        return True

    def phase2(self, col_obj: Mapping[int, int]) -> str:
        """Price integer column costs against the basis, then pivot (`_iterate`).

        The z row is a positive multiple of the reduced costs: the column
        costs are ints (`column_objective`), and pricing scales them by the
        lcm of the priced basic rows' denominators, so it is built in
        integers.  `_iterate` compares entries of this one row and
        `_combine` renormalizes, so the scaling changes no pivot.
        """
        priced = []
        zden = 1
        for row, b in zip(self.rows, self.basis):
            cb = col_obj.get(b)
            if cb:
                priced.append((cb, row))
                den = row[2]
                zden = zden // gcd(zden, den) * den
        zc = {j: c * zden for j, c in col_obj.items()}
        zrhs = 0
        for cb, (cols, rhs, den) in priced:
            f = cb * (zden // den)
            zrhs -= f * rhs
            for j, num in cols.items():
                zc[j] = zc.get(j, 0) - f * num
        self.zc = {j: v for j, v in zc.items() if v}
        self.zrhs = zrhs
        self.zden = zden
        return self._iterate()

    # -- readout ----------------------------------------------------------------

    def scaled(self, names: Sequence[str]) -> tuple:
        """(L, the named variables' values at the basic point times L, as
        ints), the one walk of the basis: L is the lcm of the basic rows'
        denominators."""
        var_cols = self.var_cols
        L = lcm(*set(map(itemgetter(2), self.rows)))
        row_of = dict(zip(self.basis, self.rows))
        out = []
        for name in names:
            offset, cols = var_cols[name]
            v = offset * L
            for col, coef in cols:
                if col in row_of:
                    _cols, n, d = row_of[col]
                    v += coef * n * (L // d)
            out.append(v)
        return L, out

    def point(self) -> dict:
        """The basic point, one Fraction per variable."""
        L, ints = self.scaled(self.variables)
        return {name: Fraction(v, L) for name, v in zip(self.variables, ints)}

    def scaled_point(self) -> tuple:
        """(L, {name: its value times L, an int}) for the basic point."""
        L, ints = self.scaled(self.variables)
        return L, dict(zip(self.variables, ints))

    def objective_value(self, costs: Sequence[int]) -> Fraction:
        """The optimal value of the integer costs of x1..xn that `phase2`
        priced, read off the final z row, with no point.

        zden * (column objective) = sum of zc_j * x_j - zrhs, and every basic
        zc_j and nonbasic x_j is 0, so the columns contribute -zrhs/zden; the
        offsets, all ints, contribute sum of cost * offset.
        """
        var_cols = self.var_cols
        shift = sum(c * var_cols[name][0] for name, c in zip(self.variables, costs) if c)
        return Fraction(shift * self.zden - self.zrhs, self.zden)

    def column_objective(self, costs: Sequence[int]) -> dict:
        """Integer column costs of the integer costs of x1..xn."""
        col_obj = {}
        var_cols = self.var_cols
        for name, c in zip(self.variables, costs):
            if c:
                for col, coef in var_cols[name][1]:
                    col_obj[col] = col_obj.get(col, 0) + coef * c
        return {c: v for c, v in col_obj.items() if v}


def _after_phase1(system: LinearSystem) -> Optional[_Simplex]:
    """The solver of `system` just after phase 1, or None if it is infeasible.

    Phase 1 runs on the first call for a system object, which keeps the
    result as `_phase1`.  That solver is never pivoted: every solve pivots a
    `restart()` copy of it.  Two first calls racing on one system may both
    run phase 1; either saved solver is the same tableau.
    """
    if "_phase1" not in system.__dict__:
        solver = _Simplex(system)
        object.__setattr__(system, "_phase1", solver if solver.phase1() else None)
    return system.__dict__["_phase1"]


def solve_lp(system: LinearSystem, objective, start: Optional[LpResult] = None,
             fix: Optional[Mapping[str, int]] = None) -> LpResult:
    """Minimize a linear objective over a LinearSystem, exactly.

    `objective` is a list or tuple of exactly `system.n_original` ints, the
    costs of x1..xn, priced as given; any other value (a mapping, an
    Objective, a sequence of another length or with an entry that is not an
    int: bools, floats, Fractions and strings are refused) raises
    DomainError.  A maximum is the negated minimum of the negated objective.
    Returns an optimal basic solution, `infeasible`, or `unbounded`; results
    are deterministic for identical inputs.  Phase 1 runs on the first call
    on a system object; every call after the first on the same object
    restarts phase 2 from the post-phase-1 basis kept on it, so each answer
    equals a cold solve's.  That state is freed with the system, and
    `with_bounds` children do not inherit it.

    `fix`, a mapping from variable names to ints, answers for the system
    with those variables fixed: the status, value and point of a cold solve
    of `system.with_bounds({name: (v, v)})`, from the kept solver's
    template (`_Simplex.fixed`) with a phase 1 of its own.  An
    undeclared name or a value that is not an int (bools, floats, Fractions
    and strings are refused) raises DomainError.

    `start`, an earlier optimal result of this same system object, makes
    phase 2 start from that result's optimal basis instead.  The status and
    the value then still equal the cold ones, but the point may be another
    optimum.  A start made with `fix` carries its fixings.  A `start` of
    another system, or one that is not optimal, raises DomainError, and so
    does a `start` with a nonempty `fix`.
    """
    if not system.variables:
        raise DomainError("system has no variables")
    if fix:
        if start is not None:
            raise DomainError("start and fix cannot be combined: fix is a cold solve")
        for name, v in fix.items():
            if name not in system.variables:
                raise DomainError(f"fix references undeclared variable {name!r}")
            if type(v) is not int:
                raise DomainError(f"fix value {v!r} of {name} is not an int")
    if (not isinstance(objective, (list, tuple)) or len(objective) != system.n_original
            or not all(type(v) is int for v in objective)):
        raise DomainError(f"objective must be a list or tuple of {system.n_original} ints, "
                          "the costs of x1..xn")
    costs = tuple(objective)  # the caller's list may change before a late readout
    if start is None:
        base = _after_phase1(system)
        if base is None:
            return _INFEASIBLE  # so is every restriction of it
        solver = base.fixed(fix) if fix else base.restart()
        if fix and not solver.phase1():
            return _INFEASIBLE
    elif start._tableau is None or start._tableau[0] is not system:
        raise DomainError("start must be an optimal result of this same system")
    else:
        solver = start._tableau[1].restart()
    if solver.phase2(solver.column_objective(costs)) == UNBOUNDED:
        return _UNBOUNDED
    return LpResult(OPTIMAL, _tableau=(system, solver, costs))
