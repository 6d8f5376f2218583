"""Exact rational LP solving: two-phase primal simplex with Bland's rule.

Everything is computed exactly, with no floating point and no tolerances,
and in Python ints from the tableau build to the objective value:

- build: each variable is one affine map x = offset + sum of sign * column
  (signs +-1; no column for a fixed variable, one for a one-sided or boxed
  one, a +/- pair for a free one); bounds with denominator 1 become int
  offsets, a row's rhs stays an int unless a non-integral offset is
  subtracted from it, and only such a row is rescaled by its rhs denominator;
- pivots: tableau rows are sparse integer numerator dicts with one positive
  denominator per row, so a pivot is integer multiply/subtract plus a gcd
  normalization;
- phase 1 is phase 2 with cost 1 on every artificial column;
- phase 2: the objective is scaled to integers by the lcm of its
  denominators and priced against the basis scaled by the lcm of the basic
  rows' denominators; Bland's rule reads only the signs of the z row, so the
  scaling changes no pivot;
- readout: the objective value is read off the final z row, with no point:
  (sum of cost * offset -+ zrhs/zden) / L for the integer costs, scaled by L,
  made one Fraction; each coordinate of the point is made a Fraction once.
  An `LpResult` reads out on first access, its value, its point, or only
  the coordinates named to `coords`, so what is never read costs nothing.

`Fraction`s remain only where values enter (objectives, bounds) and where
they leave (`LpResult.point`, `value`, `coords`).  A list or tuple of
plain ints is taken as the integer costs themselves, with L = 1; the
library's own callers price this way.  Any other objective (a mapping, a
sequence of rationals or an `Objective`) is parsed on each call and scaled
to ints by `core._scale`, the package's one rational-to-integer scaler.
Bland's lowest-index rule is used for both the entering column and
ratio-test ties, which guarantees termination and makes every answer
(including the optimal basic point) deterministic.

Presolve is the solver's own: a tableau build turns each one-variable row
into a bound (`_folded`; Andersen & Andersen 1995), so it adds no tableau row
and its variable no split column pair; points are the original system's.
The fold runs once per solved system (its solver is kept, below) and never
for a system that is not solved, such as a `with_bounds` child.

`solve_lp` runs phase 1 once per system object and keeps the post-phase-1
solver on it as `_phase1` (None when infeasible).  That solver is never
pivoted: every solve, cold or from `start`, pivots a `restart()` copy of its
base solver, whatever other systems were solved in between, so every answer
is the cold answer unless `start` is given.  The saved solver lives and dies
with its system (it holds no reference back to it), and systems derived by
`with_bounds` or `with_meta` start without it.  Systems are treated as
immutable: a system's rows and bounds must not change once it is solved.

Warm starts: an optimal `LpResult` carries its optimal tableau (the
solver's own row and basis lists, not copied), and
`solve_lp(system, objective, start=result)` runs phase 2 from that basis
instead of the post-phase-1 one.  Any feasible basis is a valid phase-2
start, so the status and the value are the cold ones; only the point may be
another optimum.  `start` must come from the same system object.

Fixings: each solver keeps one row list over columns, before any sign flip,
as `template`: every folded row, then the bound row col <= hi - lo of each
boxed column (with `var_cols` and `bound_rows`, pivots never touch it).
`solve_lp(system, objective, fix={name: int})` takes the kept solver's
`fixed(fix)`: a copy whose fixed variables map to their values with no
column, and whose tableau `_normalize`, the one place that checks and drops
a row left with no column, rebuilds from the template with each dropped
column's value moved into the right-hand sides.  Every other column keeps
its number, and the pivot rule compares only column order, so the copy's
phase 1 and phase 2 take exactly the pivots of a cold build of
`system.with_bounds({name: (v, v)})`, with no `with_bounds` child,
`_transform_row` or fold per call.  A restriction of an infeasible system is
infeasible with no tableau at all.

`solve_lp` is the only entry point.  A feasibility question is
`solve_lp(system, {})`: phase 2 then makes no pivot, so the answer is optimal
(value 0) exactly when the system is feasible, bounded or not.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional, Sequence

from .core import Objective, _scale, parse_rational
from .errors import DomainError
from .linsys import LinearSystem, intersect_bounds

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpResult:
    """Outcome of an exact LP solve.

    When optimal, `point` assigns an exact rational to every variable of the
    system and `value` is the objective evaluated at that point; the result
    then also keeps `(system, solver)` for `solve_lp`'s `start`, outside
    `repr` and `==`.  A result of `solve_lp` reads its value (off the final
    z row), its point, or the named coordinates of `coords` out of that
    solver on first access, and keeps the value and the point.  The solver
    is never pivoted after it is returned (`start` pivots a `restart()` copy
    of it, and a solver built for `fix` belongs to its result alone), so a
    late readout equals an eager one.  `LpResult(status, point, value)` is a
    result with the given point and value; `repr` and `==` read a result out
    first and compare `(status, point, value)`.
    """

    __slots__ = ("status", "_point", "_value", "_tableau", "_objective")

    def __init__(self, status: str, point: Optional[dict] = None,
                 value: Optional[Fraction] = None, _tableau: Optional[tuple] = None,
                 _objective: Optional[tuple] = None):
        self.status = status
        self._point, self._value, self._tableau = point, value, _tableau
        # (integer costs by name, their scale L, negate) while the value is pending
        self._objective = _objective

    @property
    def point(self) -> Optional[dict]:
        # threads racing here read out equal points
        if self._point is None and self._tableau is not None:
            self._point = self._tableau[1].point()
        return self._point

    @property
    def value(self) -> Optional[Fraction]:
        # `_objective` is cleared only after the value is stored
        objective = self._objective
        if objective is not None:
            self._value = self._tableau[1].objective_value(*objective)
            self._objective = None
        return self._value

    def coords(self, names) -> list:
        """[point[name] for name in names], reading out only those coordinates."""
        if self._point is None and self._tableau is not None:
            return list(self._tableau[1].point(names).values())
        return [self._point[name] for name in names]

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


def _objective_map(system: LinearSystem, objective) -> dict:
    """Normalize an objective (mapping, sequence, or Objective) to name->Fraction."""
    if isinstance(objective, Mapping):
        out = {}
        for name, v in objective.items():
            if name not in system.variables:
                raise DomainError(f"objective references undeclared variable {name!r}")
            q = parse_rational(v)
            if q:
                out[name] = q
        return out
    # positional: applies to the original variables
    terms = objective.c if isinstance(objective, Objective) else list(objective)
    if len(terms) != system.n_original:
        raise DomainError(f"objective has {len(terms)} terms, expected {system.n_original}")
    return {name: q for name, q in zip(system.variables, map(parse_rational, terms)) if q}


def _costs(system: LinearSystem, objective) -> tuple:
    """(L, the nonzero terms of the objective times L, as ints by name): a list
    or tuple of plain ints is the integer costs themselves, with L = 1; any
    other objective is parsed to rationals and scaled by `core._scale`, L the
    lcm of the denominators."""
    if (isinstance(objective, (list, tuple)) and len(objective) == system.n_original
            and all(type(v) is int for v in objective)):
        return 1, {name: v for name, v in zip(system.variables, objective) if v}
    terms = _objective_map(system, objective)
    scale, ints = _scale(terms.values())
    return scale, dict(zip(terms, ints))


_NONBASIC = (0, 1)  # the (rhs, den) value of a nonbasic column
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


def _folded(system: LinearSystem) -> tuple:
    """(bounds, rows): the system's bounds tightened by each one-variable row
    a*v rel b (to b/a, the sense flipped when a < 0; crossed bounds stay
    crossed) and the other rows in order, as a tuple."""
    bounds, rows = dict(system.bounds), []
    for row in system.rows:
        coeffs, rel, rhs = row
        if len(coeffs) != 1 or 0 in coeffs.values():
            rows.append(row)
            continue
        (name, a), = coeffs.items()
        q, rel = Fraction(rhs, a), rel if a > 0 else _FLIPPED[rel]
        bound = (None if rel == "<=" else q, None if rel == ">=" else q)
        bounds[name] = intersect_bounds(bound, bounds.get(name, (None, None)))
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
        self.var_cols = {}    # name -> (offset, ((col, sign), ...)): x = offset +
                              # sum of sign * col, sign +-1; the offset is an int
                              # when integral, else a Fraction
        self.rows = []        # [cols dict, rhs int, den int] in standard equality form
        self.basis = []
        bounds, rows = _folded(system)
        self._build_columns(bounds)
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

    def _build_columns(self, bounds: Mapping[str, tuple]):
        ncol = 0
        self.bound_rows = []  # (col, limit) meaning col <= limit
        for name in self.variables:
            lo, hi = bounds.get(name, (None, None))
            if lo is not None and lo.denominator == 1:
                lo = lo.numerator
            if hi is not None:
                if hi.denominator == 1:
                    hi = hi.numerator
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
        The rhs stays an int unless a non-integral offset is subtracted from it.
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
        """Keep the template, then normalize: each folded row as (cols, rhs,
        rel) from `_transform_row`, before any sign flip and even with no
        column, then each boxed column's bound row ({col: 1}, limit, "<=").
        A rhs that a non-integral bound made a Fraction is rescaled to an
        integer per row by `_normalize`."""
        self.template = [(*self._transform_row(coeffs, rhs), rel) for coeffs, rel, rhs in rows]
        self.template += [({col: 1}, limit, "<=") for col, limit in self.bound_rows]
        self._normalize({})

    def _normalize(self, shift: Mapping[int, object]):
        """Build the tableau rows from the template with columns fixed to values.

        Each column in `shift` (col -> value) leaves every row: its value
        times its coefficient moves into the rhs.  A row with no column left
        is checked and dropped.  Then each row becomes an equality with a
        slack (<=, >=) and, where the slack cannot be basic, an artificial.
        Every other column keeps its number, so the pivot rule, which
        compares only column order, takes the pivots of a build that never
        had the shifted columns.
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
            if isinstance(bi, Fraction):
                den = bi.denominator
                cols = {c: v * den for c, v in cols.items()} if den != 1 else dict(cols)
                bi = bi.numerator
            else:
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

        Its tableau comes from this solver's template, not from a new build:
        each fixed variable's map becomes (value, ()), and the value of each
        column it drops goes into `_normalize`'s shift.  A value outside the
        variable's bounds makes the copy trivially infeasible.  The copy has
        rows of its own; `phase1` runs on it before `phase2`.
        """
        other = copy.copy(self)
        other.var_cols, other.rows, other.basis = dict(self.var_cols), [], []
        shift = {}
        for name, v in values.items():
            offset, cols = self.var_cols[name]
            if not cols:  # already fixed
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

    def _bland(self) -> str:
        """Run Bland pivots until optimal or unbounded."""
        rows = self.rows
        basis = self.basis
        while True:
            s = None
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
        """Price integer column costs against the basis, then run Bland pivots.

        The z row is a positive multiple of the reduced costs: the costs come
        scaled from `column_objective`, and pricing scales them again by the
        lcm of the priced basic rows' denominators, so it is built in
        integers.  `_bland` reads only signs and `_combine` renormalizes, so
        the scaling changes no pivot.
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
        return self._bland()

    # -- readout ----------------------------------------------------------------

    def point(self, names: Optional[Sequence[str]] = None) -> dict:
        """The basic point, one Fraction per variable (or per name in `names`).

        Column values stay integer pairs (rhs, den) until a variable's value
        is assembled, so each value is normalized once.
        """
        cv = {b: (rhs, den) for b, (_cols, rhs, den) in zip(self.basis, self.rows)}
        out = {}
        for name in self.variables if names is None else names:
            offset, cols = self.var_cols[name]
            num, den = offset, 1
            for col, sign in cols:
                n, d = cv.get(col, _NONBASIC)
                num, den = num * d + sign * n * den, den * d
            out[name] = Fraction(num, den)
        return out

    def objective_value(self, costs: Mapping[str, int], scale: int, negate: bool) -> Fraction:
        """The optimal value of the integer costs (the objective times `scale`)
        that `phase2` priced, read off the final z row, with no point.

        zden * (column objective) = sum of zc_j * x_j - zrhs, and every basic
        zc_j and nonbasic x_j is 0, so the columns contribute -zrhs/zden
        (+zrhs/zden for a max, whose column costs were negated); the offsets
        contribute sum of cost * offset.
        """
        shift = 0
        for name, c in costs.items():
            offset = self.var_cols[name][0]
            if offset:
                shift += c * offset
        z = self.zrhs if negate else -self.zrhs
        if type(shift) is int:
            return Fraction(shift * self.zden + z, self.zden * scale)
        return Fraction(shift.numerator * self.zden + z * shift.denominator,
                        shift.denominator * self.zden * scale)

    def column_objective(self, costs: Mapping[str, int], negate: bool) -> dict:
        """Integer column costs of integer costs by name, negated for a max."""
        col_obj = {}
        var_cols = self.var_cols
        for name, c in costs.items():
            if negate:
                c = -c
            for col, sign in var_cols[name][1]:
                col_obj[col] = col_obj.get(col, 0) + sign * c
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


def solve_lp(system: LinearSystem, objective, sense: str = "min",
             start: Optional[LpResult] = None,
             fix: Optional[Mapping[str, int]] = None) -> LpResult:
    """Minimize (or maximize) a linear objective over a LinearSystem, exactly.

    `objective` may be an Objective (over x1..xn), a mapping from variable
    names to rationals, or a sequence aligned with the original variables
    (a list or tuple of plain ints is used as is, with no rational parsing).
    Returns an optimal basic solution, `infeasible`, or `unbounded`; results
    are deterministic for identical inputs.  Phase 1 runs on the first call
    on a system object; every call after the first on the same object
    restarts phase 2 from the post-phase-1 basis kept on it, so each answer
    equals a cold solve's.  That state is freed with the system, and
    `with_bounds`/`with_meta` children do not inherit it.

    `fix`, a mapping from variable names to ints, answers for the system
    with those variables fixed: the same answer, pivots included, as a cold
    solve of `system.with_bounds({name: (v, v)})`, from a tableau derived
    from the kept one (`_Simplex.fixed`) with a phase 1 of its own.  An
    undeclared name, a value that is not an int (bools, floats, Fractions
    and strings are refused) or `fix` together with `start` raises
    DomainError; a start result carries its own fixings.

    `start`, an earlier optimal result of this same system object, makes
    phase 2 start from that result's optimal basis instead.  The status and
    the value then still equal the cold ones, but the point may be another
    optimum.  A `start` of another system, or one that is not optimal,
    raises DomainError.
    """
    if sense not in ("min", "max"):
        raise DomainError(f"sense must be 'min' or 'max', got {sense!r}")
    if not system.variables:
        raise DomainError("system has no variables")
    if fix:
        if start is not None:
            raise DomainError("fix cannot be combined with start: "
                              "a start result carries its own fixings")
        for name, v in fix.items():
            if name not in system.variables:
                raise DomainError(f"fix references undeclared variable {name!r}")
            if type(v) is not int:
                raise DomainError(f"fix value {v!r} of {name} is not an int")
    scale, costs = _costs(system, objective)
    if start is None:
        base = _after_phase1(system)
        if base is None:
            return _INFEASIBLE  # so is every restriction of it
        if fix:
            solver = base.fixed(fix)
            if not solver.phase1():
                return _INFEASIBLE
        else:
            solver = base.restart()
    elif start._tableau is None or start._tableau[0] is not system:
        raise DomainError("start must be an optimal result of this same system")
    else:
        solver = start._tableau[1].restart()
    negate = sense == "max"
    if solver.phase2(solver.column_objective(costs, negate)) == UNBOUNDED:
        return _UNBOUNDED
    return LpResult(OPTIMAL, _tableau=(system, solver), _objective=(costs, scale, negate))
