import copy
import gc
import itertools
import random
import sys
import threading
import weakref
from fractions import Fraction
from math import ceil, floor, gcd, lcm

import pytest

from fvx import (
    BinaryPoint,
    HPolytope,
    LinearSystem,
    LpResult,
    Objective,
    exactlp,
    interval_formulation,
    solve_lp,
)
from fvx.errors import DomainError
from conftest import phase_pivots


def vertices_by_basis_enumeration(system):
    """Independent oracle: enumerate basic feasible points of a bounded system.

    Converts rows and finite bounds to a list of halfspace/equality rows over
    the variables, solves every n x n subsystem exactly, and keeps solutions
    satisfying everything.  Exponential; test sizes only.
    """
    names = list(system.variables)
    idx = {v: i for i, v in enumerate(names)}
    n = len(names)
    rows = []
    for coeffs, rel, rhs in system.rows:
        vec = [Fraction(coeffs.get(v, 0)) for v in names]
        rows.append((vec, rel, Fraction(rhs)))
    for v in names:
        lo, hi = system.bound(v)
        e = [Fraction(1) if u == v else Fraction(0) for u in names]
        if lo is not None:
            rows.append((e, ">=", lo))
        if hi is not None:
            rows.append((e, "<=", hi))

    def solve_square(subset):
        mat = [list(rows[i][0]) + [rows[i][2]] for i in subset]
        for col in range(n):
            piv = next((r for r in range(col, n) if mat[r][col]), None)
            if piv is None:
                return None
            mat[col], mat[piv] = mat[piv], mat[col]
            inv = Fraction(1) / mat[col][col]
            mat[col] = [v * inv for v in mat[col]]
            for r in range(n):
                if r != col and mat[r][col]:
                    f = mat[r][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
        return tuple(mat[r][n] for r in range(n))

    seen = set()
    for subset in itertools.combinations(range(len(rows)), n):
        point = solve_square(subset)
        if point is None or point in seen:
            continue
        ok = True
        for vec, rel, rhs in rows:
            lhs = sum(a * x for a, x in zip(vec, point))
            if rel == "<=" and lhs > rhs:
                ok = False
            elif rel == ">=" and lhs < rhs:
                ok = False
            elif rel == "=" and lhs != rhs:
                ok = False
            if not ok:
                break
        if ok:
            seen.add(point)
    return sorted(seen)


def random_bounded_system(rng, n):
    """A random box plus a few extra integer rows (always bounded)."""
    bounds = {}
    for i in range(n):
        lo = rng.randint(-3, 1)
        bounds[f"x{i + 1}"] = (Fraction(lo), Fraction(lo + rng.randint(1, 4)))
    rows = []
    for _ in range(rng.randint(0, 3)):
        coeffs = {f"x{i + 1}": rng.randint(-3, 3) for i in range(n)}
        coeffs = {k: v for k, v in coeffs.items() if v}
        if not coeffs:
            continue
        rows.append((coeffs, rng.choice(["<=", ">="]), rng.randint(-4, 6)))
    return LinearSystem.build(n, (), rows, bounds)


class TestBasics:
    def test_trivial_examples(self):
        s = LinearSystem.build(1, rows=[({"x1": 1}, ">=", 3)])
        r = solve_lp(s, [1])
        assert r.is_optimal and r.value == 3

        s = LinearSystem.build(1, rows=[({"x1": 1}, ">=", 1), ({"x1": 1}, "<=", 0)])
        assert solve_lp(s, [1]).is_infeasible

        s = LinearSystem.build(1, bounds={"x1": (0, None)})
        assert solve_lp(s, [1], sense="max").is_unbounded

    def test_exactness_with_rationals(self):
        s = LinearSystem.build(2, rows=[({"x1": 3, "x2": 7}, "<=", 1)],
                               bounds={"x1": (0, None), "x2": (0, None)})
        r = solve_lp(s, ["-1", "-1"], sense="min")
        assert r.value == Fraction(-1, 3)

    def test_objective_forms(self):
        s = LinearSystem.build(2, bounds={"x1": (0, 1), "x2": (0, 1)})
        assert solve_lp(s, {"x2": "1/2"}, sense="max").value == Fraction(1, 2)
        with pytest.raises(DomainError):
            solve_lp(s, {"zz": 1})
        with pytest.raises(DomainError):
            solve_lp(s, [1])
        with pytest.raises(DomainError):
            solve_lp(s, [1, 1], sense="best")
        assert solve_lp(s, Objective.of([1, "-1/2"])).value == Fraction(-1, 2)
        with pytest.raises(DomainError, match="3 terms, expected 2"):
            solve_lp(s, Objective.of([1, 1, 1]))

    def test_int_objectives_are_the_costs(self, monkeypatch):
        s = LinearSystem.build(2, rows=[({"x1": 1, "x2": 2}, "<=", 3)],
                               bounds={"x1": ("-1/2", 1), "x2": (0, None)})
        expect = [repr(solve_lp(s, [Fraction(3), Fraction(-2)], sense)) for sense in ("min", "max")]

        def refuse(value):
            raise AssertionError(f"parsed {value!r}")

        monkeypatch.setattr(exactlp, "parse_rational", refuse)
        for c in ([3, -2], (3, -2)):
            assert [repr(solve_lp(s, c, sense)) for sense in ("min", "max")] == expect
        monkeypatch.undo()
        # bools, floats and wrong lengths keep the parsed path's errors
        for c, message in (([True, 1], "refusing boolean"), ([1, 1.0], "refusing float"),
                           ([1, 2, 3], "objective has 3 terms, expected 2"),
                           ((1,), "objective has 1 terms, expected 2")):
            with pytest.raises(DomainError, match=message):
                solve_lp(s, c)

    def test_equality_rows(self):
        s = LinearSystem.build(2, rows=[({"x1": 1, "x2": 1}, "=", 1)],
                               bounds={"x1": (0, 1), "x2": (0, 1)})
        assert solve_lp(s, [1, 2]).value == 1
        assert solve_lp(s, [1, 2], sense="max").value == 2

    def test_drive_out_takes_the_lowest_column(self):
        # -x1 - x3 = 0 over x >= 0: phase 1 is optimal at once with its artificial
        # basic at zero, and the artificial leaves for its row's lowest column
        s = LinearSystem.build(3, rows=[({"x1": -1, "x3": -1}, "=", 0)],
                               bounds={name: (0, None) for name in ("x1", "x2", "x3")})
        assert solve_lp(s, [1, 1, 1]).value == 0
        assert s._phase1.basis == [0]

    def test_crossing_bounds_infeasible(self):
        s = LinearSystem.build(1, bounds={"x1": (1, 0)})
        assert solve_lp(s, [1]).is_infeasible


def pinned(system, fixings):
    """The system with each named variable fixed to its value."""
    return system.with_bounds({name: (Fraction(v), Fraction(v)) for name, v in fixings.items()})


class TestFeasibleWithFixings:
    """Feasibility is a zero-objective solve_lp, on a pinned child for a point."""

    def test_formulation_membership(self):
        system = interval_formulation([BinaryPoint.from_string("00")], 2)
        assert not solve_lp(pinned(system, {"x1": 0, "x2": 0}), {}).is_optimal
        assert solve_lp(pinned(system, {"x1": 1, "x2": 1}), {}).is_optimal
        assert solve_lp(system, {}).is_optimal

    def test_fixing_validation(self):
        s = LinearSystem.build(1, bounds={"x1": (0, 1)})
        with pytest.raises(DomainError, match="undeclared variable 'y'"):
            solve_lp(pinned(s, {"y": 1}), {})

    def test_zero_objective_matches_cold_phase1(self):
        rng = random.Random(43)
        makers = (random_bounded_system, infeasible_system, unbounded_system)
        seen = set()
        for _ in range(60):
            maker = rng.choice(makers)
            system = maker(rng, rng.randint(1, 4))
            child = pinned(system, {"x1": rng.randint(-3, 3)})
            for s in (system, child):
                feasible = exactlp._Simplex(s).phase1()  # cold reference
                got = solve_lp(s, {})
                assert got.is_optimal == feasible and got.is_infeasible == (not feasible)
                if feasible:
                    assert got.value == 0 and satisfies(s, got.point)
                seen.add((maker.__name__, s is child, feasible))
            if maker is unbounded_system:
                # feasible and unbounded below in x1, yet the zero objective is optimal
                assert solve_lp(system, {"x1": 1}).is_unbounded
                assert solve_lp(system, {}).is_optimal
        assert {("random_bounded_system", False, True), ("infeasible_system", False, False),
                ("unbounded_system", False, True), ("random_bounded_system", True, True),
                ("random_bounded_system", True, False)} <= seen


def satisfies(system, point):
    """Does the point meet every row and bound of the system?"""
    for coeffs, rel, rhs in system.rows:
        lhs = sum(a * point[name] for name, a in coeffs.items())
        if (rel == "<=" and lhs > rhs) or (rel == ">=" and lhs < rhs) \
                or (rel == "=" and lhs != rhs):
            return False
    return all((lo is None or lo <= point[v]) and (hi is None or point[v] <= hi)
               for v in system.variables for lo, hi in [system.bound(v)])


class TestAgainstVertexEnumeration:
    def test_random_lps_match(self):
        rng = random.Random(23)
        done = 0
        while done < 60:
            n = rng.randint(1, 4)
            system = random_bounded_system(rng, n)
            vertices = vertices_by_basis_enumeration(system)
            c = [rng.randint(-9, 9) for _ in range(n)]
            result = solve_lp(system, c)
            if not vertices:
                assert result.is_infeasible
            else:
                expect = min(sum(ci * vi for ci, vi in zip(c, p)) for p in vertices)
                assert result.is_optimal and result.value == expect
            done += 1

    def test_determinism_bitwise(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(1, 4)
            system = random_bounded_system(rng, n)
            c = [rng.randint(-9, 9) for _ in range(n)]
            first = solve_lp(system, c)
            second = solve_lp(system, c)
            assert repr(first) == repr(second)


def int_scaled(terms):
    """The terms by name times the lcm of their denominators, as ints."""
    return dict(zip(terms, exactlp._scale(terms.values())[1]))


def cold_solve(system, objective, sense="min"):
    """Reference: a fresh tableau, phase 1, then phase 2, as before any reuse."""
    obj_map = exactlp._objective_map(system, objective)
    solver = exactlp._Simplex(system)
    if not solver.phase1():
        return LpResult("infeasible", None, None)
    costs = int_scaled(obj_map)
    status = solver.phase2(solver.column_objective(costs, negate=(sense == "max")))
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    point = solver.point()
    value = sum((c * point[name] for name, c in obj_map.items()), start=Fraction(0))
    return LpResult("optimal", point, value)


def infeasible_system(rng, n):
    base = random_bounded_system(rng, n)
    rows = base.rows + (({"x1": 1}, ">=", 5), ({"x1": 1}, "<=", 4))
    return LinearSystem(base.variables, n, rows, base.bounds)


def unbounded_system(rng, n):
    """x1 free below; the other coordinates boxed, plus one coupling row."""
    bounds = {f"x{i + 1}": (Fraction(rng.randint(-2, 0)), Fraction(rng.randint(1, 3)))
              for i in range(1, n)}
    rows = [({"x1": 1, f"x{n}": rng.randint(1, 3)}, "<=", rng.randint(0, 5))] if n > 1 else []
    return LinearSystem.build(n, (), rows, bounds)


class TestPhaseOneReuse:
    """Every solve_lp answer equals a cold solve's, point included."""

    def test_sequences_match_cold_solves(self):
        rng = random.Random(31)
        makers = [random_bounded_system, random_bounded_system, infeasible_system,
                  unbounded_system]
        statuses = set()
        for _ in range(40):
            n = rng.randint(1, 4)
            first = rng.choice(makers)(rng, n)
            m = rng.randint(1, 4)
            second = rng.choice(makers)(rng, m)
            objectives = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(3)]
            # min and max of each objective, the objectives again, with solves
            # of the second system in between
            calls = [(first, c, sense) for c in objectives for sense in ("min", "max")]
            calls += [(first, c, "min") for c in objectives]
            rng.shuffle(calls)
            for i in sorted(rng.sample(range(len(calls) + 1), 3), reverse=True):
                c = [rng.randint(-9, 9) for _ in range(m)]
                calls.insert(i, (second, c, rng.choice(("min", "max"))))
            for system, c, sense in calls:
                got = solve_lp(system, c, sense)
                assert repr(got) == repr(cold_solve(system, c, sense))
                statuses.add(got.status)
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_phase1_runs_once_per_system(self, monkeypatch):
        runs = []
        original = exactlp._Simplex.phase1

        def counting(self):
            runs.append(self)
            return original(self)

        monkeypatch.setattr(exactlp._Simplex, "phase1", counting)
        rng = random.Random(37)
        a, b = random_bounded_system(rng, 3), random_bounded_system(rng, 3)
        for c in ([1, 0, 0], [0, -1, 2], [1, 0, 0]):
            solve_lp(a, c)
            solve_lp(a, c, sense="max")
        assert len(runs) == 1
        solve_lp(b, [1, 1, 1])
        solve_lp(a, [1, 1, 1])
        assert len(runs) == 2

    def test_saved_tableau_is_never_mutated(self):
        system = interval_formulation([BinaryPoint.from_string(s) for s in ("000", "101")], 3)
        cold = exactlp._Simplex(system)
        assert cold.phase1()
        solve_lp(system, [1, 1, 1])
        saved = system._phase1
        rows, basis = saved.rows, saved.basis
        assert rows == cold.rows and basis == cold.basis
        objects = list(rows)
        snapshot = copy.deepcopy(rows)
        rng = random.Random(41)
        for _ in range(20):
            solve_lp(system, [rng.randint(-5, 5) for _ in range(3)], rng.choice(("min", "max")))
        assert system._phase1 is saved
        assert all(x is y for x, y in zip(rows, objects)) and len(rows) == len(objects)
        assert rows == snapshot and basis == cold.basis

    def test_state_is_freed_with_its_system(self):
        # the saved solver holds no reference back to its system, so reference
        # counting frees both with the cycle collector off
        enabled = gc.isenabled()
        gc.disable()
        try:
            system = random_bounded_system(random.Random(43), 2)
            solve_lp(system, [1, 1])
            refs = [weakref.ref(system), weakref.ref(system._phase1)]
            del system
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_threads_get_cold_answers(self):
        # systems are shared by every thread; two first calls on one system
        # may both run phase 1, but no caller may get another system's tableau
        rng = random.Random(47)
        systems = [random_bounded_system(rng, 3) for _ in range(6)]
        jobs = [(system, [rng.randint(-9, 9) for _ in range(3)], rng.choice(("min", "max")))
                for system in systems for _ in range(5)]
        expect = [repr(cold_solve(*job)) for job in jobs]
        wrong = []

        def worker(seed):
            for i in random.Random(seed).sample(range(len(jobs)), len(jobs)):
                if repr(solve_lp(*jobs[i])) != expect[i]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestWarmStart:
    """`start` may change the point and the pivots, never the status or the value."""

    def test_warm_answers_match_cold(self):
        rng = random.Random(59)
        statuses = set()
        warm = moved = 0
        for _ in range(30):
            n = rng.randint(1, 4)
            system = rng.choice((random_bounded_system, unbounded_system))(rng, n)
            starts = []  # every earlier optimal result of this system object
            for _ in range(6):
                c = [rng.randint(-9, 9) for _ in range(n)]
                sense = rng.choice(("min", "max"))
                cold = cold_solve(system, c, sense)
                got = None
                for start in [None, *starts]:
                    got = solve_lp(system, c, sense, start=start)
                    assert (got.status, got.value) == (cold.status, cold.value)
                    if got.is_optimal:
                        assert satisfies(system, got.point)
                    warm += start is not None
                    moved += got.point != cold.point
                statuses.add(got.status)
                if got.is_optimal:  # the last warm result starts later calls too
                    starts.append(got)
                    first = solve_lp(system, c, sense)
                    if first.is_optimal:
                        starts.append(first)
        assert statuses == {"optimal", "infeasible", "unbounded"}
        assert warm > 400 and moved > 0

    def test_start_from_the_same_objective_makes_no_pivot(self, monkeypatch):
        system = interval_formulation([BinaryPoint.from_string(s) for s in ("000", "101")], 3)
        pivots = []
        original = exactlp._Simplex._pivot

        def counting(self, r, s):
            pivots.append(r)
            return original(self, r, s)

        monkeypatch.setattr(exactlp._Simplex, "_pivot", counting)
        solve_lp(system, {})  # phase 1
        del pivots[:]
        first = solve_lp(system, [3, -2, 1])
        assert first.is_optimal and pivots
        del pivots[:]
        again = solve_lp(system, [3, -2, 1], start=first)
        assert pivots == [] and again == first

    def test_start_of_another_system_refused(self):
        rng = random.Random(61)
        system = random_bounded_system(rng, 2)
        start = solve_lp(system, [1, 1])
        assert start.is_optimal
        twin = LinearSystem(system.variables, 2, system.rows, system.bounds)
        assert twin == system  # equal, but another object
        for other in (twin, system.with_bounds({}), system.with_meta({})):
            with pytest.raises(DomainError, match="same system"):
                solve_lp(other, [1, 1], start=start)
        bare = LpResult(start.status, start.point, start.value)  # no tableau
        assert bare == start and repr(bare) == repr(start)
        with pytest.raises(DomainError, match="same system"):
            solve_lp(system, [1, 1], start=bare)
        free = unbounded_system(rng, 2)
        with pytest.raises(DomainError, match="same system"):
            solve_lp(free, [1, 0], start=solve_lp(free, [1, 0]))  # unbounded


class TestDerivedSystems:
    """Children made by with_bounds or with_meta start without a tableau."""

    def test_children_of_a_solved_system_get_cold_answers(self):
        rng = random.Random(53)
        zero = Fraction(0)
        changed = 0
        for _ in range(40):
            n = rng.randint(1, 4)
            parent = random_bounded_system(rng, n)
            c = [rng.randint(-9, 9) for _ in range(n)]
            sense = rng.choice(("min", "max"))
            first = solve_lp(parent, c, sense)
            for child in (parent.with_bounds({"x1": (zero, zero)}),
                          parent.with_meta({"method": "child"})):
                assert "_phase1" not in vars(child)
                got = solve_lp(child, c, sense)
                assert repr(got) == repr(cold_solve(child, c, sense))
                changed += repr(got) != repr(first)
            assert repr(solve_lp(parent, c, sense)) == repr(first)
        assert changed > 10  # pinning x1 must change many answers to test anything


class FractionSimplex(exactlp._Simplex):
    """Reference: the tableau built and priced over Fractions, then scaled.

    Bounds, shifted right-hand sides and phase-2 costs are Fractions here;
    each row is scaled by its rhs denominator and the z row by the lcm of all
    its denominators.  Pivoting is inherited, and so is the constructor, so
    both builds read the same folded (bounds, rows) of the system; so is
    phase 1, which then prices its artificials with the phase 2 here.
    """

    def _build_columns(self, bounds):
        ncol = 0
        self.bound_rows = []
        for name in self.variables:
            lo, hi = bounds.get(name, (None, None))
            lo = None if lo is None else Fraction(lo)
            hi = None if hi is None else Fraction(hi)
            if lo is not None and hi is not None and hi <= lo:
                self.trivially_infeasible |= hi < lo
                self.var_cols[name] = (lo, ())
                continue
            if lo is not None:
                self.var_cols[name] = (lo, ((ncol, 1),))
                if hi is not None:
                    self.bound_rows.append((ncol, hi - lo))
            elif hi is not None:
                self.var_cols[name] = (hi, ((ncol, -1),))
            else:
                self.var_cols[name] = (Fraction(0), ((ncol, 1), (ncol + 1, -1)))
            ncol += len(self.var_cols[name][1])
        self.nstruct = ncol

    def _build_rows(self, rows):
        pending = []
        for coeffs, rel, rhs in rows:
            cols, b = {}, Fraction(rhs)
            for name, a in coeffs.items():
                offset, terms = self.var_cols[name]
                b -= a * offset
                for col, sign in terms:
                    cols[col] = cols.get(col, 0) + sign * a
            cols = {c: v for c, v in cols.items() if v}
            if cols:
                pending.append((cols, rel, b))
            elif not (b >= 0 if rel == "<=" else b <= 0 if rel == ">=" else b == 0):
                self.trivially_infeasible = True
        for col, limit in self.bound_rows:
            if limit < 0:
                self.trivially_infeasible = True
            else:
                pending.append(({col: 1}, "<=", Fraction(limit)))
        slack = self.nstruct
        art = self.art_start = slack + sum(1 for _, rel, _ in pending if rel != "=")
        for cols, rel, b in pending:
            den = b.denominator
            cols, bi = {c: v * den for c, v in cols.items()}, int(b * den)
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

    def column_objective(self, obj_map, negate):
        col_obj = {}
        for name, c in obj_map.items():
            c = -c if negate else c
            for col, sign in self.var_cols[name][1]:
                col_obj[col] = col_obj.get(col, 0) + sign * c
        return {c: Fraction(v) for c, v in col_obj.items() if v}

    def phase2(self, col_obj):
        z = dict(col_obj)
        obj = Fraction(0)
        for (cols, rhs, den), b in zip(self.rows, self.basis):
            cb = col_obj.get(b)
            if cb:
                obj += cb * Fraction(rhs, den)
                for j, num in cols.items():
                    z[j] = z.get(j, 0) - cb * Fraction(num, den)
        zden = obj.denominator
        for v in z.values():
            zden = zden * v.denominator // gcd(zden, v.denominator)
        self.zc = {j: int(v * zden) for j, v in z.items() if v}
        self.zrhs, self.zden = int(-obj * zden), zden
        return self._bland()

    def point(self):
        cv = {b: Fraction(rhs, den) for (_, rhs, den), b in zip(self.rows, self.basis)}
        return {name: offset + sum(sign * cv.get(col, 0) for col, sign in cols)
                for name, (offset, cols) in self.var_cols.items()}


def mixed_system(rng):
    """A small system with every kind of variable, bound and row.

    Variables are free, one-sided, boxed, fixed or (rarely) crossed; bounds
    and row coefficients are integral or not; rows are <=, = or >= with a
    right-hand side of either sign.
    """
    n, m = rng.randint(1, 4), rng.randint(0, 2)
    aux = [f"y{j + 1}" for j in range(m)]
    names = [f"x{i + 1}" for i in range(n)] + aux

    def value():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

    bounds = {}
    for name in names:
        kind = rng.choice(("free", "lower", "upper", "box", "box", "fixed", "crossed"))
        lo, hi = value(), value()
        if kind == "crossed" and rng.random() < 0.5:
            kind = "box"
        if kind in ("box", "crossed"):
            lo, hi = sorted((lo, hi), reverse=(kind == "crossed"))
            if kind == "box" and lo == hi:
                hi += 1
        bounds[name] = {"free": (None, None), "lower": (lo, None), "upper": (None, hi),
                        "box": (lo, hi), "fixed": (lo, lo), "crossed": (lo, hi)}[kind]
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {name: value() if rng.random() < 0.2 else rng.randint(-3, 3)
                  for name in rng.sample(names, rng.randint(1, len(names)))}
        rows.append((coeffs, rng.choice(("<=", "=", ">=")), value()))
    return LinearSystem.build(n, aux, rows, bounds)


class TestIntegerBuild:
    """The integer tableau build and z row equal a Fraction reference build."""

    def test_build_and_points_match_the_fraction_reference(self):
        rng = random.Random(53)
        seen = set()
        for _ in range(400):
            system = mixed_system(rng)
            got, ref = exactlp._Simplex(system), FractionSimplex(system)
            for name in system.variables:
                assert got.var_cols[name] == ref.var_cols[name]
                offset = got.var_cols[name][0]
                if offset.denominator == 1:
                    assert type(offset) is int
            assert got.rows == ref.rows
            assert all(type(v) is int for cols, rhs, den in got.rows
                       for v in (*cols.values(), rhs, den))
            assert (got.basis, got.art_start, got.ncols, got.bound_rows) == \
                (ref.basis, ref.art_start, ref.ncols, ref.bound_rows)
            feasible = got.phase1()
            assert feasible == ref.phase1()
            assert (got.rows, got.basis) == (ref.rows, ref.basis)
            if not feasible:
                seen.add("infeasible")
                continue
            saved_got, saved_ref = got, ref
            for _ in range(3):
                c = {name: value for name in system.variables
                     if (value := Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 6))))}
                negate = rng.random() < 0.5
                got, ref = saved_got.restart(), saved_ref.restart()
                status = got.phase2(got.column_objective(int_scaled(c), negate))
                assert status == ref.phase2(ref.column_objective(c, negate))
                seen.add(status)
                if status == "optimal":
                    assert repr(got.point()) == repr(ref.point())
        assert seen == {"optimal", "unbounded", "infeasible"}

    def test_rows_are_scaled_by_the_lcm_of_their_denominators(self):
        # the reference multiplies each Fraction row by the lcm of its
        # denominators, so the scaling is minimal; LP bytes depend on it
        rng = random.Random(61)
        seen = set()

        def value():
            return Fraction(rng.choice((0, rng.randint(-9, 9))), rng.choice((1, 2, 3, 4, 6, 7)))

        for _ in range(300):
            n = rng.randint(1, 5)
            names = [f"x{i + 1}" for i in range(n)]
            dense = [([value() for _ in names], rng.choice(("<=", "=", ">=")), value())
                     for _ in range(rng.randint(1, 4))]
            rows, expect = [], []
            for a, rel, b in dense:
                scale = lcm(*(q.denominator for q in (*a, b)))
                expect.append(({name: (q * scale).numerator for name, q in zip(names, a) if q},
                               rel, (b * scale).numerator))
                # as a library caller may give them: Fractions, "p/q" strings and ints
                given = [rng.choice((q, str(q), int(q) if q.denominator == 1 else q)) for q in a]
                rows.append((dict(zip(names, given)), rel, rng.choice((b, str(b)))))
                seen.update((rel, "zero rhs" if b == 0 else "rhs", scale > 1))
            system = LinearSystem.build(n, (), rows, meta={"method": "hrep"})
            assert list(system.rows) == expect
            assert all(type(v) is int for coeffs, _, rhs in system.rows
                       for v in (*coeffs.values(), rhs))
            assert LinearSystem.from_hpolytope(HPolytope(n, tuple(dense))) == system
        assert seen == {"<=", "=", ">=", "zero rhs", "rhs", True, False}

    def test_objective_value_is_exact(self):
        system = LinearSystem.build(2, bounds={"x1": ("1/3", "1/3"), "x2": (0, "5/2")})
        r = solve_lp(system, ["3/2", "-2/7"])
        assert r.value == Fraction(3, 2) * Fraction(1, 3) - Fraction(2, 7) * Fraction(5, 2)
        assert type(r.value) is Fraction and all(type(v) is Fraction for v in r.point.values())


class TestWithBounds:
    def test_child_shares_validated_rows(self, monkeypatch):
        parent = LinearSystem.build(2, ("y1",), [({"x1": 1, "y1": 2}, "<=", 3)],
                                    {"x2": (0, 1)}, {"method": "m"})
        checks = []
        original = LinearSystem.__post_init__
        monkeypatch.setattr(LinearSystem, "__post_init__",
                            lambda self: (checks.append(self), original(self)))
        child = parent.with_bounds({"x1": (Fraction(1), None), "x2": (None, Fraction(1, 2))})
        assert checks == []  # the rows were validated when the parent was built
        assert child.rows is parent.rows and child.variables is parent.variables
        assert child.bounds == {"x1": (1, None), "x2": (0, Fraction(1, 2))}
        assert parent.bounds == {"x2": (0, 1)}
        assert child.meta == parent.meta and child.with_meta({}).meta == {}
        with pytest.raises(DomainError, match="undeclared variable 'z'"):
            parent.with_bounds({"z": (0, 0)})
        assert solve_lp(child, [1, -1]).value == Fraction(1) - Fraction(1, 2)


class TestFold:
    """One-variable rows become bounds in the tableau, never in the system."""

    def test_singleton_rows_become_bounds(self):
        rows = [({"x1": -2}, "<=", 3),           # x1 >= -3/2: the sense flips
                ({"x2": 3}, "=", 2),             # x2 fixed to 2/3
                ({"x1": 1, "x2": 1}, "<=", 4),
                ({"x1": 4}, "<=", 6)]            # x1 <= 3/2, under the bound 5
        system = LinearSystem.build(2, (), rows, {"x1": (None, 5)})
        bounds, kept = exactlp._folded(system)
        assert bounds == {"x1": (Fraction(-3, 2), Fraction(3, 2)),
                          "x2": (Fraction(2, 3), Fraction(2, 3))}
        assert kept == (({"x1": 1, "x2": 1}, "<=", 4),)
        assert len(system.rows) == 4 and system.bounds == {"x1": (None, 5)}
        assert system.counted_inequalities() == 4
        assert solve_lp(system, ["-1", "3"]).value == Fraction(-3, 2) + 2
        assert solve_lp(system, ["-1", "3"], sense="max").value == Fraction(3, 2) + 2

    @pytest.mark.parametrize("rows, bounds", [
        ([({"x1": 1}, ">=", 2)], {"x1": (0, 1)}),                  # crosses a bound
        ([({"x1": -1}, ">=", -1), ({"x1": 1}, ">=", 2)], {}),      # crosses another row
        ([({"x1": 2}, "=", 3)], {"x1": (0, 1)}),                   # = outside the box
    ], ids=["bound", "row", "equality"])
    def test_crossing_singletons_are_infeasible(self, rows, bounds):
        system = LinearSystem.build(2, (), rows + [({"x1": 1, "x2": 1}, "<=", 9)], bounds)
        lo, hi = exactlp._folded(system)[0]["x1"]
        assert hi < lo
        assert solve_lp(system, {}).is_infeasible
        assert solve_lp(system.with_bounds({"x2": (Fraction(0), None)}), {}).is_infeasible

    def test_zero_coefficient_row_is_kept(self):
        system = LinearSystem(("x1",), 1, (({"x1": 0}, "<=", -1),), {})
        assert exactlp._folded(system) == ({}, system.rows)
        assert solve_lp(system, {}).is_infeasible

    def test_child_crossing_a_folded_bound(self):
        parent = LinearSystem.build(1, (), [({"x1": 1}, "<=", 1)])
        child = parent.with_bounds({"x1": (Fraction(2), None)})
        assert child.bounds == {"x1": (2, None)} and exactlp._folded(child)[0] == {"x1": (2, 1)}
        assert solve_lp(child, {}).is_infeasible

    def test_children_solve_as_a_fresh_system(self):
        rng = random.Random(67)

        def bound():
            return tuple(None if rng.random() < 0.4
                         else Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(2))

        statuses, folds = set(), 0
        for _ in range(300):
            system = mixed_system(rng)
            folds += len(exactlp._folded(system)[1]) < len(system.rows)
            for _ in range(2):  # a child, then a grandchild
                names = rng.sample(system.variables, rng.randint(0, len(system.variables)))
                system = system.with_bounds({name: bound() for name in names})
                fresh = LinearSystem(system.variables, system.n_original, system.rows,
                                     system.bounds)
                assert exactlp._folded(system) == exactlp._folded(fresh)
                c = {name: rng.randint(-5, 5) for name in system.variables}
                got = solve_lp(system, c)
                assert repr(got) == repr(solve_lp(fresh, c))
                statuses.add(got.status)
        assert statuses == {"optimal", "infeasible", "unbounded"} and folds > 50


def fix_value(rng, system, name):
    """An int inside, on or outside the folded bounds of a variable."""
    lo, hi = exactlp._folded(system)[0].get(name, (None, None))
    q = rng.choice([b for b in (lo, hi) if b is not None] or [Fraction(rng.randint(-3, 3))])
    return rng.choice((floor(q) - 1, floor(q), ceil(q), ceil(q) + 1))


class TestFix:
    """`fix` answers exactly as a cold solve of the `with_bounds` child."""

    def test_matches_with_bounds_children(self, monkeypatch):
        rng = random.Random(71)
        pivots = phase_pivots(monkeypatch)
        seen = set()
        for _ in range(300):
            system = mixed_system(rng)
            names = system.variables
            k = len(names) if rng.random() < 0.25 else rng.randint(1, len(names))
            fix = {name: fix_value(rng, system, name) for name in rng.sample(names, k)}
            pins = {name: (Fraction(v), Fraction(v)) for name, v in fix.items()}
            n = system.n_original
            objectives = [{name: rng.randint(-5, 5) for name in names},
                          Objective.of([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                                        for _ in range(n)])]
            base_feasible = solve_lp(system, {}).is_optimal  # the kept phase 1 runs here
            for c in objectives:
                sense = rng.choice(("min", "max"))
                before = dict(pivots)
                got = solve_lp(system, c, sense, fix=fix)
                used = {p: pivots[p] - before[p] for p in pivots}
                child = system.with_bounds(pins)  # a cold phase 1 for each objective
                before = dict(pivots)
                expect = solve_lp(child, c, sense)
                cold = {p: pivots[p] - before[p] for p in pivots}
                assert (got.status, got.point, got.value) == \
                    (expect.status, expect.point, expect.value)
                if base_feasible:
                    assert used == cold
                seen.add((got.status, k == len(names)))
                if not got.is_optimal:
                    continue
                again = objectives[0]
                before = dict(pivots)
                warm = solve_lp(system, again, start=got)
                used = {p: pivots[p] - before[p] for p in pivots}
                before = dict(pivots)
                warm_child = solve_lp(child, again, start=expect)
                assert used == {p: pivots[p] - before[p] for p in pivots}
                assert repr(warm) == repr(warm_child)
        assert {("optimal", False), ("infeasible", False), ("unbounded", False),
                ("optimal", True), ("infeasible", True)} <= seen

    def test_fix_kinds_are_covered(self):
        # free, lower-only, upper-only, boxed, fixed and fractional bounds, each
        # fixed inside, on and outside its bounds
        system = LinearSystem.build(
            3, ("y1", "y2", "y3"),
            [({"x1": 1, "x2": 1, "x3": 1, "y1": 1, "y2": 1, "y3": 1}, "<=", 9),
             ({"x1": 1, "y3": -1}, ">=", "-5/2")],
            {"x2": (0, None), "x3": (None, 2), "y1": ("1/2", "7/2"), "y2": (1, 1),
             "y3": (-2, 3)})
        c = {"x1": 1, "x2": -1, "x3": 2, "y1": -3, "y2": 1, "y3": 1}
        statuses = set()
        for fix in ({"x1": -4}, {"x2": 0}, {"x2": -1}, {"x3": 2}, {"x3": 3},
                    {"y1": 1}, {"y1": 0}, {"y1": 4}, {"y2": 1}, {"y2": 0},
                    {"y3": 3}, {"y3": 4}, {"x1": 0, "x2": 1, "x3": 1, "y1": 3, "y2": 1, "y3": 2},
                    {"x1": 1, "x2": 1, "x3": 2, "y1": 3, "y2": 1, "y3": 3}):
            child = system.with_bounds({k: (Fraction(v), Fraction(v)) for k, v in fix.items()})
            for sense in ("min", "max"):
                got = solve_lp(system, c, sense, fix=fix)
                assert repr(got) == repr(solve_lp(child, c, sense))
                statuses.add(got.status)
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_restriction_of_an_infeasible_system(self):
        system = LinearSystem.build(2, (), [({"x1": 1, "x2": 1}, "<=", -1)],
                                    {"x1": (0, 1), "x2": (0, 1)})
        assert solve_lp(system, {}, fix={"x1": 0}).is_infeasible
        assert system._phase1 is None

    def test_empty_fix_is_the_plain_solve(self):
        system = interval_formulation([BinaryPoint.from_string("01")], 2)
        assert repr(solve_lp(system, [1, -1], fix={})) == repr(solve_lp(system, [1, -1]))

    def test_one_tableau_build_per_system(self, monkeypatch):
        builds = []
        init = exactlp._Simplex.__init__
        monkeypatch.setattr(exactlp._Simplex, "__init__",
                            lambda self, system: builds.append(system) or init(self, system))
        system = interval_formulation([BinaryPoint.from_string(s) for s in ("000", "110")], 3)
        for v in itertools.product((0, 1), repeat=3):
            solve_lp(system, [1, 2, 3], fix=dict(zip(("x1", "x2", "x3"), v)))
        assert builds == [system]

    def test_saved_solver_is_untouched(self):
        system = interval_formulation([BinaryPoint.from_string("101")], 3)
        solve_lp(system, {})
        saved = system._phase1
        snapshot = copy.deepcopy((saved.rows, saved.basis, saved.template, saved.var_cols,
                                  saved.bound_rows))
        for v in itertools.product((0, 1), repeat=2):
            result = solve_lp(system, [1, -1, 1], fix={"x1": v[0], "x3": v[1]})
            if result.is_optimal:
                solve_lp(system, [-1, 1, 1], start=result)
        assert system._phase1 is saved
        assert (saved.rows, saved.basis, saved.template, saved.var_cols,
                saved.bound_rows) == snapshot

    @pytest.mark.parametrize("value", [True, 1.0, Fraction(1), "1"],
                             ids=["bool", "float", "Fraction", "str"])
    def test_value_must_be_an_int(self, value):
        system = LinearSystem.build(2, bounds={"x1": (0, 1), "x2": (0, 1)})
        with pytest.raises(DomainError, match="x2"):
            solve_lp(system, {}, fix={"x1": 0, "x2": value})

    def test_undeclared_name(self):
        system = LinearSystem.build(2, bounds={"x1": (0, 1), "x2": (0, 1)})
        with pytest.raises(DomainError, match="undeclared variable 'y'"):
            solve_lp(system, {}, fix={"y": 1})

    def test_fix_with_start_refused(self):
        system = LinearSystem.build(2, bounds={"x1": (0, 1), "x2": (0, 1)})
        start = solve_lp(system, [1, 1])
        with pytest.raises(DomainError, match="start"):
            solve_lp(system, [1, 1], start=start, fix={"x1": 1})

    def test_objective_of_wrong_length(self):
        system = LinearSystem.build(2, bounds={"x1": (0, 1), "x2": (0, 1)})
        for fix in (None, {"x1": 1}):
            with pytest.raises(DomainError, match="objective has 3 terms, expected 2"):
                solve_lp(system, Objective.of([1, 1, 1]), fix=fix)


class TestLazyReadout:
    """A result reads its point and value out on first access, as an eager readout would."""

    def test_readout_equals_an_eager_one(self, monkeypatch):
        reads = []
        point = exactlp._Simplex.point
        monkeypatch.setattr(exactlp._Simplex, "point", lambda self: reads.append(1) or point(self))
        rng = random.Random(73)
        for _ in range(40):
            system = mixed_system(rng)
            c = {name: rng.randint(-5, 5) for name in system.variables}
            result = solve_lp(system, c)
            if not result.is_optimal:
                continue
            expect = cold_solve(system, c)  # reads its point out eagerly
            del reads[:]
            ones = {name: 1 for name in system.variables}
            later = solve_lp(system, ones, start=result)
            assert reads == []  # neither result has been read out yet
            assert (result.point, result.value) == (expect.point, expect.value)
            assert result.point is result.point and len(reads) == 1
            if later.is_optimal:
                assert later.value == sum(later.point.values()) and len(reads) == 2

    def test_z_row_value_and_coords_match_the_point(self):
        # min and max, fix= and start=, on systems with free variables and
        # non-integral bounds; objectives by name, as an Objective and as ints
        rng = random.Random(79)
        seen = set()
        for _ in range(300):
            system = mixed_system(rng)
            names, n = system.variables, system.n_original
            ints = [rng.randint(-5, 5) for _ in range(n)]
            objectives = [
                {name: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for name in names},
                Objective.of([Fraction(rng.randint(-9, 9), rng.choice((1, 4))) for _ in range(n)]),
                ints, tuple(ints)]
            earlier = None
            for c in objectives:
                terms = dict(zip(names, c.c)) if isinstance(c, Objective) else \
                    dict(zip(names, c)) if isinstance(c, (list, tuple)) else c
                sense = rng.choice(("min", "max"))
                how = rng.choice(("cold", "fix", "start"))
                if how == "fix":
                    fix = {name: fix_value(rng, system, name)
                           for name in rng.sample(names, rng.randint(1, len(names)))}
                    result = solve_lp(system, c, sense, fix=fix)
                elif how == "start" and earlier is not None:
                    result = solve_lp(system, c, sense, start=earlier)
                else:
                    how, result = "cold", solve_lp(system, c, sense)
                if not result.is_optimal:
                    continue
                seen.add((how, sense))
                if earlier is None:
                    earlier = result
                value = result.value
                picked = rng.sample(names, rng.randint(0, len(names)))
                coords = result.coords(picked)
                assert result._point is None  # neither read out the point
                point = result.point
                assert type(value) is Fraction
                assert value == sum((q * point[name] for name, q in terms.items()),
                                    start=Fraction(0))
                assert coords == [point[name] for name in picked]
                assert result.coords(picked) == coords
        assert seen == {(how, sense) for how in ("cold", "fix", "start")
                        for sense in ("min", "max")}
