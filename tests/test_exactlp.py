import copy
import dataclasses
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
    LatticePoint,
    LinearSystem,
    LpResult,
    Objective,
    exactlp,
    interval_formulation,
    recursive_formulation,
    solve_lp,
    verify,
    write_lp,
)
from fvx.core import point_coords
from fvx.errors import DomainError
from fvx.linsys import intersect_bounds
from conftest import phase_pivots, random_forbidden


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
        assert solve_lp(s, [-1]).is_unbounded  # max x1

    def test_exactness_with_rationals(self):
        s = LinearSystem.build(2, rows=[({"x1": 3, "x2": 7}, "<=", 1)],
                               bounds={"x1": (0, None), "x2": (0, None)})
        r = solve_lp(s, [-1, -1])
        assert r.value == Fraction(-1, 3)

    def test_objective_forms(self):
        # a list or a tuple of n_original ints, the costs of x1..xn; the
        # auxiliary variable y1 takes no cost
        s = LinearSystem.build(2, ("y1",), [({"x1": 1, "y1": 1}, "=", 1)],
                               {"x1": (0, 1), "x2": (0, 1), "y1": (0, 1)})
        assert solve_lp(s, [0, -1]).value == -1
        assert repr(solve_lp(s, (-1, 2))) == repr(solve_lp(s, [-1, 2]))
        with pytest.raises(TypeError):  # a maximum is -min of the negated objective
            solve_lp(s, [1, 1], sense="max")

    @pytest.mark.parametrize("objective", [
        {}, {"x1": 1, "x2": 1}, Objective.of([1, 1]), [1, Fraction(1)], [1, Fraction(1, 2)],
        [1, "1"], [1, 1.0], [True, 1], [1], [1, 1, 1], (1,), [], (i for i in (1, 1)), 1, None,
        "11",
    ], ids=["empty-mapping", "mapping", "Objective", "Fraction", "rational", "str", "float",
            "bool", "short", "long", "short-tuple", "empty", "generator", "int", "None",
            "string"])
    def test_other_objectives_are_refused(self, objective):
        s = LinearSystem.build(2, ("y1",), [({"x1": 1, "y1": 1}, "=", 1)],
                               {"x1": (0, 1), "x2": (0, 1), "y1": (0, 1)})
        for fix in (None, {"x1": 1}):
            with pytest.raises(DomainError, match="list or tuple of 2 ints"):
                solve_lp(s, objective, fix=fix)

    def test_int_objectives_are_the_costs(self):
        # priced as given, with no scale: the value is c.x at the point, also
        # when the caller's list has changed before the value is first read
        s = LinearSystem.build(2, rows=[({"x1": 1, "x2": 2}, "<=", 3)],
                               bounds={"x1": ("-1/2", 1), "x2": (0, None)})
        c = [3, -2]
        low, high = solve_lp(s, c), solve_lp(s, (-3, 2))
        c[:] = [0, 0]
        assert (low.value, high.value) == (-5, -3)
        assert low.point == {"x1": Fraction(-1, 2), "x2": Fraction(7, 4)}
        assert high.point == {"x1": 1, "x2": 0}

    def test_equality_rows(self):
        s = LinearSystem.build(2, rows=[({"x1": 1, "x2": 1}, "=", 1)],
                               bounds={"x1": (0, 1), "x2": (0, 1)})
        assert solve_lp(s, [1, 2]).value == 1
        assert solve_lp(s, [-1, -2]).value == -2

    def test_drive_out_takes_the_lowest_column(self):
        # -2 x1 - x3 = 0 over x >= 0 (not of unit form, so the presolve keeps
        # it): phase 1 is optimal at once with its artificial basic at zero,
        # and the artificial leaves for its row's lowest column
        s = LinearSystem.build(3, rows=[({"x1": -2, "x3": -1}, "=", 0)],
                               bounds={name: (0, None) for name in ("x1", "x2", "x3")})
        assert solve_lp(s, [1, 1, 1]).value == 0
        assert s._phase1.basis == [0]

    def test_crossing_bounds_infeasible(self):
        s = LinearSystem.build(1, bounds={"x1": (1, 0)})
        assert solve_lp(s, [1]).is_infeasible


def entering_columns(monkeypatch):
    """Record each pivot as (entering column, whether its row's rhs is 0, the
    lowest column with a negative z-row entry, the most negative one's)."""
    log = []
    pivot = exactlp._Simplex._pivot

    def recording(self, r, s):
        negative = sorted((v, j) for j, v in self.zc.items() if v < 0)
        log.append((s, self.rows[r][1] == 0, min(j for _, j in negative), negative[0][1]))
        return pivot(self, r, s)

    monkeypatch.setattr(exactlp._Simplex, "_pivot", recording)
    return log


def check_pricing(log):
    """Dantzig's column until DEGENERATE_RUN degenerate pivots in a row, then
    Bland's until the next nondegenerate pivot; True when Bland's entered."""
    run, fell_back = 0, False
    for s, degenerate, bland, dantzig in log:
        assert s == (bland if run >= exactlp.DEGENERATE_RUN else dantzig)
        fell_back |= run >= exactlp.DEGENERATE_RUN and bland != dantzig
        run = run + 1 if degenerate else 0
    return fell_back


class TestPricing:
    """Dantzig's rule (most negative z-row entry, lowest column on ties), with
    Bland's rule after DEGENERATE_RUN degenerate pivots in a row."""

    def test_beale_cycling_example_stops(self, monkeypatch):
        # Beale (1955): min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 over x >= 0, two
        # degenerate rows and x6 <= 1, here over x3..x6 with the objective
        # times 4, which changes no pivot.  The rows' slacks are
        # the columns x1, x2 of their own: the tableau scales each row to
        # ints, which would scale its implicit slack's reduced cost.  Each
        # pivot is degenerate, and from the sixth on Dantzig's rule returns to
        # the same basis every six pivots until Bland's rule takes over
        system = LinearSystem.build(6, rows=[
            ({"x1": 1, "x3": "1/4", "x4": -8, "x5": -1, "x6": 9}, "<=", 0),
            ({"x2": 1, "x3": "1/2", "x4": -12, "x5": "-1/2", "x6": 3}, "<=", 0)],
            bounds={**{f"x{i}": (0, None) for i in range(1, 7)}, "x5": (0, 1)})
        log = entering_columns(monkeypatch)
        result = solve_lp(system, [0, 0, -3, 80, -2, 24])
        assert result.value == -5
        assert result.point == {"x1": Fraction(3, 4), "x2": 0, "x3": 1, "x4": 0,
                                "x5": 1, "x6": 0}
        run = exactlp.DEGENERATE_RUN
        assert [s for s, *_ in log[:run]] == ([2, 3, 4, 5, 0, 1] * run)[:run]
        assert all(degenerate for _, degenerate, *_ in log[:run])
        assert check_pricing(log)

    def test_bland_fallback_after_a_degenerate_run(self, monkeypatch):
        # min -sum i x_i over x_(i+1) <= x_i, x1 <= 1: from the origin each
        # x_i enters degenerately, highest cost first, until Bland's rule
        # enters x1 for the one nondegenerate pivot that raises the chain
        m = 30
        rows = [({f"x{i + 1}": 1, f"x{i}": -1}, "<=", 0) for i in range(1, m)]
        system = LinearSystem.build(m, rows=rows + [({"x1": 1}, "<=", 1)],
                                    bounds={f"x{i}": (0, None) for i in range(1, m + 1)})
        log = entering_columns(monkeypatch)
        assert solve_lp(system, [-i for i in range(1, m + 1)]).value == -m * (m + 1) // 2
        assert check_pricing(log)
        run = exactlp.DEGENERATE_RUN
        assert [s for s, *_ in log] == [*range(m - 1, m - 1 - run, -1), 0,
                                        *range(m - 1 - run, 0, -1)]


def pinned(system, fixings):
    """The system with each named variable fixed to its value."""
    return system.with_bounds({name: (Fraction(v), Fraction(v)) for name, v in fixings.items()})


class TestFeasibleWithFixings:
    """Feasibility is a zero-objective solve_lp, on a pinned child for a point."""

    def test_formulation_membership(self):
        system = interval_formulation([BinaryPoint.from_string("00")], 2)
        assert not solve_lp(pinned(system, {"x1": 0, "x2": 0}), [0, 0]).is_optimal
        assert solve_lp(pinned(system, {"x1": 1, "x2": 1}), [0, 0]).is_optimal
        assert solve_lp(system, [0, 0]).is_optimal

    def test_fixing_validation(self):
        s = LinearSystem.build(1, bounds={"x1": (0, 1)})
        with pytest.raises(DomainError, match="undeclared variable 'y'"):
            solve_lp(pinned(s, {"y": 1}), [0])

    def test_zero_objective_matches_cold_phase1(self):
        rng = random.Random(43)
        makers = (random_bounded_system, infeasible_system, unbounded_system)
        seen = set()
        for _ in range(60):
            maker = rng.choice(makers)
            system = maker(rng, rng.randint(1, 4))
            child = pinned(system, {"x1": rng.randint(-3, 3)})
            zero = [0] * system.n_original
            for s in (system, child):
                feasible = exactlp._Simplex(s).phase1()  # cold reference
                for c in (zero, tuple(zero)):
                    got = solve_lp(s, c)
                    assert got.is_optimal == feasible and got.is_infeasible == (not feasible)
                    if feasible:
                        assert got.value == 0 and satisfies(s, got.point)
                seen.add((maker.__name__, s is child, feasible))
            if maker is unbounded_system:
                # feasible and unbounded below in x1, yet the zero objective is optimal
                assert solve_lp(system, [1, *zero[1:]]).is_unbounded
                assert solve_lp(system, zero).is_optimal
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


def signed(c, sign):
    """The objective c times sign, a list or tuple as c is: a maximum is minus
    the minimum of the negated objective."""
    return c if sign == 1 else type(c)(-v for v in c)


def costs_of(rng, system):
    """Random int costs of x1..xn of the system, each in -5..5."""
    return [rng.randint(-5, 5) for _ in range(system.n_original)]


def cold_solve(system, objective):
    """Reference: a fresh tableau, phase 1, then phase 2, as before any reuse."""
    solver = exactlp._Simplex(system)
    if not solver.phase1():
        return LpResult("infeasible", None, None)
    status = solver.phase2(solver.column_objective(objective))
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    point = solver.point()
    value = sum((c * point[name] for name, c in zip(system.variables, objective)),
                start=Fraction(0))
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
            # min of each objective and of its negation (its max), the objectives again, with solves
            # of the second system in between
            calls = [(first, [sign * v for v in c]) for c in objectives for sign in (1, -1)]
            calls += [(first, c) for c in objectives]
            rng.shuffle(calls)
            for i in sorted(rng.sample(range(len(calls) + 1), 3), reverse=True):
                c = [rng.randint(-9, 9) for _ in range(m)]
                sign = rng.choice((1, -1))
                calls.insert(i, (second, [sign * v for v in c]))
            for system, c in calls:
                got = solve_lp(system, c)
                assert repr(got) == repr(cold_solve(system, c))
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
            solve_lp(a, [-v for v in c])
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
            c = [rng.randint(-5, 5) for _ in range(3)]
            solve_lp(system, signed(c, rng.choice((1, -1))))
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
        jobs = [(system, signed([rng.randint(-9, 9) for _ in range(3)], rng.choice((1, -1))))
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
                c = signed(c, rng.choice((1, -1)))
                cold = cold_solve(system, c)
                got = None
                for start in [None, *starts]:
                    got = solve_lp(system, c, start=start)
                    assert (got.status, got.value) == (cold.status, cold.value)
                    if got.is_optimal:
                        assert satisfies(system, got.point)
                    warm += start is not None
                    moved += got.point != cold.point
                statuses.add(got.status)
                if got.is_optimal:  # the last warm result starts later calls too
                    starts.append(got)
                    first = solve_lp(system, c)
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
        solve_lp(system, [0, 0, 0])  # phase 1
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
        for other in (twin, system.with_bounds({}), dataclasses.replace(system, meta={})):
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
    """Children made by with_bounds or dataclasses.replace start without a tableau."""

    def test_children_of_a_solved_system_get_cold_answers(self):
        rng = random.Random(53)
        zero = Fraction(0)
        changed = 0
        for _ in range(40):
            n = rng.randint(1, 4)
            parent = random_bounded_system(rng, n)
            c = [rng.randint(-9, 9) for _ in range(n)]
            c = signed(c, rng.choice((1, -1)))
            first = solve_lp(parent, c)
            for child in (parent.with_bounds({"x1": (zero, zero)}),
                          dataclasses.replace(parent, meta={"method": "child"})):
                assert "_phase1" not in vars(child)
                got = solve_lp(child, c)
                assert repr(got) == repr(cold_solve(child, c))
                changed += repr(got) != repr(first)
            assert repr(solve_lp(parent, c)) == repr(first)
        assert changed > 10  # pinning x1 must change many answers to test anything


class FractionSimplex(exactlp._Simplex):
    """Reference: the tableau built and priced over Fractions, then scaled.

    Bounds, shifted right-hand sides and phase-2 costs are Fractions here;
    each row is scaled by its rhs denominator and the z row by the lcm of all
    its denominators.  Pivoting is inherited, and so are the constructor, the
    presolve step and the substituted maps, so both builds read the same
    folded and presolved (bounds, rows, substitutions) of the system; so is
    phase 1, which then prices its artificials with the phase 2 here.
    """

    def _build_columns(self, bounds):
        ncol = 0
        self.bound_rows = []
        for name in self.variables:
            if name in self.substituted:
                continue
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

    def column_objective(self, costs):
        col_obj = {}
        for name, c in zip(self.variables, costs):
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
        return self._iterate()

    def point(self):
        cv = {b: Fraction(rhs, den) for (_, rhs, den), b in zip(self.rows, self.basis)}
        return {name: Fraction(offset) + sum(coef * cv.get(col, 0) for col, coef in cols)
                for name in self.variables for offset, cols in [self.var_cols[name]]}


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
            assert got.rows == ref.rows and int_tableau(got)
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
                c = [Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 6)))
                     for _ in range(system.n_original)]
                if rng.random() < 0.5:  # a maximum
                    c = [-v for v in c]
                got, ref = saved_got.restart(), saved_ref.restart()
                # the integer costs are c times the lcm of its denominators
                status = got.phase2(got.column_objective(exactlp._scale(c)[1]))
                assert status == ref.phase2(ref.column_objective(c))
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

    def test_hpolytope_int_rows_match_build(self):
        # entries as a problem file gives them (JSON ints, integral and "p/q"
        # strings) and as a library caller may (Fractions); the polytope's
        # rows are the integer rows `build` makes, and `satisfies`, summed in
        # ints, agrees with a Fraction evaluation
        rng = random.Random(71)

        def meets(rows, coords):
            for a, rel, b in rows:
                lhs = sum(Fraction(ai) * v for ai, v in zip(a, coords))
                if lhs != Fraction(b) and (rel == "=" or (lhs < Fraction(b)) != (rel == "<=")):
                    return False
            return True

        def entry(q, plain):
            if plain:
                return q.numerator
            k = rng.randint(1, 3)
            forms = [q, f"{q.numerator * k}/{q.denominator * k}"]
            if q.denominator == 1:
                forms += [q.numerator, str(q.numerator)]
            return rng.choice(forms)

        met = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            names = [f"x{i + 1}" for i in range(n)]
            rows = []
            for _ in range(rng.randint(1, 5)):
                plain = rng.random() < 0.4  # every entry a JSON int
                dens = (1,) if plain else (1, 1, 2, 3)
                b, *a = (Fraction(rng.choice((0, rng.randint(-9, 9))), rng.choice(dens))
                         for _ in range(n + 1))
                rows.append(([entry(q, plain) for q in a], rng.choice(("<=", "=", ">=")),
                             entry(b, plain)))
            P = HPolytope(n, tuple(rows))
            system = LinearSystem.from_hpolytope(P)
            built = LinearSystem.build(n, (), [(dict(zip(names, a)), rel, b)
                                               for a, rel, b in rows], meta={"method": "hrep"})
            assert [list(c.items()) for c, _, _ in system.rows] == \
                [list(c.items()) for c, _, _ in built.rows]
            assert system.rows == built.rows
            assert system.counted_inequalities() == built.counted_inequalities()
            assert write_lp(system) == write_lp(built)
            assert [(tuple(c.get(name, 0) for name in names), rel, b)
                     for c, rel, b in built.rows] == list(P.rows)
            for _ in range(4):
                point = rng.choice((BinaryPoint(n, rng.randrange(1 << n)),
                                    LatticePoint.from_coords([rng.randint(-3, 3)
                                                              for _ in range(n)])))
                expect = meets(rows, point_coords(point))
                assert P.satisfies(point) == expect
                met += expect
        assert met > 100

    def test_objective_value_is_exact(self):
        system = LinearSystem.build(2, bounds={"x1": ("1/3", "1/3"), "x2": (0, "5/2")})
        r = solve_lp(system, [21, -4])  # 3/2 x1 - 2/7 x2, times 14
        assert r.value == 14 * (Fraction(3, 2) * Fraction(1, 3) - Fraction(2, 7) * Fraction(5, 2))
        assert type(r.value) is Fraction and all(type(v) is Fraction for v in r.point.values())

    def test_value_is_read_when_first_asked_for(self, monkeypatch):
        # the z row is read on the first access, under the costs of its own
        # solve, however many solves from it came in between; the value is kept
        reads = []
        value = exactlp._Simplex.objective_value
        monkeypatch.setattr(exactlp._Simplex, "objective_value",
                            lambda self, *pricing: reads.append(pricing) or value(self, *pricing))
        system = LinearSystem.build(2, (), [({"x1": 1, "x2": 1}, "<=", 3)],
                                    {"x1": (0, 2), "x2": ("1/2", 2)})
        low = solve_lp(system, [1, 3])
        high = solve_lp(system, [-2, -1], start=low)
        fixed = solve_lp(system, [-1, 0], fix={"x2": 1})
        assert reads == []
        assert (low.value, high.value, fixed.value) == (Fraction(3, 2), -5, -2)
        assert high.value == -5 and len(reads) == 3
        assert LpResult("optimal", dict(low.point), low.value) == low and repr(fixed) == \
            "LpResult(status='optimal', point={'x1': Fraction(2, 1), 'x2': Fraction(1, 1)}, value=Fraction(-2, 1))"


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
        assert child.meta == parent.meta and dataclasses.replace(child, meta={}).meta == {}
        with pytest.raises(DomainError, match="undeclared variable 'z'"):
            parent.with_bounds({"z": (0, 0)})
        assert solve_lp(child, [1, -1]).value == Fraction(1) - Fraction(1, 2)

    @pytest.mark.parametrize("entry", ["constructor", "with_bounds"])
    @pytest.mark.parametrize("bound, message", [
        ((0.5, None), "bound 0.5 on x1 is not None, an int or a Fraction"),
        ((None, "1"), "bound '1' on x1 is not None, an int or a Fraction"),
        ((True, None), "bound True on x1 is not None, an int or a Fraction"),
        ((0,), r"bound \(0,\) on x1 is not a \(lower, upper\) pair"),
        (None, r"bound None on x1 is not a \(lower, upper\) pair"),
        (5, r"bound 5 on x1 is not a \(lower, upper\) pair"),
    ], ids=["float", "str", "bool", "one-entry", "none", "int"])
    def test_bounds_are_checked(self, entry, bound, message):
        with pytest.raises(DomainError, match=message):
            if entry == "constructor":
                LinearSystem(("x1",), 1, (), {"x1": bound})
            else:
                LinearSystem(("x1",), 1, (), {}).with_bounds({"x1": bound})

    @pytest.mark.parametrize("bound, shown", [(None, "None"), (5, "5"), ((0,), r"\(0,\)")],
                             ids=["none", "int", "one-entry"])
    def test_build_refuses_a_bound_that_is_not_a_pair(self, bound, shown):
        # build reads the numerals of a pair; anything else used to raise a
        # bare TypeError while it iterated the bound
        with pytest.raises(DomainError, match=rf"bound {shown} on x1 is not a \(lower, upper\) pair"):
            LinearSystem.build(1, bounds={"x1": bound})

    @pytest.mark.parametrize("entry", ["constructor", "with_bounds"])
    def test_integral_bounds_are_stored_as_ints(self, entry):
        bound = (Fraction(-4, 2), Fraction(7, 2))
        if entry == "constructor":
            system = LinearSystem(("x1",), 1, (), {"x1": bound})
        else:
            system = LinearSystem(("x1",), 1, (), {}).with_bounds({"x1": bound})
        lo, hi = system.bound("x1")
        assert (type(lo), lo, hi) == (int, -2, Fraction(7, 2))
        assert solve_lp(system, [-1]).value == Fraction(-7, 2)


class TestFold:
    """One-variable rows become bounds in the tableau, never in the system."""

    def test_singleton_rows_become_bounds(self):
        rows = [({"x1": -2}, "<=", 3),           # x1 >= -3/2: the sense flips
                ({"x2": 3}, "=", 2),             # x2 fixed to 2/3
                ({"x1": 1, "x2": 1}, "<=", 4),
                ({"x1": 4}, "<=", 6)]            # x1 <= 3/2, under the bound 5
        system = LinearSystem.build(2, (), rows, {"x1": (None, 5)})
        assert exact_bounds(system) == {"x1": (Fraction(-3, 2), Fraction(3, 2)),
                                        "x2": (Fraction(2, 3), Fraction(2, 3))}
        # each non-integral bound is an integer row, relaxed to its floor or ceil
        bounds, kept = exactlp._folded(system)
        assert bounds == {"x1": (-2, 2), "x2": (0, 1)}
        assert kept == (({"x1": 1, "x2": 1}, "<=", 4), ({"x1": 2}, ">=", -3),
                        ({"x1": 2}, "<=", 3), ({"x2": 3}, "=", 2))
        assert len(system.rows) == 4 and system.bounds == {"x1": (None, 5)}
        assert system.counted_inequalities() == 4
        assert solve_lp(system, [-1, 3]).value == Fraction(-3, 2) + 2
        assert solve_lp(system, [1, -3]).value == -Fraction(3, 2) - 2

    def test_divisible_rows_fold_to_int_bounds(self, monkeypatch):
        rows = [({"x1": 2}, "<=", 4), ({"x2": -3}, ">=", -3), ({"x3": 2}, "<=", 3),
                ({"x1": 1, "x2": 1, "x3": 1}, "<=", 4), ({"x1": 1, "x3": -1}, ">=", -1)]
        system = LinearSystem.build(3, (), rows, {name: (0, None) for name in ("x1", "x2", "x3")})
        bounds, kept = exactlp._folded(system)
        # x3 <= 3/2 stays the row 2 x3 <= 3, under the bound 2
        assert [(type(hi), hi) for _, hi in bounds.values()] == [(int, 2), (int, 1), (int, 2)]
        assert kept == (*rows[3:], ({"x3": 2}, "<=", 3))
        counts = phase_pivots(monkeypatch)
        for c, point, value, pivots in (([-1, -2, -1], (2, 1, 1), -5, 3),
                                        ([-1, -1, -3], ("3/2", 1, "3/2"), -7, 4)):
            counts.update({1: 0, 2: 0})
            r = solve_lp(system, c)
            assert r.status == "optimal" and r.value == value
            assert repr(r.point) == repr(dict(zip(system.variables, map(Fraction, point))))
            assert sum(counts.values()) == pivots

    @pytest.mark.parametrize("rows, bounds", [
        ([({"x1": 1}, ">=", 2)], {"x1": (0, 1)}),                  # crosses a bound
        ([({"x1": -1}, ">=", -1), ({"x1": 1}, ">=", 2)], {}),      # crosses another row
        ([({"x1": 2}, "=", 3)], {"x1": (0, 1)}),                   # = outside the box
    ], ids=["bound", "row", "equality"])
    def test_crossing_singletons_are_infeasible(self, rows, bounds):
        system = LinearSystem.build(2, (), rows + [({"x1": 1, "x2": 1}, "<=", 9)], bounds)
        lo, hi = exactlp._folded(system)[0]["x1"]
        assert hi < lo
        assert solve_lp(system, [0, 0]).is_infeasible
        assert solve_lp(system.with_bounds({"x2": (Fraction(0), None)}), [0, 0]).is_infeasible

    def test_bounds_written_as_rows_solve_alike(self):
        # each non-integral bound p/q of a random system written out as its
        # own row q*x + z >= p (<= p), with z fixed to 0 so that no fold
        # reads it: the status and the value stay
        rng = random.Random(101)
        seen, written = set(), 0
        for _ in range(300):
            system = mixed_system(rng)
            rows, bounds = list(system.rows), {"z": (0, 0)}
            for name, (lo, hi) in system.bounds.items():
                rows += [({name: q.denominator, "z": 1}, rel, q.numerator)
                         for q, rel in ((lo, ">="), (hi, "<=")) if type(q) is Fraction]
                bounds[name] = tuple(None if type(q) is Fraction else q for q in (lo, hi))
            written += len(rows) - len(system.rows)
            other = LinearSystem((*system.variables, "z"), system.n_original, tuple(rows),
                                 bounds)
            for _ in range(2):
                c = signed(costs_of(rng, system), rng.choice((1, -1)))
                got, expect = solve_lp(other, c), solve_lp(system, c)
                assert (got.status, got.value) == (expect.status, expect.value)
                if got.is_optimal:
                    assert satisfies(system, got.point)
                    assert satisfies(other, {**expect.point, "z": 0})
                seen.add(got.status)
        assert seen == {"optimal", "infeasible", "unbounded"} and written > 100

    def test_zero_coefficient_row_is_kept(self):
        system = LinearSystem(("x1",), 1, (({"x1": 0}, "<=", -1),), {})
        assert exactlp._folded(system) == ({}, system.rows)
        assert solve_lp(system, [0]).is_infeasible

    def test_child_crossing_a_folded_bound(self):
        parent = LinearSystem.build(1, (), [({"x1": 1}, "<=", 1)])
        child = parent.with_bounds({"x1": (Fraction(2), None)})
        assert child.bounds == {"x1": (2, None)} and exactlp._folded(child)[0] == {"x1": (2, 1)}
        assert solve_lp(child, [0]).is_infeasible

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
                c = costs_of(rng, system)
                got = solve_lp(system, c)
                assert repr(got) == repr(solve_lp(fresh, c))
                statuses.add(got.status)
        assert statuses == {"optimal", "infeasible", "unbounded"} and folds > 50


def exact_bounds(system):
    """The system's bounds tightened by each one-variable row, as rationals:
    the bounds that the tableau build writes as int bounds and integer rows."""
    bounds = dict(system.bounds)
    for coeffs, rel, rhs in system.rows:
        if len(coeffs) == 1 and 0 not in coeffs.values():
            (name, a), = coeffs.items()
            q, rel = Fraction(rhs, a), rel if a > 0 else {"<=": ">=", ">=": "<="}.get(rel, rel)
            bounds[name] = intersect_bounds((None if rel == "<=" else q,
                                             None if rel == ">=" else q),
                                            bounds.get(name, (None, None)))
    return bounds


def has_fractional_bounds(system):
    """Does a bound of the system, or a one-variable row, bound a variable by
    a non-integral value?"""
    return any(q is not None and q.denominator != 1
               for bound in exact_bounds(system).values() for q in bound)


def int_tableau(solver):
    """Are every offset and every entry of every tableau row ints?"""
    return (all(type(offset) is int for offset, _ in solver.var_cols.values())
            and all(type(v) is int for cols, rhs, den in solver.rows
                    for v in (*cols.values(), rhs, den)))


def fix_value(rng, system, name):
    """An int inside, on or outside the bounds of a variable (its one-variable
    rows included)."""
    lo, hi = exact_bounds(system).get(name, (None, None))
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
            # int costs, and rational ones times the lcm of their denominators
            objectives = [costs_of(rng, system),
                          list(exactlp._scale([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                                               for _ in range(n)])[1])]
            base_feasible = solve_lp(system, [0] * n).is_optimal  # the kept phase 1 runs here
            for c in objectives:
                c = signed(c, rng.choice((1, -1)))
                before = dict(pivots)
                got = solve_lp(system, c, fix=fix)
                used = {p: pivots[p] - before[p] for p in pivots}
                child = system.with_bounds(pins)  # a cold phase 1 for each objective
                before = dict(pivots)
                expect = solve_lp(child, c)
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
        c = [1, -1, 2]
        statuses = set()
        for fix in ({"x1": -4}, {"x2": 0}, {"x2": -1}, {"x3": 2}, {"x3": 3},
                    {"y1": 1}, {"y1": 0}, {"y1": 4}, {"y2": 1}, {"y2": 0},
                    {"y3": 3}, {"y3": 4}, {"x1": 0, "x2": 1, "x3": 1, "y1": 3, "y2": 1, "y3": 2},
                    {"x1": 1, "x2": 1, "x3": 2, "y1": 3, "y2": 1, "y3": 3}):
            child = system.with_bounds({k: (Fraction(v), Fraction(v)) for k, v in fix.items()})
            for obj in (c, signed(c, -1)):
                got = solve_lp(system, obj, fix=fix)
                assert repr(got) == repr(solve_lp(child, obj))
                statuses.add(got.status)
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_restriction_of_an_infeasible_system(self):
        system = LinearSystem.build(2, (), [({"x1": 1, "x2": 1}, "<=", -1)],
                                    {"x1": (0, 1), "x2": (0, 1)})
        assert solve_lp(system, [0, 0], fix={"x1": 0}).is_infeasible
        assert system._phase1 is None

    def test_empty_fix_is_the_plain_solve(self):
        system = interval_formulation([BinaryPoint.from_string("01")], 2)
        assert repr(solve_lp(system, [1, -1], fix={})) == repr(solve_lp(system, [1, -1]))

    def test_one_tableau_build_per_system(self, monkeypatch):
        # the x's of the interval formulation are substituted, so each fixing
        # pins a substituted variable: still no second build or presolve
        builds, presolves = [], []
        init, presolve = exactlp._Simplex.__init__, exactlp._Simplex._presolve
        monkeypatch.setattr(exactlp._Simplex, "__init__",
                            lambda self, system: builds.append(system) or init(self, system))
        monkeypatch.setattr(exactlp._Simplex, "_presolve", staticmethod(
            lambda bounds, rows: presolves.append(rows) or presolve(bounds, rows)))
        system = interval_formulation([BinaryPoint.from_string(s) for s in ("000", "110")], 3)
        for v in itertools.product((0, 1), repeat=3):
            solve_lp(system, [1, 2, 3], fix=dict(zip(("x1", "x2", "x3"), v)))
        assert {"x1", "x2", "x3"} <= system._phase1.substituted.keys()
        assert builds == [system]
        assert len(presolves) == 1

    def test_saved_solver_is_untouched(self):
        system = interval_formulation([BinaryPoint.from_string("101")], 3)
        solve_lp(system, [0, 0, 0])
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
            solve_lp(system, [0, 0], fix={"x1": 0, "x2": value})

    def test_undeclared_name(self):
        system = LinearSystem.build(2, bounds={"x1": (0, 1), "x2": (0, 1)})
        with pytest.raises(DomainError, match="undeclared variable 'y'"):
            solve_lp(system, [0, 0], fix={"y": 1})

    def test_fix_with_start_is_refused(self):
        # fix is a cold solve; a start made with fix carries its fixings
        system = LinearSystem.build(2, bounds={"x1": (0, 1), "x2": (0, 1)})
        start = solve_lp(system, [1, 1])
        for target in (system, system.with_bounds({})):
            with pytest.raises(DomainError, match="start and fix cannot be combined"):
                solve_lp(target, [1, 1], start=start, fix={"x1": 1})
        assert solve_lp(system, [1, 1], start=start, fix={}) == start
        fixed = solve_lp(system, [1, 1], fix={"x1": 1})
        got = solve_lp(system, [-1, -1], start=fixed)
        assert (got.status, got.value, got.point) == ("optimal", -2, {"x1": 1, "x2": 1})
        assert solve_lp(system, [1, 1], start=fixed).value == 1

    def test_objective_of_wrong_length(self):
        system = LinearSystem.build(2, bounds={"x1": (0, 1), "x2": (0, 1)})
        for fix in (None, {"x1": 1}):
            with pytest.raises(DomainError, match="objective must be a list or tuple of 2 ints"):
                solve_lp(system, [1, 1, 1], fix=fix)


class NoPresolve(exactlp._Simplex):
    """The solver with its presolve step made the identity."""

    @staticmethod
    def _presolve(bounds, rows):
        return bounds, rows, {}


def solved(cls, system, costs):
    """(status, value, point) of a cold solve of integer costs of x1..xn with
    the solver class `cls`."""
    solver = cls(system)
    if not solver.phase1():
        return "infeasible", None, None
    if solver.phase2(solver.column_objective(costs)) == "unbounded":
        return "unbounded", None, None
    return "optimal", solver.objective_value(costs), solver.point()


def presolved_systems(rng, count):
    """Mixed systems with equality rows of unit form put among their rows
    (each coefficient +-m, the rhs a multiple of m), then interval and
    recursive formulations of small cubes."""
    systems = []
    for _ in range(count):
        system = mixed_system(rng)
        rows = list(system.rows)
        for _ in range(rng.randint(1, 3)):
            m = rng.choice((1, 1, 2, 3))
            names = rng.sample(system.variables, rng.randint(1, min(3, len(system.variables))))
            row = ({name: rng.choice((-m, m)) for name in names}, "=", m * rng.randint(-3, 3))
            rows.insert(rng.randint(0, len(rows)), row)
        systems.append(LinearSystem(system.variables, system.n_original, tuple(rows),
                                    system.bounds))
    for _ in range(count // 10):
        n = rng.randint(2, 4)
        X = random_forbidden(rng, n, rng.randint(1, (1 << n) - 1))
        systems.append(rng.choice((interval_formulation, recursive_formulation))(X, n))
    return systems


class TestPresolve:
    """Free variables and unit doubletons are substituted out of the tableau."""

    def test_substitutions_and_rewritten_rows(self):
        # x1 is free in r1, x2 is boxed in the doubleton r2 (of unit form with
        # m = 2), and r3 is not of unit form
        system = LinearSystem(
            ("x1", "x2", "x3", "y"), 3,
            (({"x1": 1, "x2": -1, "y": 1}, "<=", 4),   # r0
             ({"x1": 1, "x2": 1}, "=", 3),             # r1: x1 = 3 - x2
             ({"x2": 2, "x3": -2}, "=", 2),            # r2: x2 = 1 + x3
             ({"x1": 1, "y": 2}, "=", 5)),             # r3
            {"x2": (Fraction(0), Fraction(2)), "x3": (Fraction(0), Fraction(2))})
        bounds, rows, substituted = exactlp._Simplex._presolve(*exactlp._folded(system))
        # the map of x1 is rewritten when x2 goes, and x2's box moves onto x3
        assert substituted == {"x1": (2, {"x3": -1}), "x2": (1, {"x3": 1})}
        assert bounds == {"x3": (0, 1)}
        assert rows == (({"x3": -2, "y": 1}, "<=", 3), ({"x3": -1, "y": 2}, "=", 3))
        solver = exactlp._Simplex(system)
        assert solver.var_cols["x1"] == (2, ((0, -1),)) and solver.var_cols["x2"] == (1, ((0, 1),))
        for c in ([1, 0, 0], [0, 1, 0], [1, 1, 1], [-1, 0, 0], [0, -1, 0], [-1, -1, -1]):
            got = solve_lp(system, c)
            assert (got.status, got.value) == solved(NoPresolve, system, c)[:2]
            assert verify.satisfies(system, got.point)

    def test_presolve_on_and_off_agree(self):
        rng = random.Random(83)
        seen, kinds, substituted = set(), set(), 0
        for system in presolved_systems(rng, 300):
            names = exactlp._Simplex(system).substituted
            bounds = exactlp._folded(system)[0]
            kinds.update(bounds.get(name, (None, None)) == (None, None) for name in names)
            substituted += len(names)
            for _ in range(3):
                costs = signed(costs_of(rng, system), rng.choice((1, -1)))
                status, value, point = solved(exactlp._Simplex, system, costs)
                assert (status, value) == solved(NoPresolve, system, costs)[:2]
                # the Fraction reference build of the same presolved data
                assert repr(solved(FractionSimplex, system, costs)) == \
                    repr((status, value, point))
                if status == "optimal":
                    assert verify.satisfies(system, point)
                    assert value == sum(c * point[name] for name, c in zip(system.variables, costs))
                seen.add((status, system.meta.get("method")))
        assert {("optimal", None), ("infeasible", None), ("unbounded", None),
                ("optimal", "interval"), ("optimal", "recursive")} <= seen
        assert kinds == {True, False} and substituted > 300  # free and bounded ones

    def test_fixing_substituted_variables_matches_with_bounds_children(self):
        # fix a substituted variable, a variable its map uses, or both: the
        # copy comes from the kept template, whose presolve may differ from
        # the cold child's, and answers as the child does
        rng = random.Random(89)
        seen = set()
        for system in presolved_systems(rng, 400):
            substituted = exactlp._Simplex(system).substituted
            if not substituted:
                continue
            name = rng.choice(sorted(substituted))
            used = sorted({y for _, expr in substituted.values() for y in expr})
            kind = rng.choice(("substituted", "used", "both")) if used else "substituted"
            names = {"substituted": [name], "both": [name, rng.choice(used)],
                     "used": [rng.choice(used)]}[kind]
            fix = {name: rng.choice((0, 1, fix_value(rng, system, name))) for name in names}
            child = pinned(system, fix)
            for _ in range(2):
                c = signed(costs_of(rng, system), rng.choice((1, -1)))
                got = solve_lp(system, c, fix=fix)
                expect = solve_lp(child, c)
                assert (got.status, got.value) == (expect.status, expect.value)
                assert repr(got) == repr(expect)
                seen.add((got.status, kind))
        assert {(status, kind) for status in ("optimal", "infeasible")
                for kind in ("substituted", "used", "both")} <= seen


class TestLazyReadout:
    """A result reads its point and value out on first access, as an eager readout would."""

    def test_readout_equals_an_eager_one(self, monkeypatch):
        reads = []
        point = exactlp._Simplex.point
        monkeypatch.setattr(exactlp._Simplex, "point", lambda self: reads.append(1) or point(self))
        rng = random.Random(73)
        for _ in range(40):
            system = mixed_system(rng)
            c = costs_of(rng, system)
            result = solve_lp(system, c)
            if not result.is_optimal:
                continue
            expect = cold_solve(system, c)  # reads its point out eagerly
            del reads[:]
            originals = system.variables[:system.n_original]
            later = solve_lp(system, [1] * len(originals), start=result)
            assert reads == []  # neither result has been read out yet
            assert (result.point, result.value) == (expect.point, expect.value)
            assert result.point is result.point and len(reads) == 1
            if later.is_optimal:
                assert later.value == sum(map(later.point.get, originals)) and len(reads) == 2

    def test_z_row_value_and_coords_match_the_point(self):
        # min and max, fix= and start=, on systems with free variables and
        # non-integral bounds; rational objectives as their ints, c times the
        # lcm of its denominators (the value is then that scale times c.x),
        # and int ones as lists and tuples
        rng = random.Random(79)
        seen, kinds, fractions = set(), set(), 0
        for _ in range(300):
            system = mixed_system(rng)
            fractions += has_fractional_bounds(system)
            names, n = system.variables, system.n_original
            ints = [rng.randint(-5, 5) for _ in range(n)]
            objectives = [
                [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)],
                [Fraction(rng.randint(-9, 9), rng.choice((1, 4))) for _ in range(n)],
                ints, tuple(ints)]
            earlier = None
            for terms in objectives:
                sign = rng.choice((1, -1))
                terms = signed(terms, sign)
                scale, c = exactlp._scale(terms)
                c = c if type(terms) is tuple else list(c)
                how = rng.choice(("cold", "fix", "start"))
                if how == "fix":
                    fix = {name: fix_value(rng, system, name)
                           for name in rng.sample(names, rng.randint(1, len(names)))}
                    result = solve_lp(system, c, fix=fix)
                elif how == "start" and earlier is not None:
                    result = solve_lp(system, c, start=earlier)
                else:
                    how, result = "cold", solve_lp(system, c)
                if not result.is_optimal:
                    continue
                seen.add((how, sign))
                if earlier is None:
                    earlier = result
                value = result.value
                picked = rng.sample(names, rng.randint(0, len(names)))
                ints = result.int_coords(picked)
                L, scaled = result.scaled_point()
                assert result._point is None  # no readout built the point
                point = result.point
                assert type(value) is Fraction
                assert value == scale * sum((q * point[name] for name, q in zip(names, terms)),
                                            start=Fraction(0))
                # None exactly when a named coordinate is fractional
                fractional = any(point[name].denominator != 1 for name in picked)
                assert (ints is None) == fractional
                if ints is not None:
                    assert all(type(v) is int for v in ints)
                    assert ints == tuple(point[name] for name in picked)
                assert type(L) is int and L > 0 and list(scaled) == list(names)
                assert all(type(v) is int and Fraction(v, L) == point[name]
                           for name, v in scaled.items())
                assert result.int_coords(picked) == ints  # after the point, too
                given = LpResult(exactlp.OPTIMAL, dict(point), value)
                assert given.int_coords(picked) == ints
                assert {name: Fraction(v, given.scaled_point()[0])
                        for name, v in given.scaled_point()[1].items()} == point
                kinds.add(fractional)
                assert int_tableau(result._tableau[1])
        assert seen == {(how, sign) for how in ("cold", "fix", "start") for sign in (1, -1)}
        assert kinds == {True, False} and fractions > 100  # non-integral bounds were read
