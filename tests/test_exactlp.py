import copy
import gc
import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest

from fvx import (
    BinaryPoint,
    LinearSystem,
    LpResult,
    exactlp,
    feasible_with_fixings,
    interval_formulation,
    solve_lp,
)
from fvx.errors import DomainError


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

    def test_equality_rows(self):
        s = LinearSystem.build(2, rows=[({"x1": 1, "x2": 1}, "=", 1)],
                               bounds={"x1": (0, 1), "x2": (0, 1)})
        assert solve_lp(s, [1, 2]).value == 1
        assert solve_lp(s, [1, 2], sense="max").value == 2

    def test_crossing_bounds_infeasible(self):
        s = LinearSystem.build(1, bounds={"x1": (1, 0)})
        assert solve_lp(s, [1]).is_infeasible


class TestFeasibleWithFixings:
    def test_formulation_membership(self):
        system = interval_formulation([BinaryPoint.from_string("00")], 2)
        assert not feasible_with_fixings(system, {"x1": 0, "x2": 0})
        assert feasible_with_fixings(system, {"x1": 1, "x2": 1})
        assert feasible_with_fixings(system, {})

    def test_fixing_validation(self):
        s = LinearSystem.build(1, bounds={"x1": (0, 1)})
        with pytest.raises(DomainError):
            feasible_with_fixings(s, {"y": 1})


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


def cold_solve(system, objective, sense="min"):
    """Reference: a fresh tableau, phase 1, then phase 2, as before any reuse."""
    obj_map = exactlp._objective_map(system, objective)
    solver = exactlp._Simplex(system)
    if not solver.phase1():
        return LpResult("infeasible", None, None)
    status = solver.phase2(solver.column_objective(obj_map, negate=(sense == "max")))
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
            # of the second system in between evicting and refilling the slot
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
        assert len(runs) == 3

    def test_saved_tableau_is_never_mutated(self):
        system = interval_formulation([BinaryPoint.from_string(s) for s in ("000", "101")], 3)
        cold = exactlp._Simplex(system)
        assert cold.phase1()
        solve_lp(system, [1, 1, 1])
        saved = exactlp._last_phase1
        rows, basis = saved[2], saved[3]
        assert rows == cold.rows and basis == cold.basis
        objects = list(rows)
        snapshot = copy.deepcopy(rows)
        rng = random.Random(41)
        for _ in range(20):
            solve_lp(system, [rng.randint(-5, 5) for _ in range(3)], rng.choice(("min", "max")))
        assert exactlp._last_phase1 is saved
        assert all(x is y for x, y in zip(rows, objects)) and len(rows) == len(objects)
        assert rows == snapshot and basis == cold.basis

    def test_slot_holds_the_system_weakly(self):
        system = random_bounded_system(random.Random(43), 2)
        solve_lp(system, [1, 1])
        assert exactlp._last_phase1[0]() is system
        del system
        gc.collect()
        assert exactlp._last_phase1 is None

    def test_threads_get_cold_answers(self):
        # the slot is shared by every caller; a lost update may cost a rebuild
        # but must never hand one system's tableau to another
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
