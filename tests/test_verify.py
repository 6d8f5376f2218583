import dataclasses
import itertools
import random
import time
from fractions import Fraction
from math import gcd, prod
from operator import mul

import pytest

import fvx.verify
from fvx import (
    BinaryPoint,
    LatticePoint,
    LinearSystem,
    VerificationReport,
    cube_hrep,
    exactlp,
    face_formulation,
    in_convex_hull,
    interval_formulation,
    recursive_formulation,
    solve_lp,
    verify_formulation,
)
from fvx.cli import Problem, compile_system
from fvx.core import point_coords
from fvx.errors import DomainError, GuardExceeded
from fvx.lp_format import parse_lp, write_lp
from conftest import all_binary, feasible_at, outcome, phase_pivots, renamed


def corrupt_system(system):
    """Bump one coefficient of the first row that touches an x variable."""
    rows = []
    done = False
    for coeffs, rel, rhs in system.rows:
        if not done:
            target = next((v for v in coeffs if v.startswith("x")), None)
            if target is not None:
                coeffs = dict(coeffs)
                coeffs[target] += 2
                done = True
        rows.append((coeffs, rel, rhs))
    assert done
    return LinearSystem(system.variables, system.n_original, tuple(rows),
                        system.bounds, dict(system.meta))


class TestVerifyFormulation:
    def test_pass_example(self):
        X = [BinaryPoint.from_string("00")]
        system = interval_formulation(X, 2)
        truth = [BinaryPoint.from_string(s) for s in ("01", "10", "11")]
        report = verify_formulation(system, truth, X, trials=50, seed=0)
        assert report.passed
        assert report.to_dict()["verdict"] == "pass"

    def test_detects_planted_corruption(self):
        X = [BinaryPoint.from_string("010")]
        system = corrupt_system(recursive_formulation(X, 3))
        truth = [p for p in all_binary(3) if p.to_string() != "010"]
        report = verify_formulation(system, truth, X, trials=50, seed=1)
        assert not report.passed
        assert report.support_mismatches or report.membership_failures \
            or report.excluded_failures

    def test_face_formulation_empty_x(self):
        system = face_formulation(cube_hrep(2), [])
        report = verify_formulation(system, all_binary(2), [], trials=30, seed=2)
        assert report.passed and report.size_ok

    def test_empty_truth_expects_infeasible(self):
        system = LinearSystem.build(1, rows=[({"x1": 1}, ">=", 1),
                                             ({"x1": 1}, "<=", 0)])
        report = verify_formulation(system, [], [], trials=5, seed=3)
        assert report.passed

    def test_deterministic_given_seed(self):
        X = [BinaryPoint.from_string("10")]
        system = interval_formulation(X, 2)
        truth = [p for p in all_binary(2) if p.to_string() != "10"]
        a = verify_formulation(system, truth, X, trials=25, seed=9).to_dict()
        b = verify_formulation(system, truth, X, trials=25, seed=9).to_dict()
        assert a == b

    def test_guards(self):
        system = LinearSystem.build(13, bounds={f"x{i + 1}": (0, 1)
                                                for i in range(13)})
        with pytest.raises(GuardExceeded):
            verify_formulation(system, [], [], trials=1, seed=0)

    def test_trials_guard(self):
        system = interval_formulation([BinaryPoint.from_string("00")], 2)
        with pytest.raises(GuardExceeded, match="trials"):
            verify_formulation(system, [], [], trials=fvx.verify.MAX_TRIALS + 1, seed=0)

    def test_negative_trials(self):
        system = interval_formulation([BinaryPoint.from_string("00")], 2)
        truth = [BinaryPoint.from_string(s) for s in ("01", "10", "11")]
        with pytest.raises(DomainError, match="trials"):
            verify_formulation(system, truth, [BinaryPoint.from_string("00")], trials=-3)

    @pytest.mark.parametrize("truth, X", [
        ([(0, 1, 0), (1, 0, 1), (1, 1, 1)], [(0, 0, 0)]),
        ([(0, 1), (1, 0), (1, 1)], [(0,)]),
        ([BinaryPoint.from_string("010")], []),
    ])
    def test_point_of_another_dimension(self, truth, X):
        # zip used to cut the longer point short, and the report passed
        system = interval_formulation([BinaryPoint.from_string("00")], 2)
        with pytest.raises(DomainError, match="coordinates, expected 2"):
            verify_formulation(system, truth, X)

    def test_lists_read_as_tuples(self):
        system = interval_formulation([BinaryPoint.from_string("00")], 2)
        truth, X = [(0, 1), (1, 0), (1, 1)], [(0, 0)]
        expect = verify_formulation(system, truth, X, trials=10, seed=4).to_dict()
        got = verify_formulation(system, [list(p) for p in truth], [[0, 0]], trials=10, seed=4)
        assert got.to_dict() == expect and expect["verdict"] == "pass"
        assert verify_formulation(system, [[0, 1]], trials=0).membership_failures == []

    @pytest.mark.parametrize("truth, message", [
        (["01"], "'0' is not an integer"),
        ([3], "3 is neither a point nor a sequence of ints"),
        ([(0.5, 1)], "0.5 is not an integer"),
        ([[True, 0]], "True is not an integer"),
    ])
    def test_non_point_refused(self, truth, message):
        system = interval_formulation([BinaryPoint.from_string("00")], 2)
        with pytest.raises(DomainError, match=message):
            verify_formulation(system, truth)

    def test_size_audit_failure(self):
        X = [BinaryPoint.from_string("00")]
        system = interval_formulation(X, 2)
        bad = dataclasses.replace(system, meta={**system.meta, "certified": 1})
        report = verify_formulation(bad, [BinaryPoint.from_string(s)
                                          for s in ("01", "10", "11")],
                                    X, trials=5, seed=0)
        assert not report.size_ok and not report.passed


class TestConvexHullMembership:
    def test_vertex_never_inside(self):
        pts = all_binary(2)
        assert not in_convex_hull(pts[0], pts[1:])

    def test_interior_point_inside(self):
        pts = [LatticePoint.from_coords(c) for c in ((0, 0), (2, 0), (0, 2), (2, 2))]
        assert in_convex_hull(LatticePoint.from_coords((1, 1)), pts)
        assert not in_convex_hull(LatticePoint.from_coords((3, 1)), pts)

    def test_empty_hull(self):
        assert not in_convex_hull(LatticePoint.from_coords((0,)), [])

    def test_lists_read_as_tuples(self):
        assert in_convex_hull([0, 1], [(0, 1)])
        assert in_convex_hull([1, 1], [[0, 0], [2, 2]])
        assert not in_convex_hull([1, 0], [[0, 0], [2, 2]])
        with pytest.raises(DomainError, match="neither a point nor a sequence"):
            in_convex_hull({0: 1}, [(0, 1)])

    def test_point_of_another_dimension(self):
        with pytest.raises(DomainError, match="has 2 coordinates, expected 3"):
            in_convex_hull((0, 0, 1), [(0, 1), (1, 0)])
        with pytest.raises(DomainError, match="has 3 coordinates, expected 2"):
            in_convex_hull((0, 1), [(0, 1), (1, 0, 0)])


def hull_lp(target, points):
    """Reference: one multiplier per point, sum 1, reproducing the target."""
    names = tuple(f"mu{j + 1}" for j in range(len(points)))
    rows = [({name: p[i] for name, p in zip(names, points) if p[i]}, "=", v)
            for i, v in enumerate(target)]
    rows.append(({name: 1 for name in names}, "=", 1))
    system = LinearSystem.build(0, names, rows, {name: (0, None) for name in names})
    return solve_lp(system, ()).is_optimal


class TestBinaryHull:
    def test_matches_the_hull_lp_with_no_lp(self, monkeypatch):
        rng = random.Random(17)
        cases = []
        for _ in range(200):
            n = rng.randint(1, 5)
            points = [tuple(rng.randint(0, 1) for _ in range(n))
                      for _ in range(rng.randint(1, 6))]
            target = tuple(rng.randint(0, 1) for _ in range(n))
            cases.append((target, points, hull_lp(target, points)))
        assert {expect for *_, expect in cases} == {True, False}

        def refuse(*args, **kwargs):
            raise AssertionError("a 0/1 hull test ran an LP")

        monkeypatch.setattr(fvx.verify, "solve_lp", refuse)
        for target, points, expect in cases:
            assert in_convex_hull(target, points) == expect
            assert in_convex_hull(BinaryPoint.from_coords(target),
                                  [BinaryPoint.from_coords(p) for p in points]) == expect

    def test_lattice_points_keep_the_lp(self, monkeypatch):
        calls = lp_calls(monkeypatch)
        assert in_convex_hull((1, 1), [(0, 0), (2, 2)]) and calls == [False]


def facet_mismatches(system, ground_truth):
    """Reference: the support mismatches of the facet proof, one cold
    `solve_lp` per facet a.x >= b of `_hull` (at `FACET_GUARD`) and two
    per equation a.x = b, as min a.x >= b and min -a.x >= -b; [] when
    `_hull` gives no hull."""
    truth = [p if isinstance(p, tuple) else point_coords(p) for p in ground_truth]
    hull = fvx.verify._hull(truth, fvx.verify.FACET_GUARD) if truth else None
    if hull is None:
        return []
    equations, facets = hull
    out = []
    for a, b in facets:
        lp = solve_lp(system, list(a))
        if not lp.is_optimal or lp.value < b:
            out.append((a, lp.value if lp.is_optimal else None, Fraction(b)))
    for a, b in equations:
        for c, v in ((a, b), (tuple(-x for x in a), -b)):
            lp = solve_lp(system, list(c))
            if not lp.is_optimal or lp.value < v:
                out.append((c, lp.value if lp.is_optimal else None, Fraction(v)))
    return out


def mismatch_dicts(mismatches):
    """Support mismatches as a report dict lists them."""
    report = VerificationReport(0, 0, support_mismatches=mismatches)
    return report.to_dict()["support_mismatches"]


def with_facets(report, mismatches):
    """The report dict with the facet mismatches listed first."""
    return {**report, "support_mismatches": mismatch_dicts(mismatches)
            + report["support_mismatches"]}


def fixings_only_report(system, ground_truth, X, trials, seed):
    """Reference: the verifier with every probe a feasibility test with x
    pinned, after the facet proof's mismatches."""
    truth = [p if isinstance(p, tuple) else point_coords(p) for p in ground_truth]
    removed = [p if isinstance(p, tuple) else point_coords(p) for p in X]
    report = VerificationReport(trials=trials, seed=seed,
                                support_mismatches=facet_mismatches(system, truth))
    rng = random.Random(seed)
    for _ in range(trials):
        c = [rng.randint(-100, 100) for _ in range(system.n_original)]
        lp = solve_lp(system, c)
        if truth:
            brute = min(sum(ci * vi for ci, vi in zip(c, p)) for p in truth)
            if not lp.is_optimal or lp.value != brute:
                report.support_mismatches.append(
                    (tuple(c), lp.value if lp.is_optimal else None, Fraction(brute)))
        elif not lp.is_infeasible:
            report.support_mismatches.append(
                (tuple(c), lp.value if lp.is_optimal else None, None))
    for p in truth:
        if not feasible_at(system, p):
            report.membership_failures.append(p)
    for p in removed:
        if feasible_at(system, p) != in_convex_hull(p, truth):
            report.excluded_failures.append(p)
    report.counted = system.counted_inequalities()
    report.certified = system.meta.get("certified")
    if report.certified is not None:
        report.size_ok = report.counted <= report.certified
    return report


def pinned_probes(monkeypatch):
    """Record the points that verify_formulation probes by pinning x."""
    pinned = []

    def recording(system, objective, **kwargs):
        # a pinned probe is a zero objective with x1..xn fixed by `fix`
        fix = kwargs.get("fix")
        if fix:
            assert list(objective) == [0] * system.n_original
            pinned.append(tuple(fix[f"x{i + 1}"] for i in range(system.n_original)))
        return solve_lp(system, objective, **kwargs)

    monkeypatch.setattr(fvx.verify, "solve_lp", recording)
    return pinned


def binary_doc(ptype, n, forbidden, **polytope):
    return {"kind": "binary", "n": n, "polytope": {"type": ptype, **polytope},
            "forbidden": forbidden}


LATTICE = {"kind": "integral", "n": 2,
           "polytope": {"type": "lattice-box", "l": [0, 0], "u": [3, 2]},
           "ambient": {"l": [0, 0], "u": [3, 2]},
           "forbidden": [[0, 0], [1, 1], [2, 1], [3, 2]]}

COMPILED = [(doc, method)
            for doc in (binary_doc("cube", 4, ["0110", "1011"]), binary_doc("cube", 3, []))
            for method in ("interval", "recursive", "faces", "facet-intersection")]
COMPILED += [(binary_doc("cardinality", 4, ["1100", "0011"], s=2), "faces"),
             (LATTICE, "boxes")]


def pin_x1_to_zero(system):
    """The benchmark's fix-bound mutation: x1's bounds replaced by x1 = 0."""
    bounds = dict(system.bounds, x1=(Fraction(0), Fraction(0)))
    return LinearSystem(system.variables, system.n_original, system.rows, bounds,
                        dict(system.meta))


class TestProbesMatchFixings:
    """Box LPs and L1 probes give the report the fixings-only probes give."""

    def check(self, system, truth, X, trials=8, seed=5):
        expect = outcome(fixings_only_report(system, truth, X, trials, seed))
        assert outcome(verify_formulation(system, truth, X, trials, seed)) == expect
        return expect

    @pytest.mark.parametrize("doc, method", COMPILED,
                             ids=[f"{d['polytope']['type']}{d['n']}-{m}" for d, m in COMPILED])
    def test_compiled_formulations(self, doc, method, monkeypatch):
        problem = Problem(doc)
        system = compile_system(problem, method)
        truth = problem.enumerate_allowed()
        pinned = pinned_probes(monkeypatch)
        assert self.check(system, truth, problem.forbidden)["verdict"] == "pass"
        assert self.check(pin_x1_to_zero(system), truth, problem.forbidden)["verdict"] == "fail"
        # every binary point is a corner of [0,1]^n; the one lattice point
        # off the corners of [0,3]x[0,2] with no witness, (2, 0), is the
        # midpoint of the members (1, 0) and (3, 0), so it is not probed
        assert pinned == []

    def test_projection_not_in_unit_cube(self, monkeypatch):
        # x1 = 2y with y in [0, 1]; x2 in [-1, 3/2]; x1 + x2 <= 2
        system = LinearSystem.build(
            2, ("y",), [({"x1": 1, "y": -2}, "=", 0), ({"x2": 2}, "<=", 3),
                        ({"x1": 1, "x2": 1}, "<=", 2)],
            {"y": (0, 1), "x2": (-1, None)})
        truth = [(0, -1), (0, 0), (1, 1), (2, -1), (2, 0), (0, 1), (2, 1)]
        X = [(3, 0), (1, 0), (-1, -1), (0, 2), (1, -1)]
        pinned = pinned_probes(monkeypatch)
        report = self.check(system, truth, X)
        assert report["membership_failures"] == [[2, 1]]
        # the facet x2 <= 1 fails first: x2 reaches 3/2
        assert report["support_mismatches"][0] == {"objective": [0, -1], "lp": "-3/2",
                                                   "brute": "-1"}
        # corners (0, -1) and (2, -1) are L1 probes; (3, 0), (-1, -1) and
        # (0, 2) are outside the box [0, 2] x [-1, 3/2].  No unit pair
        # straddles (0, 1) or (2, 1), so they are probed first; (2, 1) fails,
        # so the rest of the truth is probed too
        assert pinned == [(0, 1), (2, 1), (0, 0), (1, 1), (2, 0), (1, 0), (1, -1)]

    def test_unbounded_projection_pins_every_point(self, monkeypatch):
        system = LinearSystem.build(2, (), [({"x1": 1, "x2": -1}, ">=", 0)],
                                    {"x2": (0, 1)})
        truth = [(0, 0), (1, 0), (1, 1), (2, 1)]
        X = [(0, 1), (5, 0)]
        pinned = pinned_probes(monkeypatch)
        report = self.check(system, truth, X)
        # the facet x1 - x2 <= 1 has no minimum
        assert report["support_mismatches"][0] == {"objective": [-1, 1], "lp": None,
                                                   "brute": "-1"}
        # no box (max x1 is unbounded), so every point is pinned except
        # (0, 0), which the optimal min-x1 box LP witnesses
        assert pinned == [(1, 0), (2, 1), (0, 1), (5, 0)]

    def test_infeasible_system_pins_every_point(self, monkeypatch):
        system = LinearSystem.build(2, (), [({"x1": 1}, ">=", 1), ({"x1": 1}, "<=", 0)],
                                    {"x2": (0, 1)})
        truth, X = [(1, 0)], [(0, 0)]
        pinned = pinned_probes(monkeypatch)
        report = self.check(system, truth, X)
        assert report["verdict"] == "fail"
        # conv(truth) is the point (1, 0): x1 = 1 and x2 = 0 fail at their min and max
        assert [m["objective"] for m in report["support_mismatches"][:4]] == \
            [[1, 0], [-1, 0], [0, 1], [0, -1]]
        assert pinned == truth + X

    def test_random_removed_points(self, monkeypatch):
        rng = random.Random(13)
        for _ in range(6):
            n = rng.randint(2, 4)
            X = [p for p in all_binary(n) if rng.random() < 0.3]
            system = recursive_formulation(X, n)
            if rng.random() < 0.5:
                system = pin_x1_to_zero(system)
            truth = [p for p in all_binary(n) if p not in X]
            self.check(system, truth, X, trials=4, seed=rng.randint(0, 99))
        # lattice boxes: the points no unit pair straddles are probed first,
        # and the rest only when one of those fails (x1 pinned to 0 fails
        # every point with x1 = u), each batch counted by the guard before it
        # runs, then the exclusion probes
        batches, seen = [], set()
        guard = fvx.verify._pin_guard
        monkeypatch.setattr(fvx.verify, "_pin_guard", lambda run, box, cuts, points, pinned:
                            batches.append(points) or guard(run, box, cuts, points, pinned))
        for _ in range(6):
            n, u = rng.randint(2, 3), rng.randint(1, 3)
            forbidden = [[rng.randint(0, u) for _ in range(n)] for _ in range(rng.randint(1, 5))]
            problem = Problem({"kind": "integral", "n": n, "forbidden": forbidden,
                               "polytope": {"type": "lattice-box", "l": [0] * n, "u": [u] * n}})
            system, truth = compile_system(problem, "boxes"), problem.enumerate_allowed()
            coords = [point_coords(p) for p in truth]
            for mutant in (system, pin_x1_to_zero(system)):
                del batches[:]
                report = self.check(mutant, truth, problem.forbidden, trials=4,
                                    seed=rng.randint(0, 99))
                passed = not report["membership_failures"]
                assert passed or mutant is not system
                assert batches[0] == fvx.verify._unstraddled(coords)
                rest = [p for p in coords if p not in batches[0]]
                assert batches[1:-1] == ([] if passed else [rest])
                seen.add((passed, bool(rest)))
        assert seen >= {(True, True), (False, True)}


class TestSatisfies:
    """The witness evaluator substitutes a point into the rows and bounds."""

    # each row has a private free variable y_i, and each bound sits on a
    # variable z_i in no row, so one change below breaks exactly one of them
    SYSTEM = LinearSystem.build(
        3, ("y1", "y2", "y3", "z1", "z2", "z3"),
        [({"x1": 1, "y1": 1}, "<=", 2), ({"x2": 1, "y2": -1}, ">=", -1),
         ({"x1": 1, "x2": 1, "x3": 1, "y3": 1}, "=", 3)],
        {"x1": (0, 1), "z1": (0, 1), "z2": ("1/2", None), "z3": (None, "-1/2")})
    POINT = {name: Fraction(v) for name, v in (
        ("x1", 1), ("x2", "1/2"), ("x3", "1/2"), ("y1", 1), ("y2", "3/2"),
        ("y3", 1), ("z1", 1), ("z2", "1/2"), ("z3", "-1/2"))}

    def test_feasible_point(self):
        assert fvx.verify.satisfies(self.SYSTEM, self.POINT)
        assert fvx.verify.satisfies(self.SYSTEM, dict(self.POINT, z1=Fraction(0)))

    @pytest.mark.parametrize("name, delta", [
        ("y1", "1/2"), ("y2", "1/2"), ("y3", "1/2"), ("y3", "-1/2"),  # rows
        ("z1", "1/2"), ("z2", "-1/2"), ("z3", "1/2"),                 # bounds
    ])
    def test_breach_by_one_half_rejected(self, name, delta):
        point = dict(self.POINT)
        point[name] += Fraction(delta)
        assert not fvx.verify.satisfies(self.SYSTEM, point)

    def test_missing_or_extra_variable_rejected(self):
        point = dict(self.POINT)
        del point["z3"]
        assert not fvx.verify.satisfies(self.SYSTEM, point)
        assert not fvx.verify.satisfies(self.SYSTEM, dict(self.POINT, w=Fraction(0)))


    def test_random_points_match_a_fraction_substitution(self):
        # rows and bounds are built around a point p0, tight or loose, so p0
        # and points near it fall on both sides; the reference substitutes
        # Fractions into the system's own rows and bounds
        rng = random.Random(61)

        def q():
            return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))

        def reference(system, point):
            for name, (lo, hi) in system.bounds.items():
                if (lo is not None and point[name] < lo) or (hi is not None and point[name] > hi):
                    return False
            for coeffs, rel, rhs in system.rows:
                lhs = sum((a * point[name] for name, a in coeffs.items()), start=Fraction(0))
                if lhs > rhs if rel == "<=" else lhs < rhs if rel == ">=" else lhs != rhs:
                    return False
            return True

        outcomes = set()
        for _ in range(300):
            n, m = rng.randint(1, 3), rng.randint(0, 2)
            names = [f"x{i + 1}" for i in range(n)] + [f"y{j + 1}" for j in range(m)]
            p0 = {name: q() for name in names}
            bounds = {name: (p0[name] - rng.choice((0, 0, Fraction(1, 2))) if rng.random() < 0.5
                             else None,
                             p0[name] + rng.choice((0, 0, Fraction(1, 3))) if rng.random() < 0.5
                             else None)
                      for name in names}
            rows = []
            for _ in range(rng.randint(1, 3)):
                coeffs = {name: q() for name in rng.sample(names, rng.randint(1, len(names)))}
                at = sum((a * p0[name] for name, a in coeffs.items()), start=Fraction(0))
                rel = rng.choice(("<=", "=", ">="))
                slack = 0 if rel == "=" else rng.choice((0, 0, Fraction(1, 5)))
                rows.append((coeffs, rel, at + slack if rel == "<=" else at - slack))
            system = LinearSystem.build(n, tuple(names[n:]), rows, bounds)
            for point in (p0, *({name: v + rng.choice((0, 0, q())) for name, v in p0.items()}
                               for _ in range(3))):
                expect = reference(system, point)
                assert fvx.verify.satisfies(system, point) == expect
                # the integer core takes any common denominator, not only the least
                den, ints = fvx.verify._scale(point.values())
                x = {name: 3 * v for name, v in zip(point, ints)}
                bounds = fvx.verify._int_bounds(system)
                assert fvx.verify._holds(system, bounds, 3 * den, x) == expect
                outcomes.add(expect)
        assert outcomes == {True, False}


class TestWitnesses:
    def test_integral_candidate_off_the_system_witnesses_nothing(self, monkeypatch):
        # the tableau's own (L, ints) readout, shifted by 1 in x1 alone, breaks
        # the row x1 = sum of its copies: the integer check must refuse it
        system = face_formulation(cube_hrep(3), [BinaryPoint.from_coords((0, 1, 0))])
        names = ("x1", "x2", "x3")
        run = fvx.verify._Witnesses(system, names)
        run.solve([1, 2, -3])
        assert list(run) == [(0, 0, 1)]
        readout = exactlp._Simplex.scaled_point

        def shifted(self):
            L, x = readout(self)
            return L, dict(x, x1=x["x1"] + L)

        monkeypatch.setattr(exactlp._Simplex, "scaled_point", shifted)
        run = fvx.verify._Witnesses(system, names)
        lp = run.solve([1, 2, -3])
        assert lp.is_optimal and lp.int_coords(names) == (0, 0, 1) and not run

    def test_forged_lp_points_witness_nothing(self, monkeypatch):
        # every optimal LP on the system claims a point with x1 = 1, which the
        # bound x1 = 0 refutes; the report must not take it as a witness
        problem = Problem(binary_doc("cube", 3, ["010"]))
        system = pin_x1_to_zero(compile_system(problem, "recursive"))
        truth = problem.enumerate_allowed()
        expect = outcome(fixings_only_report(system, truth, problem.forbidden, 20, 3))
        assert expect["membership_failures"]

        def forging(target, objective, start=None):
            lp = solve_lp(target, objective, start=start)
            if target is system and lp.is_optimal:
                forged = dict(lp.point, x1=Fraction(1))
                return type(lp)(lp.status, forged, lp.value, lp._tableau)
            return lp

        monkeypatch.setattr(fvx.verify, "solve_lp", forging)
        got = verify_formulation(system, truth, problem.forbidden, 20, 3)
        assert outcome(got) == expect


def lp_calls(monkeypatch):
    """Record each solve_lp call of fvx.verify: True when it is warm-started."""
    calls = []

    def recording(system, objective, start=None, fix=None):
        calls.append(start is not None)
        return solve_lp(system, objective, start=start, fix=fix)

    monkeypatch.setattr(fvx.verify, "solve_lp", recording)
    return calls


@pytest.mark.parametrize("doc, method, total, warm", [
    # 10 facet LPs, the first cold, witness 5 members; the other 9 are
    # corner probes.  The proof and the memberships decide every trial and
    # both removed points, so no trial or exclusion probe runs an LP
    (binary_doc("cube", 4, ["0110", "1011"]), "faces", 19, 18),
    # 6 facet LPs (the first cold) and 2 cold corner probes; the one point
    # pinned before, (2, 0), is the midpoint of (1, 0) and (3, 0)
    (LATTICE, "boxes", 8, 5),
], ids=["cube4-faces", "lattice-boxes"])
def test_pinned_lp_call_counts(doc, method, total, warm, monkeypatch):
    """A change in probe routing or warm starts shows here as a count diff
    (on renamed block columns, so that no point is lifted)."""
    problem = Problem(doc)
    system = renamed(compile_system(problem, method))
    calls = lp_calls(monkeypatch)
    report = verify_formulation(system, problem.enumerate_allowed(), problem.forbidden)
    assert report.passed
    assert (len(calls), sum(calls)) == (total, warm)


def cold_pins(monkeypatch):
    """Record each pinned probe of fvx.verify as (p, its start)."""
    probes = []

    def recording(system, objective, start=None, fix=None):
        if fix:
            probes.append((tuple(fix.values()), start))
        return solve_lp(system, objective, start=start, fix=fix)

    monkeypatch.setattr(fvx.verify, "solve_lp", recording)
    return probes


def test_pinned_probes_start_cold(monkeypatch):
    # every pinned probe is the cold template `fix`, also on the lattice box
    # past FACET_GUARD, where the witnesses have unit neighbours to offer;
    # the box LPs start from the least witness, and none of them lands on
    # (1, 0), so it is pinned too
    probes = cold_pins(monkeypatch)
    monkeypatch.setattr(fvx.verify, "FACET_GUARD", 0)
    problem = Problem(LATTICE)
    assert verify_formulation(renamed(compile_system(problem, "boxes")),
                              problem.enumerate_allowed(), problem.forbidden).passed
    assert probes == [(p, None) for p in [(1, 0), (2, 2), (3, 1), (1, 1), (2, 1)]]


def test_pinned_probe_with_no_witness_stays_cold(monkeypatch):
    # an infeasible system has no box (None) and no witness; an unbounded
    # projection has no box either, but the min-x1 box LP witnesses (0, 0)
    probes = cold_pins(monkeypatch)
    system = LinearSystem.build(2, (), [({"x1": 1}, ">=", 1), ({"x1": 1}, "<=", 0)],
                                {"x2": (0, 1)})
    verify_formulation(system, [(1, 0)], [(0, 0)])
    assert probes == [((1, 0), None), ((0, 0), None)]
    del probes[:]
    system = LinearSystem.build(2, (), [({"x1": 1, "x2": -1}, ">=", 0)], {"x2": (0, 1)})
    verify_formulation(system, [(0, 0), (1, 0), (1, 1), (2, 1)], [(0, 1), (5, 0)])
    assert probes == [(p, None) for p in [(1, 0), (2, 1), (0, 1), (5, 0)]]


def test_pinned_probe_results_never_become_witnesses(monkeypatch):
    # a result solved with `fix` would carry its fixings into every later
    # `start=` solve, and each point is probed once, so it proves nothing new
    # (on renamed block columns, so that no point is lifted)
    problem = Problem(LATTICE)
    system = renamed(compile_system(problem, "boxes"))
    pinned, stored = [], []

    def recording(system, objective, start=None, fix=None):
        lp = solve_lp(system, objective, start=start, fix=fix)
        if fix:
            pinned.append(lp)
        return lp

    def storing(run, p, lp):
        stored.append(lp)
        dict.__setitem__(run, p, lp)

    monkeypatch.setattr(fvx.verify, "solve_lp", recording)
    monkeypatch.setattr(fvx.verify._Witnesses, "__setitem__", storing)
    # with the facets proved, none ((2, 0) is the midpoint of (1, 0) and
    # (3, 0)); without, (1, 0), (2, 2), (3, 1) and the removed (1, 1) and
    # (2, 1), both inside the hull of the rest: each result is optimal, so
    # each could have been kept
    for guard, expect in ((fvx.verify.FACET_GUARD, 0), (0, 5)):
        monkeypatch.setattr(fvx.verify, "FACET_GUARD", guard)
        del pinned[:], stored[:]
        report = verify_formulation(system, problem.enumerate_allowed(), problem.forbidden)
        assert stored and not any(lp is witness for lp in pinned for witness in stored)
        assert len(pinned) == expect and all(lp.is_optimal for lp in pinned)
        assert report.passed


@pytest.mark.parametrize("doc, method, phase1, phase2", [
    (binary_doc("cube", 4, ["0110", "1011"]), "interval", 1, 60),
    (binary_doc("cube", 4, ["0110", "1011"]), "recursive", 3, 15),
    (binary_doc("cube", 4, ["0110", "1011"]), "faces", 1, 18),
    (binary_doc("cube", 4, ["0110", "1011"]), "facet-intersection", 1, 120),
    (LATTICE, "boxes", 12, 12),
], ids=["interval", "recursive", "faces", "facet-intersection", "boxes"])
def test_pinned_pivot_count(doc, method, phase1, phase2, monkeypatch):
    """A change in the tableau, the phase-1 pricing or the pivot rule shows here
    as a count diff in its phase (drive-out pivots count in phase 1), on
    renamed block columns, so that no point is lifted."""
    problem = Problem(doc)
    system = renamed(compile_system(problem, method))
    pivots = phase_pivots(monkeypatch)
    report = verify_formulation(system, problem.enumerate_allowed(), problem.forbidden,
                                trials=20, seed=0)
    assert report.passed
    assert pivots == {1: phase1, 2: phase2}


def lifted_runs(monkeypatch):
    """Record each run of fvx.verify, and each point that enters its witness
    dict, as [(run, [points stored])]."""
    runs, init = [], fvx.verify._Witnesses.__init__

    def recording(run, system, names):
        init(run, system, names)
        runs.append((run, []))

    def storing(run, p, lp):
        next(stored for r, stored in runs if r is run).append(p)
        dict.__setitem__(run, p, lp)

    monkeypatch.setattr(fvx.verify._Witnesses, "__init__", recording)
    monkeypatch.setattr(fvx.verify._Witnesses, "__setitem__", storing)
    return runs


@pytest.mark.parametrize("doc, method, rename, pivots, lps, warm, lifted, proof", [
    # every truth point probed that no facet LP witnesses is lifted, but
    # those of recursive's nested block, which keep their corner probes
    (binary_doc("cube", 4, ["0110", "1011"]), "interval", False, 26, 10, 9, 10, "facets"),
    (binary_doc("cube", 4, ["0110", "1011"]), "recursive", False, 14, 17, 16, 2, "facets"),
    # the blocks prove the projection inside the hull, and the lifts the
    # truth inside the projection: no LP; every binary point is probed
    (binary_doc("cube", 4, ["0110", "1011"]), "faces", False, 0, 0, 0, 14, "structural"),
    (binary_doc("cube", 4, ["0110", "1011"]), "facet-intersection", False, 0, 0, 0, 14,
     "structural"),
    # (2, 0) is the midpoint of (1, 0) and (3, 0), so it is neither
    (LATTICE, "boxes", False, 0, 0, 0, 6, "structural"),
    # renamed, the same files take the facet LPs and a corner LP per point
    (binary_doc("cube", 4, ["0110", "1011"]), "faces", True, 19, 19, 18, 0, "facets"),
    (binary_doc("cube", 4, ["0110", "1011"]), "facet-intersection", True, 121, 18, 17, 0,
     "facets"),
    (LATTICE, "boxes", True, 24, 8, 5, 0, "facets"),
], ids=["interval", "recursive", "faces", "facet-intersection", "boxes", "faces-renamed",
        "facet-intersection-renamed", "boxes-renamed"])
def test_lifted_route_counts(doc, method, rename, pivots, lps, warm, lifted, proof,
                             monkeypatch):
    """`test_pinned_pivot_count` on the compiled names: a point that a
    block's lift meets runs no LP, and no lifted point enters the witness
    dict; and with the proof from the blocks, no LP at all."""
    problem = Problem(doc)
    system = compile_system(problem, method)
    if rename:
        system = renamed(system)
    counts = phase_pivots(monkeypatch)
    calls = lp_calls(monkeypatch)
    runs = lifted_runs(monkeypatch)
    report = verify_formulation(system, problem.enumerate_allowed(), problem.forbidden,
                                trials=20, seed=0)
    assert report.passed and report.proof == proof
    assert (sum(counts.values()), len(calls), sum(calls), len(runs[0][0].lifted)) == \
        (pivots, lps, warm, lifted)
    [(run, stored)] = runs
    assert not run.lifted & {*stored, *run}


def lift_assignment(system, t, j):
    """Block j's lift of t: x = t, b{j}_y{i} = t_i (i <= n), lam{j} = 1 and
    every other variable 0."""
    values = {f"x{i + 1}": v for i, v in enumerate(t)}
    values.update({f"b{j}_y{i + 1}": v for i, v in enumerate(t)}, **{f"lam{j}": 1})
    return {name: Fraction(values.get(name, 0)) for name in system.variables}


def lifting_blocks(system, t):
    """The blocks j whose lift of t satisfies the system, by `satisfies`."""
    blocks = [name[3:] for name in system.variables if name.startswith("lam")]
    return [j for j in blocks if fvx.verify.satisfies(system, lift_assignment(system, t, j))]


def rescaled(system, row, name, a):
    """The system with the coefficient of `name` in its row `row` set to a."""
    rows = list(system.rows)
    coeffs, rel, rhs = rows[row]
    rows[row] = (dict(coeffs, **{name: a}), rel, rhs)
    return LinearSystem(system.variables, system.n_original, tuple(rows), system.bounds,
                        dict(system.meta))


def lift_suite():
    """Every compile method at n = 3..5, seeded removed points."""
    rng, out = random.Random(41), []
    for n in (3, 4, 5):
        vertices = ["".join(map(str, p)) for p in itertools.product((0, 1), repeat=n)]
        for method, size in (("interval", 3), ("recursive", 3), ("faces", 3),
                             ("facet-intersection", 2)):
            out.append((binary_doc("cube", n, rng.sample(vertices, size)), method))
        out.append((binary_doc("cardinality", n, [], s=n // 2), "faces"))
        u = 2 if n == 3 else 1
        forbidden = [[rng.randint(0, u) for _ in range(n)] for _ in range(3)]
        out.append(({"kind": "integral", "n": n, "forbidden": forbidden, "polytope":
                     {"type": "lattice-box", "l": [0] * n, "u": [u] * n}}, "boxes"))
    return out


def test_every_lifted_point_is_a_member(monkeypatch):
    # each point the lift answers has a block whose whole lifted assignment
    # meets every row and bound, and its cold pinned probe is optimal; in the
    # faces, facet-intersection and boxes files the lift answers every point
    # probed that no LP witnessed
    runs = lifted_runs(monkeypatch)
    seen = set()
    for doc, method in lift_suite():
        problem = Problem(doc)
        system = compile_system(problem, method)
        truth = [point_coords(p) for p in problem.enumerate_allowed()]
        del runs[:]
        assert verify_formulation(system, truth, problem.forbidden, trials=4).passed
        [(run, stored)] = runs
        names = [f"x{i + 1}" for i in range(system.n_original)]
        for t in run.lifted:
            assert lifting_blocks(system, t)
            assert solve_lp(system, [0] * len(t), fix=dict(zip(names, t))).is_optimal
        assert not run.lifted & {*stored, *run}
        if method in ("faces", "facet-intersection", "boxes"):
            assert run.lifted == set(fvx.verify._unstraddled(truth)) - run.keys()
        seen.add((method, bool(run.lifted)))
    assert {method for method, lifted in seen if lifted} == {
        "interval", "recursive", "faces", "facet-intersection", "boxes"}


@pytest.mark.parametrize("doc, method", [
    (binary_doc("cube", 4, ["0110", "1011"]), "faces"),
    (binary_doc("cube", 4, ["0110", "1011"]), "interval"),
    (binary_doc("cube", 4, ["0110", "1011"]), "recursive"),
    (LATTICE, "boxes"),
], ids=["faces", "interval", "recursive", "boxes"])
def test_the_lift_checks_every_row(doc, method):
    # block j's lift of a point with t_1 != 0 keeps meeting block j's own
    # rows when the coupling row of x1 reads b{j}_y1 twice, when the
    # convexity row reads lam{j} twice, or when another block k gets the
    # bound lam{k} >= 1, but breaks that row or bound.  On the system and on
    # each mutant, the lift accepts exactly the points of the truth's box,
    # one wider on each side, that some block's whole lift satisfies, and
    # the report is the LP route's (renamed block columns)
    problem = Problem(doc)
    system = compile_system(problem, method)
    truth = [point_coords(p) for p in problem.enumerate_allowed()]
    names = [f"x{i + 1}" for i in range(system.n_original)]
    grid = list(itertools.product(*(range(min(c) - 1, max(c) + 2) for c in zip(*truth))))
    blocks = [name[3:] for name in system.variables if name.startswith("lam")]
    j = max(blocks, key=lambda j: sum(t[0] != 0 and j in lifting_blocks(system, t)
                                      for t in truth))
    coupling = next(r for r, (coeffs, _, _) in enumerate(system.rows) if "x1" in coeffs)
    convexity = next(r for r, (coeffs, _, rhs) in enumerate(system.rows) if rhs == 1)
    lifted = set()
    for mutant in (system, rescaled(system, coupling, f"b{j}_y1", -2),
                   rescaled(system, convexity, f"lam{j}", 2),
                   system.with_bounds({f"lam{next(k for k in blocks if k != j)}": (1, None)})):
        run = fvx.verify._Witnesses(mutant, names)
        assert [run.member(t) for t in grid] == [bool(lifting_blocks(mutant, t)) for t in grid]
        if mutant is system:
            lifted = run.lifted
        else:
            assert lifted - run.lifted
        expect = outcome(verify_formulation(renamed(mutant), truth, problem.forbidden))
        assert outcome(verify_formulation(mutant, truth, problem.forbidden)) == expect


def test_fix_bound_mutant_fails_every_lifted_point_off_x1_0():
    # the benchmark's fix-bound mutant: every truth point with x1 != 0 is a
    # membership failure, though its block's own rows still hold
    for doc, method in lift_suite():
        problem = Problem(doc)
        truth = [point_coords(p) for p in problem.enumerate_allowed()]
        report = verify_formulation(pin_x1_to_zero(compile_system(problem, method)), truth,
                                    problem.forbidden, trials=4)
        assert report.membership_failures == [t for t in truth if t[0]]


def drop_row(system, label):
    """The system written as an LP file, with the row `label` left out."""
    lines = write_lp(system).split("\n")
    kept = [line for line in lines if not line.startswith(f" {label}:")]
    assert len(kept) == len(lines) - 1
    return parse_lp("\n".join(kept))


def certificate_mutation(system):
    """The benchmark's certificate mutation: one inequality fewer certified."""
    return dataclasses.replace(
        system, meta={**system.meta, "certified": system.counted_inequalities() - 1})


CUBE4 = binary_doc("cube", 4, ["0110", "1011"])
PLANTED = [(CUBE4, "interval", lambda s: drop_row(s, "r10")),
           (CUBE4, "faces", pin_x1_to_zero),
           (LATTICE, "boxes", certificate_mutation)]


@pytest.mark.parametrize("doc, method, mutate",
                         [(CUBE4, m, None) for m in ("interval", "recursive", "faces",
                                                     "facet-intersection")]
                         + [(LATTICE, "boxes", None)] + PLANTED,
                         ids=["interval", "recursive", "faces", "facet-intersection", "boxes",
                              "interval-r10-dropped", "faces-fix-bound", "boxes-certificate"])
def test_starts_never_change_a_report(doc, method, mutate, monkeypatch):
    problem = Problem(doc)
    system = compile_system(problem, method)
    if mutate is not None:
        system = mutate(system)
    truth = problem.enumerate_allowed()
    calls = lp_calls(monkeypatch)
    warm = verify_formulation(system, truth, problem.forbidden)
    # the unmutated faces, facet-intersection and boxes files (and a size
    # claim, which no LP reads) are proved from their blocks with no LP, so
    # their starts are checked on renamed copies, which take the facet LPs
    structural = method in ("faces", "facet-intersection", "boxes") \
        and mutate in (None, certificate_mutation)
    assert (warm.proof == "structural") == structural
    if structural:
        assert not calls
        system = renamed(system)
        warm = verify_formulation(system, truth, problem.forbidden)
    warm = warm.to_dict()
    assert warm["proof"] == "facets" and any(calls)

    def cold(target, objective, start=None, fix=None):
        return solve_lp(target, objective, fix=fix)

    monkeypatch.setattr(fvx.verify, "solve_lp", cold)
    assert verify_formulation(system, truth, problem.forbidden).to_dict() == warm
    assert warm["verdict"] == ("pass" if mutate is None else "fail")
    if method == "interval" and mutate is not None:
        facets = mismatch_dicts(facet_mismatches(system, truth))
        assert facets and warm["support_mismatches"][:len(facets)] == facets
        assert (len(warm["support_mismatches"]) - len(facets), warm["excluded_failures"]) == \
            (2, [[1, 0, 1, 1]])


def weakened_no_good_cut():
    """The 3-cube less {000} as [0,1]^3 plus x1 + x2 + x3 >= 1/2: the no-good
    cut of 000 weakened by 1/2, so its LP minimum is below the brute force
    one for every positive objective."""
    return LinearSystem.build(3, rows=[({"x1": 1, "x2": 1, "x3": 1}, ">=", "1/2")],
                              bounds={f"x{i}": (0, 1) for i in (1, 2, 3)})


NO_GOOD = binary_doc("cube", 3, ["000"])
EQUIVALENCE = [(doc, method, None) for doc, method in COMPILED] + [
    (CUBE4, "interval", lambda s: drop_row(s, "r10")),
    (NO_GOOD, "interval", lambda s: weakened_no_good_cut())]


@pytest.mark.parametrize("doc, method, defect", EQUIVALENCE,
                         ids=[f"{d['polytope']['type']}{d['n']}-{m}" for d, m in COMPILED]
                         + ["interval-r10-dropped", "no-good-weakened"])
def test_support_mismatches_match_a_cold_lp_per_trial(doc, method, defect, monkeypatch):
    """Trials that the box bound and a witness decide skip their LP; the
    mismatches must be those of one cold `solve_lp` per failed facet, then
    per seeded objective."""
    problem = Problem(doc)
    system = compile_system(problem, method)
    if defect is not None:
        system = defect(system)
    truth = [point_coords(p) for p in problem.enumerate_allowed()]
    calls = lp_calls(monkeypatch)
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        expect = facet_mismatches(system, truth)
        for _ in range(50):
            c = [rng.randint(-100, 100) for _ in range(system.n_original)]
            lp = solve_lp(system, c)
            brute = min(sum(ci * vi for ci, vi in zip(c, p)) for p in truth)
            if not lp.is_optimal or lp.value != brute:
                expect.append((tuple(c), lp.value if lp.is_optimal else None, brute))
        report = verify_formulation(system, truth, problem.forbidden, seed=seed)
        assert report.support_mismatches == expect
        assert bool(expect) == (defect is not None)
    assert len(calls) < 3 * 50  # some trials took no LP


def brute_facets(points):
    """Reference for a full-dimensional set: every hyperplane a.x = b through
    n affinely independent points with all points on one side, as a
    primitive (a, b) oriented so that a.x >= b; a from cofactors."""
    n = len(points[0])

    def det(m):
        return sum((-1) ** sum(s[j] > s[i] for i in range(len(s)) for j in range(i))
                   * prod(row[c] for row, c in zip(m, s))
                   for s in itertools.permutations(range(len(m)))) if m else 1

    out = set()
    for base, *rest in itertools.combinations(points, n):
        m = [[x - y for x, y in zip(q, base)] for q in rest]
        a = [(-1) ** i * det([row[:i] + row[i + 1:] for row in m]) for i in range(n)]
        if not any(a):
            continue
        b = sum(map(mul, a, base))
        values = [sum(map(mul, a, p)) - b for p in points]
        if max(values) <= 0:
            a, b = [-x for x in a], -b
        elif min(values) < 0:
            continue
        g = gcd(*a, b)
        out.add((tuple(x // g for x in a), b // g))
    return out


def rank(rows):
    """Rank of a list of rational rows, by Fraction elimination."""
    rows, r = [[Fraction(v) for v in row] for row in rows], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def hull_members(hull, points):
    return [fvx.verify._in_hull(hull, p) for p in points]


class TestHull:
    """`_hull` gives the equations and facets of conv(T), in ints."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_facets_equal_a_brute_force_list(self, n):
        rng = random.Random(n)
        grid = list(itertools.product(range(3), repeat=n))
        full = 0
        for _ in range(40):
            points = rng.sample(grid, rng.randint(1, min(len(grid), 12)))
            equations, facets = fvx.verify._hull(points, fvx.verify.FACET_GUARD)
            if equations:
                continue
            full += 1
            assert len(set(facets)) == len(facets)
            assert set(facets) == brute_facets(points)
        assert full >= 10

    def test_random_binary_sets_meet_the_facets_exactly_at_their_points(self):
        # a 0/1 point is a vertex of the cube, so it is in conv(T) iff it is in T
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(1, 6)
            cube = list(itertools.product((0, 1), repeat=n))
            truth = rng.sample(cube, rng.randint(1, len(cube)))
            hull = fvx.verify._hull(truth, fvx.verify.FACET_GUARD)
            assert hull is not None
            assert hull_members(hull, cube) == [p in truth for p in cube]

    def test_lattice_facets_are_valid_and_tight(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 4)
            grid = list(itertools.product(range(4), repeat=n))
            truth = rng.sample(grid, rng.randint(1, min(10, len(grid))))
            if rng.random() < 0.3:  # a set on a hyperplane: one equation or more
                truth = [p for p in truth if sum(p) == sum(truth[0])]
            equations, facets = fvx.verify._hull(truth, fvx.verify.FACET_GUARD)
            d = n - len(equations)
            for a, b in equations:
                assert all(sum(map(mul, a, p)) == b for p in truth)
            for a, b in facets:
                tight = [p for p in truth if sum(map(mul, a, p)) == b]
                assert all(sum(map(mul, a, p)) >= b for p in truth)
                # a facet holds d affinely independent points of T
                assert rank([[x - y for x, y in zip(p, tight[0])] for p in tight]) == d - 1
            probes = [tuple(rng.randint(-1, 4) for _ in range(n)) for _ in range(8)]
            assert hull_members((equations, facets), probes) == [
                in_convex_hull(p, truth) for p in probes]

    def test_past_the_limit_is_none(self):
        # one LP per live facet, two per equation; the 4-cube's live facets
        # reach 10 before its last points cut them to 8
        cube = list(itertools.product((0, 1), repeat=4))
        assert len(fvx.verify._hull(cube, 10)[1]) == 8
        assert fvx.verify._hull(cube, 9) is None
        simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]  # no point past the first d+1
        assert len(fvx.verify._hull(simplex, 4)[1]) == 4
        assert fvx.verify._hull(simplex, 3) is None
        segment = [(0, 0), (1, 1), (2, 2)]  # one equation, two facets
        assert [len(part) for part in fvx.verify._hull(segment, 4)] == [1, 2]
        assert fvx.verify._hull(segment, 3) is None
        assert fvx.verify._hull([(1, 2)], 4) == ([((1, 0), 1), ((0, 1), 2)], [])
        assert fvx.verify._hull([(1, 2)], 3) is None

    def test_the_proof_budget_is_facet_guard_at_any_trials(self, monkeypatch):
        # no trial runs at --trials 0, so only the proof's 7 LPs can refute
        # the weakened no-good cut
        truth = [p for p in itertools.product((0, 1), repeat=3) if any(p)]
        report = verify_formulation(weakened_no_good_cut(), truth, [(0, 0, 0)], trials=0)
        assert report.support_mismatches == [((1, 1, 1), Fraction(1, 2), 1)]
        assert not report.passed
        # the 4-cube's live facets reach 10: the proof runs at FACET_GUARD =
        # 10 and not at 9, whatever the trials
        proofs, facet_cuts = [], fvx.verify._facet_cuts
        monkeypatch.setattr(fvx.verify, "_facet_cuts",
                            lambda run, hull: proofs.append(len(hull[1])) or facet_cuts(run, hull))
        cube = LinearSystem.build(4, bounds={f"x{i + 1}": (0, 1) for i in range(4)})
        truth = list(itertools.product((0, 1), repeat=4))
        for guard in (9, 10):
            monkeypatch.setattr(fvx.verify, "FACET_GUARD", guard)
            for trials in (0, 1, 50):
                assert verify_formulation(cube, truth, [], trials=trials).passed
        assert proofs == [8, 8, 8]

    def test_a_large_random_truth_falls_back_quickly(self):
        # n=10 less 512 random points has about 1,500 facets, which take
        # 23 s to enumerate unguarded; the guard stops it early, and the run
        # samples trials instead
        rng = random.Random(10)
        X = sorted(rng.sample(list(itertools.product((0, 1), repeat=10)), 512))
        truth = [p for p in itertools.product((0, 1), repeat=10) if p not in set(X)]
        start = time.perf_counter()
        assert fvx.verify._hull(truth, fvx.verify.FACET_GUARD) is None
        assert time.perf_counter() - start < 5
        cube = LinearSystem.build(10, bounds={f"x{i + 1}": (0, 1) for i in range(10)})
        report = verify_formulation(cube, truth, X, trials=10, seed=1)
        assert report.to_dict() == fixings_only_report(cube, truth, X, 10, 1).to_dict()
        assert len(report.excluded_failures) == 512 and not report.membership_failures


EVERY = EQUIVALENCE + PLANTED[1:]  # PLANTED[0] is in EQUIVALENCE too


@pytest.mark.parametrize("doc, method, defect", EVERY,
                         ids=[f"{d['polytope']['type']}{d['n']}-{m}" for d, m in COMPILED]
                         + ["interval-r10-dropped", "no-good-weakened", "faces-fix-bound",
                            "boxes-certificate"])
def test_facet_proof_never_changes_a_report(doc, method, defect, monkeypatch):
    """The sampled run (no hull, as past FACET_GUARD) reports what the proof
    does, after the failed facets that only the proof lists; a file whose
    blocks prove the projection first runs with renamed block columns."""
    problem = Problem(doc)
    system = compile_system(problem, method)
    if defect is not None:
        system = defect(system)
    truth = problem.enumerate_allowed()
    assert fvx.verify._hull(fvx.verify._coords(truth), fvx.verify.FACET_GUARD) is not None
    reports = [verify_formulation(system, truth, problem.forbidden, seed=seed)
               for seed in (0, 1, 2)]
    if reports[0].proof == "structural":
        system = renamed(system)
        reports = [verify_formulation(system, truth, problem.forbidden, seed=seed)
                   for seed in (0, 1, 2)]
    assert {r.proof for r in reports} == {"facets"}
    facets = facet_mismatches(system, truth)
    assert bool(facets) == (method == "interval" and defect is not None)
    proved = [outcome(r) for r in reports]
    monkeypatch.setattr(fvx.verify, "FACET_GUARD", 0)
    assert fvx.verify._hull(fvx.verify._coords(truth), fvx.verify.FACET_GUARD) is None
    sampled = [verify_formulation(system, truth, problem.forbidden, seed=seed)
               for seed in (0, 1, 2)]
    assert {r.proof for r in sampled} == {"sampled"}
    assert [with_facets(outcome(r), facets) for r in sampled] == proved
    assert {r["verdict"] for r in proved} == {"pass" if defect is None else "fail"}


def test_an_equation_must_hold_at_its_min_and_max():
    # the truth lies on x1 + x2 + x3 = 1; the system meets each facet of its
    # hull (x_i >= 0, x_i + x_j <= 1) and x1 + x2 + x3 >= 1, but holds
    # (1/2, 1/2, 1/2): the equation's min holds and its max does not, so
    # nothing is proved; the failed max comes first, then the trials' mismatches
    system = LinearSystem.build(3, rows=[({"x1": 1, "x2": 1, "x3": 1}, ">=", 1)] + [
        ({f"x{i}": 1, f"x{j}": 1}, "<=", 1) for i, j in ((1, 2), (1, 3), (2, 3))],
        bounds={f"x{i}": (0, 1) for i in (1, 2, 3)})
    truth, X = [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 0), (1, 1, 0)]
    equations, facets = fvx.verify._hull(truth, fvx.verify.FACET_GUARD)
    assert len(equations) == 1 and len(facets) == 3
    report = verify_formulation(system, truth, X, trials=50, seed=0)
    assert report.support_mismatches[0] == ((-1, -1, -1), Fraction(-3, 2), -1)
    assert len(report.support_mismatches) > 1 and not report.excluded_failures
    assert outcome(report) == outcome(fixings_only_report(system, truth, X, 50, 0))



def support_lps(monkeypatch):
    """Record each `_Witnesses.solve` of fvx.verify as (phase, a, start,
    least): phase "facets", "box" or "trials", the start it passed to
    `solve_lp`, and the witness least under a (the first such) when it was
    called, or None.  Also record every `solve_lp` call as (start, fix)."""
    lps, calls, phase = [], [], ["trials"]

    def recording(system, objective, start=None, fix=None):
        calls.append((start, fix))
        return solve_lp(system, objective, start=start, fix=fix)

    solve = fvx.verify._Witnesses.solve

    def checking(run, a):
        values = [sum(map(mul, a, p)) for p in run]
        least = list(run.values())[values.index(min(values))] if values else None
        lp = solve(run, a)
        lps.append((phase[0], tuple(a), calls[-1][0], least))
        return lp

    def labelled(name, label):
        inner = getattr(fvx.verify, name)

        def wrapped(*args):
            phase[0] = label
            try:
                return inner(*args)
            finally:
                phase[0] = "trials"

        monkeypatch.setattr(fvx.verify, name, wrapped)

    monkeypatch.setattr(fvx.verify, "solve_lp", recording)
    monkeypatch.setattr(fvx.verify._Witnesses, "solve", checking)
    labelled("_facet_cuts", "facets")
    labelled("_projection_box", "box")
    return lps, calls


def test_every_support_lp_starts_from_the_witness_least_under_its_vector(monkeypatch):
    lps, _ = support_lps(monkeypatch)
    # the truth on x1 + x2 + x3 = 1 and a system whose projection holds
    # (1/2, 1/2, 1/2): 3 facet LPs, then the equation's sides, and the
    # failed side leaves the box and the trials to run
    system = LinearSystem.build(3, rows=[({"x1": 1, "x2": 1, "x3": 1}, ">=", 1)] + [
        ({f"x{i}": 1, f"x{j}": 1}, "<=", 1) for i, j in ((1, 2), (1, 3), (2, 3))],
        bounds={f"x{i}": (0, 1) for i in (1, 2, 3)})
    assert not verify_formulation(system, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], []).passed
    facets = [(a, start) for phase, a, start, _ in lps if phase == "facets"]
    assert [a for a, _ in facets[3:]] == [(1, 1, 1), (-1, -1, -1)]
    assert all(start is not None for _, start in facets[3:])
    # past FACET_GUARD the lattice run takes its 2n box LPs too, then trials:
    # renamed, since its blocks prove the compiled file with no LP
    monkeypatch.setattr(fvx.verify, "FACET_GUARD", 0)
    problem = Problem(LATTICE)
    system, truth = compile_system(problem, "boxes"), problem.enumerate_allowed()
    before = len(lps)
    assert verify_formulation(system, truth, problem.forbidden).proof == "structural"
    assert len(lps) == before
    assert verify_formulation(renamed(system), truth, problem.forbidden).passed
    box = [a for phase, a, _, _ in lps if phase == "box"]
    assert box == [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
                   (1, 0), (-1, 0), (0, 1), (0, -1)]
    assert all(start is least for *_, start, least in lps)
    assert {phase for phase, _, start, _ in lps if start is not None} == \
        {"facets", "box", "trials"}


def test_an_equation_side_above_b_is_a_cut(monkeypatch):
    # the truth lies on x3 = 0 and the projection, its hull moved to x3 = 1,
    # meets every facet: min x3 = 1 > 0 cuts every truth point off with no
    # probe LP, and only the far side, min -x3 = -1 < 0, is a mismatch
    system = LinearSystem.build(3, rows=[({"x1": 1, "x2": 1}, "<=", 1)],
                                bounds={"x1": (0, None), "x2": (0, None), "x3": (1, 1)})
    truth, X = [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(1, 1, 0)]
    equations, facets = fvx.verify._hull(truth, fvx.verify.FACET_GUARD)
    assert equations == [((0, 0, 1), 0)] and len(facets) == 3
    expect = facet_mismatches(system, truth)
    lps, calls = support_lps(monkeypatch)
    report = verify_formulation(system, truth, X, trials=0)
    assert report.support_mismatches == expect == [((0, 0, -1), -1, 0)]
    assert report.membership_failures == truth and report.excluded_failures == []
    # 3 facets and 2 equation sides, then 6 box LPs: every LP is a support
    # LP, so none is a corner probe or pins x
    assert [phase for phase, *_ in lps] == ["facets"] * 5 + ["box"] * 6
    assert len(calls) == len(lps) and not any(fix for _, fix in calls)
