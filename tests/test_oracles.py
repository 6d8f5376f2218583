import itertools
import random
from fractions import Fraction
from math import inf

import pytest

from fvx import (
    BinaryPoint,
    CountingOracle,
    CubeFace,
    HPolytope,
    LatticeBox,
    LatticePoint,
    LinearSystem,
    Objective,
    brute_force_oracle,
    cardinality_oracle,
    cube_hrep,
    cube_oracle,
    hrep_binary_oracle,
    kbest,
    lattice_box_oracle,
    solve_forbidden,
    spanning_tree_oracle,
)
from fvx import exactlp, oracles
from fvx.errors import DomainError, NotBinaryPolytope, UnboundedInput
from conftest import all_binary, random_01_hpolytope, random_rational_objective, spanning_trees

TRIANGLE = (3, [(0, 1), (1, 2), (0, 2)])


class TestCubeOracle:
    def test_examples(self):
        o = cube_oracle(3)
        out = o.minimize(Objective.of([-1, 2, 0]), CubeFace.of(3, {2: 1}))
        assert out.vertex.coords() == (1, 1, 0) and out.value == 1

        out = cube_oracle(2).minimize(Objective.of([0, 0]))
        assert out.vertex.coords() == (0, 0) and out.value == 0

        out = cube_oracle(1).minimize(Objective.of([3]), CubeFace.of(1, {1: 1}))
        assert out.vertex.coords() == (1,) and out.value == 3

    def test_never_infeasible(self):
        o = cube_oracle(2)
        for fix in ({}, {1: 0}, {1: 1, 2: 1}):
            assert o.minimize(Objective.of([1, -1]), CubeFace.of(2, fix)).feasible


class TestCardinalityOracle:
    def test_examples(self):
        out = cardinality_oracle(3, 2).minimize(Objective.of([5, 1, 2]))
        assert out.vertex.coords() == (0, 1, 1) and out.value == 3

        out = cardinality_oracle(2, 1).minimize(
            Objective.of([1, 1]), CubeFace.of(2, {1: 1, 2: 1}))
        assert not out.feasible

        out = cardinality_oracle(2, 0).minimize(Objective.of([1, 1]))
        assert out.vertex.coords() == (0, 0) and out.value == 0

    def test_tie_break_lex_smallest(self):
        out = cardinality_oracle(3, 1).minimize(Objective.of([1, 1, 1]))
        assert out.vertex.coords() == (0, 0, 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            cardinality_oracle(2, 3)


class TestSpanningTreeOracle:
    def test_examples(self):
        o = spanning_tree_oracle(*TRIANGLE)
        out = o.minimize(Objective.of([1, 2, 3]))
        assert out.vertex.to_string() == "110" and out.value == 3

        out = o.minimize(Objective.of([1, 2, 3]), CubeFace.of(3, {1: 0, 2: 0}))
        assert not out.feasible

        out = o.minimize(Objective.of([1, 2, 3]), CubeFace.of(3, {3: 1}))
        assert out.vertex.to_string() == "101" and out.value == 4

    def test_negative_costs_take_full_tree(self):
        o = spanning_tree_oracle(*TRIANGLE)
        out = o.minimize(Objective.of([-5, -1, -3]))
        assert out.vertex.to_string() == "101" and out.value == -8

    def test_validation(self):
        with pytest.raises(DomainError):
            spanning_tree_oracle(3, [(0, 1)])  # disconnected
        with pytest.raises(DomainError, match="not connected"):
            spanning_tree_oracle(2 ** 62, [(0, 1)])  # more nodes than edges + 1
        with pytest.raises(DomainError):
            spanning_tree_oracle(2, [(0, 0)])  # self-loop
        with pytest.raises(DomainError):
            spanning_tree_oracle(2, [(0, 2)])  # unknown node


class TestHrepOracle:
    def test_cube_agrees(self):
        o = hrep_binary_oracle(cube_hrep(2))
        out = o.minimize(Objective.of([-1, -1]))
        assert out.vertex.coords() == (1, 1) and out.value == -2

    def test_tie_break_lex_smallest(self):
        rows = list(cube_hrep(2).rows) + [((Fraction(1), Fraction(1)), "<=", Fraction(1))]
        o = hrep_binary_oracle(HPolytope.of(2, rows))
        out = o.minimize(Objective.of([-1, -1]))
        assert out.value == -1
        assert out.vertex.coords() == (0, 1)

    def test_not_binary_polytope(self):
        rows = list(cube_hrep(2).rows) + [((Fraction(2), Fraction(2)), "<=", Fraction(3))]
        o = hrep_binary_oracle(HPolytope.of(2, rows))
        with pytest.raises(NotBinaryPolytope):
            o.minimize(Objective.of([-1, -1]))

    def test_not_binary_message_names_the_first_bad_coordinate(self):
        # minimize -x1 - x2 - x3 over 0 <= x1 <= 1, 0 <= x2 <= hi2, 0 <= 2 x3 <= hi3:
        # the first coordinate outside {0, 1} is named, integral or not
        for hi2, hi3, message in ((2, 3, "x2 = 2"), (1, 3, "x3 = 3/2"), (2, 2, "x2 = 2")):
            rows = [((1, 0, 0), ">=", 0), ((1, 0, 0), "<=", 1), ((0, 1, 0), ">=", 0),
                    ((0, 1, 0), "<=", hi2), ((0, 0, 1), ">=", 0), ((0, 0, 2), "<=", hi3)]
            o = hrep_binary_oracle(HPolytope.of(3, rows))
            with pytest.raises(NotBinaryPolytope) as err:
                o.minimize(Objective.of([-1, -1, -1]))
            assert str(err.value) == f"LP vertex has coordinate {message}, not 0 or 1"

    def test_face_infeasible(self):
        rows = list(cube_hrep(2).rows) + [((Fraction(1), Fraction(1)), "<=", Fraction(1))]
        o = hrep_binary_oracle(HPolytope.of(2, rows))
        out = o.minimize(Objective.of([1, 1]), CubeFace.of(2, {1: 1, 2: 1}))
        assert not out.feasible

    def test_unbounded_input(self):
        o = hrep_binary_oracle(HPolytope.of(1, [((1,), ">=", 0)]))
        with pytest.raises(UnboundedInput):
            o.minimize(Objective.of([-1]))
        o = hrep_binary_oracle(HPolytope.of(1, [((1,), "<=", 0)]))  # c bounded, P not
        with pytest.raises(UnboundedInput):
            o.minimize(Objective.of([0]))

    def test_reprice_finds_unbounded_objective(self):
        # the perturbed objective is least at (0, 0), but c falls along (2, 1)
        o = hrep_binary_oracle(HPolytope.of(2, [((0, 1), ">=", 0), ((1, -2), ">=", 0)]))
        with pytest.raises(UnboundedInput):
            o.minimize(Objective.of([0, Fraction(-1, 1000)]))

    def test_folded_bound_fractional_vertex(self):
        o = hrep_binary_oracle(HPolytope.of(1, [((-2,), ">=", -1)]))  # x1 <= 1/2
        with pytest.raises(NotBinaryPolytope, match="x1 = 1/2"):
            o.minimize(Objective.of([-1]))

    def test_crossed_singletons_infeasible(self):
        o = hrep_binary_oracle(HPolytope.of(1, [((1,), ">=", 1), ((1,), "<=", 0)]))
        assert not o.minimize(Objective.of([1])).feasible

    def test_cube_folds_to_bounds(self):
        system = hrep_binary_oracle(cube_hrep(3)).system
        assert system == LinearSystem.from_hpolytope(cube_hrep(3))
        assert exactlp._folded(system) == ({f"x{i}": (0, 1) for i in (1, 2, 3)}, ())

    def test_kbest_with_equality_rows_matches_brute_force(self):
        # x1 + x2 = 1 and x3 - x4 = 0 in the 5-cube: the tableau substitutes x1
        # and x3 out (unit doubletons), and a face fixing either adds its row
        rows = list(cube_hrep(5).rows) + [((1, 1, 0, 0, 0), "=", 1), ((0, 0, 1, -1, 0), "=", 0)]
        P = HPolytope.of(5, rows)
        vertices = [v for v in all_binary(5) if P.satisfies(v)]
        assert len(vertices) == 8
        assert exactlp._Simplex(hrep_binary_oracle(P).system).substituted.keys() == {"x1", "x3"}
        rng = random.Random(97)
        for _ in range(20):
            c = random_rational_objective(rng, 5)
            X = rng.sample(all_binary(5), rng.randint(0, 8))
            got, exhausted = kbest(hrep_binary_oracle(P), c, len(vertices) + 1, X)
            expect = sorted((sum(q * x for q, x in zip(c.c, v.coords())), v.coords())
                            for v in vertices if v not in X)
            assert [v.coords() for v in got] == [coords for _, coords in expect] and exhausted

    def test_pinned_counts_k33_matching(self, monkeypatch):
        # matching polytope of K3,3 (edge 3i + j joins left i to right j)
        rows = []
        for i in range(3):
            rows.append((tuple(int(e // 3 == i) for e in range(9)), "<=", 1))
            rows.append((tuple(int(e % 3 == i) for e in range(9)), "<=", 1))
        rows += [(tuple(int(e == f) for e in range(9)), ">=", 0) for f in range(9)]
        pivots, builds = [], []
        pivot, init = exactlp._Simplex._pivot, exactlp._Simplex.__init__
        monkeypatch.setattr(exactlp._Simplex, "_pivot",
                            lambda self, r, s: pivots.append(s) or pivot(self, r, s))
        monkeypatch.setattr(exactlp._Simplex, "__init__",
                            lambda self, system: builds.append(system) or init(self, system))
        oracle = CountingOracle(hrep_binary_oracle(HPolytope.of(9, rows)))
        X = [BinaryPoint.from_string(v) for v in ("100010001", "010001100")]
        c = Objective.of([-3, -1, -2, -2, -3, -1, -1, -2, -3])
        got, _ = kbest(oracle, c, 3, X)
        # the first three allowed vertices in (value, coords) order, all of value -6
        assert [v.to_string() for v in got] == ["000010001", "001010100", "001100010"]
        # a pivot-path, query-count or tableau-build change shows here as a
        # count diff; every face is solved on a tableau derived from the one build
        assert (oracle.calls, len(pivots), len(builds)) == (21, 32, 1)

    def test_face_solves_match_with_bounds_children(self, monkeypatch):
        # each face's two LPs (the perturbed solve with the face as `fix`, then
        # the re-price from it) answer as on a cold with_bounds child
        calls = []

        def recording(system, objective, start=None, fix=None):
            result = exactlp.solve_lp(system, objective, start=start, fix=fix)
            calls.append((system, objective, start, fix, result))
            return result

        monkeypatch.setattr(oracles, "solve_lp", recording)
        rng = random.Random(79)
        checked = set()
        for _ in range(40):
            n = rng.randint(2, 5)
            rows = list(cube_hrep(n).rows)
            for _ in range(rng.randint(1, 3)):
                a = tuple(Fraction(rng.randint(-2, 3)) for _ in range(n))
                rows.append((a, rng.choice(("<=", ">=")), Fraction(rng.randint(-1, 4))))
            oracle = hrep_binary_oracle(HPolytope.of(n, rows))
            for _ in range(6):
                face = CubeFace.of(n, {i: rng.randint(0, 1)
                                       for i in rng.sample(range(1, n + 1), rng.randint(0, n))})
                del calls[:]
                try:
                    oracle.minimize(random_rational_objective(rng, n), face)
                except NotBinaryPolytope:
                    checked.add("fractional")
                child = oracle.system.with_bounds(
                    {f"x{i}": (Fraction(v), Fraction(v)) for i, v in face.fixed})
                previous = None
                for system, objective, start, fix, result in calls:
                    assert system is oracle.system
                    assert (fix or {}) == ({} if start else {f"x{i}": v for i, v in face.fixed})
                    expect = exactlp.solve_lp(child, objective, start=previous if start else None)
                    assert repr(result) == repr(expect)
                    previous = expect
                    checked.add((result.status, bool(face.fixed)))
        assert {"fractional", ("optimal", True), ("infeasible", True),
                ("optimal", False)} <= checked


class TestHrepBounds:
    def test_every_bound_holds(self):
        # bounds[i] is at most the score of every vertex of P in the face whose
        # coordinate i differs from the answer's, and inf only when there is
        # none; the objectives have zero and tied entries
        rng = random.Random(101)
        seen = {"tight": 0, "inf": 0, "none": 0, "higher": 0}
        for _ in range(150):
            P, vertices = random_01_hpolytope(rng)
            oracle = hrep_binary_oracle(P)
            n = P.n
            for _ in range(6):
                c = Objective.of([rng.choice((0, 0, 1, -1, 2, -2, Fraction(rng.randint(-9, 9), 2)))
                                  for _ in range(n)])
                face = CubeFace.of(n, {i: rng.randint(0, 1)
                                       for i in rng.sample(range(1, n + 1), rng.randint(0, n))})
                outcome = oracle.minimize(c, face)
                if not outcome.feasible:
                    continue
                w = outcome.vertex
                for i, bound in enumerate(outcome.bounds()):
                    scores = [c.scaled_dot(v) for v in vertices
                              if face.contains(v) and v.coords()[i] != w.coords()[i]]
                    if bound is None:
                        seen["none"] += 1
                        continue
                    assert bound == inf or type(bound) is int
                    assert bound >= outcome.score
                    if bound == inf:
                        assert not scores
                        seen["inf"] += 1
                    elif scores:
                        assert min(scores) >= bound
                        seen["tight" if min(scores) == bound else "higher"] += 1
        assert all(count > 30 for count in seen.values()), seen

    def test_bounds_are_left_out_of_eq_and_repr(self):
        oracle = hrep_binary_oracle(cube_hrep(3))
        c = Objective.of([1, -2, 0])
        outcome = oracle.minimize(c)
        plain = oracles.OracleOutcome.optimum(outcome.vertex, c)
        assert outcome.bounds is not None and plain.bounds is None
        assert outcome == plain and repr(outcome) == repr(plain)
        # x2 = 1 leaves for a score of 2 more, x1 = 0 and x3 = 0 for 1 and 0 more
        assert outcome.bounds() == [outcome.score + 1, outcome.score + 2, outcome.score]

    def test_allowed_optimum_asks_for_no_bound(self, monkeypatch):
        asked = []
        penalties = exactlp.LpResult.penalties
        monkeypatch.setattr(exactlp.LpResult, "penalties",
                            lambda self, steps: asked.append(steps) or penalties(self, steps))
        P, vertices = random_01_hpolytope(random.Random(5))
        c = Objective.of([1, -1, 2, -2, 3, -3][:P.n])
        oracle = CountingOracle(hrep_binary_oracle(P))
        best = min(vertices, key=lambda v: (c.scaled_dot(v), v.coords()))
        others = [v for v in all_binary(P.n) if v != best]
        assert solve_forbidden(oracle, others[:5], c).vertex == best
        assert oracle.calls == 1 and not asked
        kbest(oracle, c, 2, [best])
        assert asked


class TestBruteForce:
    def test_examples(self):
        mk = BinaryPoint.from_coords
        o = brute_force_oracle([mk((0, 1)), mk((1, 0))])
        out = o.minimize(Objective.of([1, 1]))
        assert out.vertex.coords() == (0, 1) and out.value == 1

        o = brute_force_oracle([mk((0, 0))])
        assert not o.minimize(Objective.of([1, 1]), CubeFace.of(2, {1: 1})).feasible

        o = brute_force_oracle(all_binary(3))
        out = o.minimize(Objective.of([1, 1, 1]))
        assert out.vertex.coords() == (0, 0, 0) and out.value == 0

    def test_integral_kind(self):
        pts = [LatticePoint.from_coords(c) for c in ((0, 2), (1, 1), (2, 0))]
        o = brute_force_oracle(pts)
        out = o.minimize(Objective.of([1, 0]), LatticeBox.of((1, 0), (2, 2)))
        assert out.vertex.coords == (1, 1)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            brute_force_oracle([])

    def test_kind_from_point_type(self):
        assert brute_force_oracle(all_binary(2)).integral is False
        assert brute_force_oracle([LatticePoint.from_coords((0, 1))]).integral is True

    def test_mixed_kinds_rejected(self):
        pts = [BinaryPoint.from_coords((0, 1)), LatticePoint.from_coords((0, 1))]
        for order in (pts, pts[::-1]):
            with pytest.raises(DomainError, match="mix"):
                brute_force_oracle(order)


class TestLatticeBoxOracle:
    def test_examples(self):
        o = lattice_box_oracle((0, 0), (2, 2))
        out = o.minimize(Objective.of([1, -1]))
        assert out.vertex.coords == (0, 2) and out.value == -2

        assert not o.minimize(Objective.of([1, 1]),
                              LatticeBox.of((3, 0), (3, 2))).feasible

        out = o.minimize(Objective.of([0, 0]))
        assert out.vertex.coords == (0, 0)

        out = o.minimize(Objective.of(["1/2", "-1/3"]), LatticeBox.of((-5, 1), (1, 9)))
        assert out.vertex.coords == (0, 2) and out.value == Fraction(-2, 3)
        assert out.score == -4  # the value times L = 6
        with pytest.raises(DomainError):
            o.minimize(Objective.of([1, 1]), LatticeBox.of((0,), (1,)))


def _oracle_fixtures(n):
    """(oracle, full vertex list) pairs for dimension n."""
    fixtures = [(cube_oracle(n), all_binary(n))]
    s = n // 2
    fixtures.append((cardinality_oracle(n, s),
                     [p for p in all_binary(n) if p.bits.bit_count() == s]))
    graphs = {3: TRIANGLE, 4: (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
              5: (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])}
    if n in graphs:
        nodes, edges = graphs[n]
        fixtures.append((spanning_tree_oracle(nodes, edges), spanning_trees(nodes, edges)))
    cap = (n + 1) // 2
    rows = list(cube_hrep(n).rows) + [(tuple(Fraction(1) for _ in range(n)), "<=", Fraction(cap))]
    fixtures.append((hrep_binary_oracle(HPolytope.of(n, rows)),
                     [p for p in all_binary(n) if p.bits.bit_count() <= cap]))
    return fixtures


class TestOracleAgreement:
    def test_random_restrictions_match_brute_force(self):
        # 200 seeded random (face, objective) pairs per oracle, n <= 5
        for n in (2, 3, 4, 5):
            rng = random.Random(100 + n)
            for oracle, vertices in _oracle_fixtures(n):
                reference = brute_force_oracle(vertices)
                for _ in range(200):
                    fixed = {i: rng.randint(0, 1)
                             for i in rng.sample(range(1, n + 1), rng.randint(0, n))}
                    face = CubeFace.of(n, fixed)
                    c = random_rational_objective(rng, n)
                    # the (value, coords)-least optimum, or Infeasible for both
                    assert oracle.minimize(c, face) == reference.minimize(c, face)

    def test_all_faces_small_dims(self):
        for n in (1, 2, 3):
            rng = random.Random(7 + n)
            for oracle, vertices in _oracle_fixtures(n):
                reference = brute_force_oracle(vertices)
                faces = []
                for spec in itertools.product((None, 0, 1), repeat=n):
                    faces.append(CubeFace.of(
                        n, {i + 1: v for i, v in enumerate(spec) if v is not None}))
                for face in faces:
                    for _ in range(5):
                        c = random_rational_objective(rng, n)
                        assert oracle.minimize(c, face) == reference.minimize(c, face)

    def test_integral_box_oracle_matches_brute_force(self):
        # 200 random (query box, objective) pairs per dimension, n <= 5
        for n in (1, 2, 3, 4, 5):
            rng = random.Random(300 + n)
            r = 3 if n <= 4 else 2
            lo = tuple(rng.randint(-2, 0) for _ in range(n))
            hi = tuple(l + r - 1 for l in lo)
            oracle = lattice_box_oracle(lo, hi)
            pts = list(LatticeBox.of(lo, hi).iter_points())
            reference = brute_force_oracle(pts)
            for _ in range(200):
                ql = tuple(rng.randint(-3, 2) for _ in range(n))
                qu = tuple(a + rng.randint(0, 3) for a in ql)
                box = LatticeBox.of(ql, qu)
                c = random_rational_objective(rng, n)
                mine = oracle.minimize(c, box)
                ref = reference.minimize(c, box)
                assert mine.feasible == ref.feasible
                if ref.feasible:
                    assert mine.value == ref.value
                    assert box.contains(mine.vertex)

    def test_determinism(self):
        rng = random.Random(3)
        for oracle, _ in _oracle_fixtures(4):
            c = random_rational_objective(rng, 4)
            face = CubeFace.of(4, {2: 1})
            first = oracle.minimize(c, face)
            for _ in range(3):
                again = oracle.minimize(c, face)
                assert again == first


class TestCountingOracle:
    def test_counts_and_preserves_kind(self):
        from fvx import CountingOracle

        wrapped = CountingOracle(cube_oracle(2))
        assert wrapped.integral is False
        wrapped.minimize(Objective.of([1, 1]))
        wrapped.minimize(Objective.of([1, 1]))
        assert wrapped.calls == 2

        wrapped = CountingOracle(lattice_box_oracle((0,), (1,)))
        assert wrapped.integral is True
        wrapped.minimize(Objective.of([1]))
        assert wrapped.calls == 1

    @pytest.mark.parametrize("oracle, c, X, expect", [
        (cube_oracle(5), ["1/3", "-1/6", "1/4", "-1/2", "1/12"],
         ["01010", "01011", "00010"],
         (10, ["00011", "01110", "01111", "11010"], ["-5/12", "-5/12", "-1/3", "-1/3"])),
        (cardinality_oracle(6, 3), ["-1/2", "1/3", "-1/2", "1/6", "0", "-1/4"],
         ["101001", "101000"],
         (14, ["101010", "101100", "001011", "100011"], ["-1", "-5/6", "-3/4", "-3/4"])),
        (spanning_tree_oracle(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
         ["1/2", "1/3", "1/2", "-1/6", "1/3", "1/4"], ["110001"],
         (12, ["010101", "010110", "001101", "100101"], ["5/12", "1/2", "7/12", "7/12"])),
    ], ids=["cube", "cardinality", "spanning-tree"])
    def test_pinned_kbest_counts(self, oracle, c, X, expect):
        # mixed denominators with value ties among the four answers; a change
        # in the order or number of oracle queries shows here as a count diff
        counting = CountingOracle(oracle)
        c = Objective.of(c)
        got, exhausted = kbest(counting, c, 4, [BinaryPoint.from_string(x) for x in X])
        assert not exhausted
        assert (counting.calls, [v.to_string() for v in got],
                [str(c.dot(v)) for v in got]) == expect
