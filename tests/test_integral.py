import itertools
import random
from fractions import Fraction

import pytest

from fvx import (
    BinaryPoint,
    HPolytope,
    LatticeBox,
    LatticePoint,
    Objective,
    box_decomposition,
    cube_hrep,
    feasible_with_fixings,
    forbI_formulation,
    kbest,
    lattice_box_oracle,
    remove_facet_tu,
    separating_faces,
    solve_forbidden,
    solve_lp,
    tu_check,
    cube_oracle,
)
from fvx.errors import AllForbidden, DomainError, NonIntegralRhs, NotTU, SizeCap
from conftest import brute_min


def lattice_points(ranges):
    return [tuple(p) for p in itertools.product(*(range(r) for r in ranges))]


def boxes_as_sets(family):
    return [set(p.coords for p in box.iter_points()) for box in family.boxes]


class TestBoxDecomposition:
    def test_one_dim_example(self):
        fam = box_decomposition([(1,)], 3, 1)
        assert [(b.l.coords, b.u.coords) for b in fam.boxes] == \
            [((0,), (0,)), ((2,), (2,))]
        assert len(fam) == 2  # == 2 n |X|

    def test_two_dim_example(self):
        fam = box_decomposition([(1, 1)], 3, 2)
        assert [(b.l.coords, b.u.coords) for b in fam.boxes] == [
            ((0, 0), (0, 2)), ((2, 0), (2, 2)), ((1, 0), (1, 0)), ((1, 2), (1, 2))]
        assert sum(b.lattice_count() for b in fam.boxes) == 8

    def test_empty_and_full(self):
        fam = box_decomposition([], 3, 2)
        assert len(fam) == 1 and fam.boxes[0].lattice_count() == 9
        fam = box_decomposition(lattice_points((2, 2)), 2, 2)
        assert len(fam) == 0

    def test_binary_case_matches_separating_faces(self):
        rng = random.Random(97)
        for _ in range(40):
            n = rng.randint(1, 5)
            codes = rng.sample(range(1 << n), rng.randint(1, 1 << n))
            pts = [BinaryPoint(n, b) for b in codes]
            fam = box_decomposition([p.coords() for p in pts], 2, n)
            face_fixings = {f.fixed for f in separating_faces(pts, n).faces}
            box_fixings = set()
            for box, level in zip(fam.boxes, fam.levels):
                fixings = tuple((i + 1, box.l.coords[i]) for i in range(level))
                assert box.l.coords[level:] == tuple(0 for _ in range(n - level))
                assert box.u.coords[level:] == tuple(1 for _ in range(n - level))
                box_fixings.add(fixings)
            assert box_fixings == face_fixings

    def test_partition_and_count_random(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(1, 3)
            ranges = tuple(rng.randint(1, 4) for _ in range(n))
            lattice = lattice_points(ranges)
            size = rng.randint(0, len(lattice))
            X = set(rng.sample(lattice, size))
            fam = box_decomposition(X, ranges, n)
            assert len(fam) <= 2 * n * max(1, len(X))
            covered = [p for s in boxes_as_sets(fam) for p in s]
            assert len(covered) == len(set(covered))  # disjoint
            assert set(covered) == set(lattice) - X
            # per-level interval count: sum q_v <= 2|X| at every level
            for level in range(1, n + 1):
                q = sum(1 for lev in fam.levels if lev == level)
                if X:
                    assert q <= 2 * len(X)

    def test_validation(self):
        with pytest.raises(DomainError):
            box_decomposition([(3,)], 3, 1)
        with pytest.raises(DomainError):
            box_decomposition([(0, 0)], 3, 1)


class TestSolveForbiddenIntegral:
    def test_examples(self):
        oracle = lattice_box_oracle((0, 0), (2, 2))
        ambient = LatticeBox.of((0, 0), (2, 2))
        out = solve_forbidden(oracle, [LatticePoint.from_coords((0, 0))],
                              Objective.of([1, 1]), ambient)
        assert out.value == 1 and out.vertex.coords == (0, 1)

        all_pts = [LatticePoint.from_coords(p) for p in lattice_points((3, 3))]
        out = solve_forbidden(oracle, all_pts, Objective.of([1, 1]), ambient)
        assert not out.feasible

        out = solve_forbidden(oracle, [], Objective.of([1, -2]), ambient)
        assert out.value == oracle.minimize(Objective.of([1, -2])).value

    def test_matches_brute_force(self):
        rng = random.Random(103)
        for _ in range(60):
            n = rng.randint(1, 3)
            r = rng.randint(2, 4)
            ambient = LatticeBox.of((0,) * n, (r - 1,) * n)
            lattice = lattice_points((r,) * n)
            X = set(rng.sample(lattice, rng.randint(0, len(lattice))))
            c = Objective.of([rng.randint(-9, 9) for _ in range(n)])
            oracle = lattice_box_oracle((0,) * n, (r - 1,) * n)
            out = solve_forbidden(
                oracle, [LatticePoint.from_coords(p) for p in X], c, ambient)
            remaining = [LatticePoint.from_coords(p) for p in lattice if p not in X]
            expect = brute_min(c.c, remaining)
            if expect is None:
                assert not out.feasible
            else:
                assert out.feasible and out.value == expect

    def test_translated_ambient(self):
        oracle = lattice_box_oracle((-2, 5), (0, 7))
        ambient = LatticeBox.of((-2, 5), (0, 7))
        out = solve_forbidden(oracle, [LatticePoint.from_coords((-2, 5))],
                              Objective.of([1, 1]), ambient)
        assert out.value == 4  # (-2, 6) or (-1, 5); lex picks (-2, 6)
        assert out.vertex.coords == (-2, 6)


class TestKbestIntegral:
    def test_examples(self):
        o = lattice_box_oracle((0,), (2,))
        amb = LatticeBox.of((0,), (2,))
        vs, exhausted = kbest(o, Objective.of([1]), 2, ambient=amb)
        assert [v.coords for v in vs] == [(0,), (1,)] and not exhausted

        o = lattice_box_oracle((0,), (1,))
        amb = LatticeBox.of((0,), (1,))
        vs, exhausted = kbest(o, Objective.of([1]), 5, ambient=amb)
        assert [v.coords for v in vs] == [(0,), (1,)] and exhausted

    def test_matches_binary_kbest_on_unit_box(self):
        o = lattice_box_oracle((0, 0), (1, 1))
        amb = LatticeBox.of((0, 0), (1, 1))
        c = Objective.of([1, 2])
        integral, _ = kbest(o, c, 3, ambient=amb)
        binary, _ = kbest(cube_oracle(2), c, 3)
        assert [v.coords for v in integral] == [v.coords() for v in binary]


def box_hrep(l, u):
    n = len(l)
    rows = []
    for i in range(n):
        a = tuple(Fraction(1 if j == i else 0) for j in range(n))
        rows.append((a, ">=", Fraction(l[i])))
        rows.append((a, "<=", Fraction(u[i])))
    return HPolytope(n, tuple(rows))


class TestForbIFormulation:
    def test_grid_center_removed(self):
        # the center is not a vertex: the hull of the remaining 8 lattice
        # points is the full square again, so the center stays a member
        P = box_hrep((0, 0), (2, 2))
        ambient = LatticeBox.of((0, 0), (2, 2))
        system = forbI_formulation(P, [LatticePoint.from_coords((1, 1))], ambient, 3)
        assert solve_lp(system, [1, 1]).value == 0
        assert feasible_with_fixings(system, {"x1": 1, "x2": 1})
        for p in lattice_points((3, 3)):
            if p != (1, 1):
                assert feasible_with_fixings(system, {"x1": p[0], "x2": p[1]})

    def test_corner_removed(self):
        P = box_hrep((0, 0), (2, 2))
        ambient = LatticeBox.of((0, 0), (2, 2))
        system = forbI_formulation(P, [LatticePoint.from_coords((0, 0))], ambient)
        assert solve_lp(system, [1, 1]).value == 1
        assert not feasible_with_fixings(system, {"x1": 0, "x2": 0})

    def test_empty_forbidden_single_block(self):
        P = box_hrep((0, 0), (2, 2))
        ambient = LatticeBox.of((0, 0), (2, 2))
        system = forbI_formulation(P, [], ambient)
        assert system.meta["kept_blocks"] == 1
        assert solve_lp(system, [-1, -1]).value == -4

    def test_tu_style_polytope(self):
        rows = list(box_hrep((0, 0), (2, 2)).rows)
        rows.append((tuple(Fraction(1) for _ in range(2)), "<=", Fraction(2)))
        P = HPolytope(2, tuple(rows))
        ambient = LatticeBox.of((0, 0), (2, 2))
        system = forbI_formulation(P, [LatticePoint.from_coords((0, 0))], ambient)
        assert solve_lp(system, [1, 1]).value == 1
        assert system.meta["dropped_blocks"] >= 0

    def test_all_blocks_infeasible(self):
        # P = the single point (1,1); removing it empties every box
        P = box_hrep((1, 1), (1, 1))
        ambient = LatticeBox.of((0, 0), (2, 2))
        with pytest.raises(AllForbidden):
            forbI_formulation(P, [LatticePoint.from_coords((1, 1))], ambient)

    def test_range_assertion(self):
        P = box_hrep((0, 0), (2, 2))
        ambient = LatticeBox.of((0, 0), (2, 2))
        with pytest.raises(DomainError):
            forbI_formulation(P, [], ambient, 4)


class TestTuCheck:
    def test_examples(self):
        assert tu_check([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert not tu_check([[1, 1], [1, -1]])
        assert tu_check([[1, 1, 0], [0, 1, 1]])

    def test_entry_early_reject(self):
        assert not tu_check([[2, 0], [0, 1]])

    def test_size_cap(self):
        with pytest.raises(SizeCap):
            tu_check([[0] * 9 for _ in range(9)])

    def test_network_matrix(self):
        # incidence-style rows x_i - x_j are TU
        assert tu_check([[1, -1, 0], [0, 1, -1], [1, 0, -1]])

    def test_three_by_three_violation(self):
        # circulant with det 2, all entries 0/1, all 2x2 minors in range
        m = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        assert not tu_check(m)


class TestRemoveFacetTu:
    def test_triangle_facet(self):
        rows = list(cube_hrep(2).rows) + [((Fraction(1), Fraction(1)), "<=", Fraction(1))]
        P = HPolytope.of(2, rows)
        P2 = remove_facet_tu(P, 4)
        remaining = [p.to_string() for p in
                     (BinaryPoint(2, b) for b in range(4)) if P2.satisfies(p)]
        assert remaining == ["00"]

    def test_cube_face_drop(self):
        P = cube_hrep(2)
        P2 = remove_facet_tu(P, 2)  # x1 <= 1 becomes x1 <= 0
        remaining = sorted(p.to_string() for p in
                           (BinaryPoint(2, b) for b in range(4)) if P2.satisfies(p))
        assert remaining == ["00", "01"]

    def test_ge_row(self):
        P = cube_hrep(2)
        P2 = remove_facet_tu(P, 0)  # x1 >= 0 becomes x1 >= 1
        remaining = sorted(p.to_string() for p in
                           (BinaryPoint(2, b) for b in range(4)) if P2.satisfies(p))
        assert remaining == ["10", "11"]

    def test_not_tu(self):
        P = HPolytope.of(2, [((1, 1), "<=", 1), ((1, -1), "<=", 0)])
        P = HPolytope.of(2, list(P.rows) + [((Fraction(1), Fraction(1)),
                                             "<=", Fraction(1))])
        bad = HPolytope.of(2, [((1, 1), "<=", 1), ((1, -1), "<=", 0),
                               ((1, 1), "<=", 1), ((1, -1), "<=", 0)])
        # the matrix [[1,1],[1,-1],...] contains a det -2 minor
        with pytest.raises(NotTU):
            remove_facet_tu(bad, 0)

    def test_non_integral_rhs(self):
        P = HPolytope.of(1, [((1,), "<=", Fraction(1, 2)), ((1,), ">=", 0)])
        with pytest.raises(NonIntegralRhs):
            remove_facet_tu(P, 0)

    def test_equality_row_rejected(self):
        P = HPolytope.of(1, [((1,), "=", 1)])
        with pytest.raises(DomainError):
            remove_facet_tu(P, 0)
