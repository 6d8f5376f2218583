import random
from fractions import Fraction

import pytest

from fvx import (
    BinaryPoint,
    HPolytope,
    IntervalCode,
    LatticeBox,
    LatticePoint,
    LinearSystem,
    conv_K,
    cube_hrep,
    disjunctive_hull,
    face_formulation,
    facet_intersection_formulation,
    forbI_formulation,
    intersect_systems,
    interval_formulation,
    recursive_formulation,
    extension,
    separation,
    solve_lp,
    write_lp,
)
from fvx.errors import (
    AllForbidden,
    CardinalityCap,
    DomainError,
    EmptyInterval,
    EmptyUnion,
    GuardExceeded,
    NoFaceExcludes,
)
from conftest import all_binary, brute_min, feasible_at, random_forbidden


def binary_solutions(system, n):
    """Binary points feasible for a system in original variables only."""
    out = set()
    for p in all_binary(n):
        coords = p.coords()
        ok = True
        for coeffs, rel, rhs in system.rows:
            lhs = sum(coeffs.get(f"x{i + 1}", 0) * coords[i] for i in range(n))
            if (rel == "<=" and lhs > rhs) or (rel == ">=" and lhs < rhs) \
                    or (rel == "=" and lhs != rhs):
                ok = False
                break
        if ok:
            out.add(p.bits)
    return out


def assert_projection(system, n, allowed_codes, rng, directions=15):
    """Support equality + exhaustive membership/exclusion for small systems."""
    allowed = [BinaryPoint(n, b) for b in sorted(allowed_codes)]
    for _ in range(directions):
        c = [rng.randint(-10, 10) for _ in range(n)]
        lp = solve_lp(system, c)
        expect = brute_min(c, allowed)
        if expect is None:
            assert lp.is_infeasible
        else:
            assert lp.is_optimal and lp.value == expect, (c, lp.value, expect)
    for b in range(1 << n):
        assert feasible_at(system, [(b >> i) & 1 for i in range(n)]) == (b in allowed_codes)


class TestConvK:
    def test_rows_example(self):
        system = conv_K(IntervalCode(1, 2, 2))
        assert binary_solutions(system, 2) == {1, 2}

    def test_full_cube_no_rows(self):
        system = conv_K(IntervalCode(0, 7, 3))
        assert system.rows == ()
        assert binary_solutions(system, 3) == set(range(8))

    def test_single_point(self):
        system = conv_K(IntervalCode(3, 3, 2))
        assert binary_solutions(system, 2) == {3}

    def test_errors(self):
        with pytest.raises(EmptyInterval):
            conv_K(IntervalCode(3, 2, 2))
        with pytest.raises(DomainError):
            conv_K(IntervalCode(0, 8, 3))

    def test_integral_points_exact_all_intervals(self):
        # binary solutions of the row system are exactly K(a,b), n <= 4
        for n in (1, 2, 3, 4):
            for a in range(1 << n):
                for b in range(a, 1 << n):
                    system = conv_K(IntervalCode(a, b, n))
                    assert binary_solutions(system, n) == set(range(a, b + 1)), (n, a, b)

    def test_hull_support_small(self):
        rng = random.Random(31)
        for n in (1, 2, 3):
            for a in range(1 << n):
                for b in range(a, 1 << n):
                    system = conv_K(IntervalCode(a, b, n))
                    assert_projection(system, n, set(range(a, b + 1)), rng, directions=6)


class TestDisjunctiveHull:
    def test_two_points_line(self):
        zero = LinearSystem.build(1, bounds={"x1": (0, 0)})
        one = LinearSystem.build(1, bounds={"x1": (1, 1)})
        hull = disjunctive_hull([zero, one])
        assert solve_lp(hull, [1]).value == 0
        assert solve_lp(hull, [-1]).value == -1

    def test_single_block_identity(self):
        rng = random.Random(37)
        block = conv_K(IntervalCode(1, 2, 2))
        hull = disjunctive_hull([block])
        for _ in range(20):
            c = [rng.randint(-9, 9) for _ in range(2)]
            assert solve_lp(hull, c).value == solve_lp(block, c).value

    def test_two_squares(self):
        sq1 = LinearSystem.build(2, bounds={"x1": (0, 1), "x2": (0, 1)})
        sq2 = LinearSystem.build(2, bounds={"x1": (2, 3), "x2": (0, 1)})
        hull = disjunctive_hull([sq1, sq2])
        assert solve_lp(hull, [-1, 0]).value == -3
        assert solve_lp(hull, [1, 0]).value == 0

    def test_empty_union(self):
        with pytest.raises(EmptyUnion):
            disjunctive_hull([])

    def test_certificate_is_exact_for_plain_blocks(self):
        blocks = [conv_K(IntervalCode(0, 1, 2)), conv_K(IntervalCode(3, 3, 2))]
        hull = disjunctive_hull(blocks)
        assert hull.counted_inequalities() <= hull.meta["certified"]
        assert hull.meta["certified"] == sum(b.counted_inequalities() + 1 for b in blocks)

    def test_meta_keys_and_order(self):
        hull = disjunctive_hull([conv_K(IntervalCode(0, 1, 2)), conv_K(IntervalCode(3, 3, 2))])
        assert list(hull.meta.items()) == [
            ("method", "disjunctive-hull"), ("blocks", 2), ("certified", hull.meta["certified"]),
            ("formula", "sum over blocks of (counted+1)"),
            ("counted", hull.counted_inequalities()), ("raw_rows", len(hull.rows))]

    def test_rational_blocks_match_a_hull_built_through_build(self):
        # each nonzero block bound q enters as the row copy - q lam, scaled by build
        def reference(blocks):
            n = blocks[0].n_original
            variables, bounds, rows, names = [], {}, [], []
            for j, block in enumerate(blocks, start=1):
                names.append([f"b{j}_y{t + 1}" for t in range(len(block.variables))])
                variables += names[-1] + [f"lam{j}"]
                bounds[f"lam{j}"] = (0, None)
            for j, block in enumerate(blocks, start=1):
                lam, rename = f"lam{j}", dict(zip(block.variables, names[j - 1]))
                for coeffs, rel, rhs in block.rows:
                    rows.append(({**{rename[v]: a for v, a in coeffs.items()}, lam: -rhs}, rel, 0))
                for v in block.variables:
                    (lo, hi), copy = block.bound(v), rename[v]
                    clo = chi = None
                    if lo is not None and lo == hi:
                        if lo == 0:
                            clo = chi = 0
                        else:
                            rows.append(({copy: 1, lam: -lo}, "=", 0))
                    else:
                        if lo is not None:
                            if lo == 0:
                                clo = 0
                            else:
                                rows.append(({copy: 1, lam: -lo}, ">=", 0))
                        if hi is not None:
                            if hi == 0:
                                chi = 0
                            else:
                                rows.append(({copy: 1, lam: -hi}, "<=", 0))
                    if clo is not None or chi is not None:
                        bounds[copy] = (clo, chi)
            for i in range(n):
                rows.append(({f"x{i + 1}": 1, **{copies[i]: -1 for copies in names}}, "=", 0))
            rows.append(({f"lam{j}": 1 for j in range(1, len(blocks) + 1)}, "=", 1))
            meta = {"method": "disjunctive-hull", "blocks": len(blocks),
                    "certified": sum(b.counted_inequalities() + 1 for b in blocks),
                    "formula": "sum over blocks of (counted+1)"}
            return extension._finalize(LinearSystem.build(n, variables, rows, bounds, meta), meta)

        rng = random.Random(211)

        def q():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

        for _ in range(150):
            n = rng.randint(1, 3)
            blocks = []
            for _ in range(rng.randint(1, 4)):
                names = [f"x{i + 1}" for i in range(n)]
                names += [f"a{t}" for t in range(rng.randint(0, 2))]
                rows = [({v: q() for v in rng.sample(names, rng.randint(1, len(names)))},
                         rng.choice(("<=", ">=", "=")), q() + rng.choice((0, 1)))
                        for _ in range(rng.randint(0, 3))]
                bounds = {}
                for v in names:
                    lo, hi = sorted((q(), q()))
                    bounds[v] = rng.choice([(0, None), (None, 0), (0, 0), (lo, lo), (0, hi),
                                            (lo, hi), (lo, None), (None, hi), (None, None),
                                            (rng.randint(-2, 2), rng.randint(3, 4))])
                blocks.append(LinearSystem.build(n, names[n:], rows, bounds))
            hull = disjunctive_hull(blocks)
            expected = reference(blocks)
            assert write_lp(hull) == write_lp(expected)
            assert list(hull.meta.items()) == list(expected.meta.items())


class TestIntervalFormulation:
    def test_single_forbidden_origin(self):
        system = interval_formulation([BinaryPoint.from_string("00")], 2)
        assert system.meta["intervals"] == [(1, 3)]
        assert solve_lp(system, [-1, -1]).value == -2
        assert solve_lp(system, [1, 1]).value == 1

    def test_empty_forbidden(self):
        system = interval_formulation([], 2)
        assert system.meta["intervals"] == [(0, 3)]
        rng = random.Random(41)
        assert_projection(system, 2, {0, 1, 2, 3}, rng)

    def test_forbidden_101(self):
        system = interval_formulation([BinaryPoint.from_string("101")], 3)
        assert system.meta["intervals"] == [(0, 4), (6, 7)]
        rng = random.Random(43)
        assert_projection(system, 3, set(range(8)) - {5}, rng, directions=50)

    def test_all_forbidden(self):
        with pytest.raises(AllForbidden):
            interval_formulation(all_binary(2), 2)

    def test_consecutive_codes_drop_empty_intervals(self):
        X = [BinaryPoint(2, b) for b in (1, 2)]
        system = interval_formulation(X, 2)
        assert system.meta["intervals"] == [(0, 0), (3, 3)]
        rng = random.Random(47)
        assert_projection(system, 2, {0, 3}, rng)


class TestRecursiveFormulation:
    def test_forbidden_origin(self):
        system = recursive_formulation([BinaryPoint.from_string("00")], 2)
        assert solve_lp(system, [1, 1]).value == 1
        rng = random.Random(53)
        assert_projection(system, 2, {1, 2, 3}, rng)

    def test_base_case(self):
        system = recursive_formulation([BinaryPoint.from_string("1")], 1)
        assert solve_lp(system, [-1]).value == 0

    def test_random_instances_size_and_support(self):
        rng = random.Random(59)
        for _ in range(12):
            n = 4
            X = random_forbidden(rng, n, 3)
            system = recursive_formulation(X, n)
            assert system.counted_inequalities() <= n * (3 + 4)
            assert_projection(system, n, set(range(1 << n)) - {p.bits for p in X},
                              rng, directions=12)

    def test_projection_collapse(self):
        # X' covers the whole square: only flip points remain
        X = [BinaryPoint(2, b) for b in (0, 1, 2)]
        system = recursive_formulation(X, 2)
        rng = random.Random(61)
        assert_projection(system, 2, {3}, rng)

    def test_all_forbidden(self):
        with pytest.raises(AllForbidden):
            recursive_formulation(all_binary(1), 1)

    def test_counts_carried_up_the_recursion(self, monkeypatch):
        # each level's blocks used to be counted again: about 3,100 calls here
        rng = random.Random(67)
        n = 24
        X = random_forbidden(rng, n, 200)
        count = LinearSystem.counted_inequalities
        calls = []

        def counting(system):
            calls.append(system)
            return count(system)

        monkeypatch.setattr(LinearSystem, "counted_inequalities", counting)
        system = recursive_formulation(X, n)
        assert len(calls) <= n
        assert system.meta["counted"] == count(system) <= system.meta["certified"]


class TestFaceFormulation:
    def test_cube_one_forbidden(self):
        system = face_formulation(cube_hrep(2), [BinaryPoint.from_string("00")])
        assert system.meta["family"] == 2
        assert solve_lp(system, [1, 1]).value == 1

    def test_empty_forbidden_single_block(self):
        system = face_formulation(cube_hrep(2), [])
        rng = random.Random(67)
        base = LinearSystem.from_hpolytope(cube_hrep(2))
        for _ in range(20):
            c = [rng.randint(-9, 9) for _ in range(2)]
            assert solve_lp(system, c).value == solve_lp(base, c).value

    def test_triangle_edge(self):
        rows = list(cube_hrep(2).rows) + [((Fraction(1), Fraction(1)), "<=", Fraction(1))]
        P = HPolytope.of(2, rows)
        system = face_formulation(P, [BinaryPoint.from_string("00")])
        assert solve_lp(system, [1, 1]).value == 1
        assert solve_lp(system, [-1, -1]).value == -1

    def test_all_forbidden(self):
        with pytest.raises(AllForbidden):
            face_formulation(cube_hrep(1), all_binary(1))

    def test_guard_refuses_before_any_face_is_made(self, monkeypatch):
        X = [BinaryPoint.from_string(s) for s in ("000", "011", "110")]
        certified = 4 * (6 + 1)  # 4 faces, 6 bound rows
        monkeypatch.setattr(extension, "FACES_GUARD", certified - 1)

        def no_face(self, run):
            raise AssertionError("a face was made above the guard")

        monkeypatch.setattr(separation._Faces, "restriction", no_face)
        with pytest.raises(GuardExceeded, match=f"certify {certified} inequalities"):
            face_formulation(cube_hrep(3), X)


class TestFacetIntersection:
    def triangle(self):
        return HPolytope.of(2, [((1, 0), ">=", 0), ((0, 1), ">=", 0),
                                ((1, 1), "<=", 1)])

    def test_triangle_single_vertex(self):
        system = facet_intersection_formulation(
            self.triangle(), [0, 1, 2], [BinaryPoint.from_string("00")])
        assert system.meta["candidate_faces"] == 1
        # projection is the edge conv{(1,0),(0,1)}
        assert solve_lp(system, [1, 1]).value == 1
        assert solve_lp(system, [-1, -1]).value == -1
        assert solve_lp(system, [1, 0]).value == 0
        assert solve_lp(system, [-1, 0]).value == -1

    def test_cube_single_vertex(self):
        system = facet_intersection_formulation(
            cube_hrep(2), list(range(4)), [BinaryPoint.from_string("00")])
        rng = random.Random(71)
        assert_projection(system, 2, {1, 2, 3}, rng)

    def test_cube_two_vertices(self):
        system = facet_intersection_formulation(
            cube_hrep(2), list(range(4)),
            [BinaryPoint.from_string("00"), BinaryPoint.from_string("11")])
        assert system.meta["candidate_faces"] == 4
        assert system.meta["kept_blocks"] == 2
        rng = random.Random(73)
        assert_projection(system, 2, {1, 2}, rng)

    def test_empty_x_gives_p(self):
        system = facet_intersection_formulation(cube_hrep(2), list(range(4)), [])
        rng = random.Random(79)
        assert_projection(system, 2, {0, 1, 2, 3}, rng)

    def test_no_feasible_intersection(self):
        # x1 = 1 and x1 = 0 at once: the one candidate face is empty
        with pytest.raises(AllForbidden,
                           match="^no facet intersection is feasible; nothing remains$"):
            facet_intersection_formulation(cube_hrep(1), [0, 1], all_binary(1))

    def test_cardinality_cap(self):
        with pytest.raises(CardinalityCap):
            facet_intersection_formulation(cube_hrep(2), list(range(4)),
                                           all_binary(2)[:3])

    def test_no_face_excludes(self):
        # only list rows through (0,0): nothing excludes it
        with pytest.raises(NoFaceExcludes):
            facet_intersection_formulation(cube_hrep(2), [0, 1],
                                           [BinaryPoint.from_string("00")])


class TestDimension:
    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_dimension_is_refused(self, n):
        for build in (lambda: interval_formulation([], n), lambda: recursive_formulation([], n),
                      lambda: separation.separating_faces((), n),
                      lambda: face_formulation(HPolytope(n, ()), [])):
            with pytest.raises(DomainError, match="dimension must be positive"):
                build()


class TestIntersectSystems:
    def test_conjunction_projects_to_intersection(self):
        a = interval_formulation([BinaryPoint.from_string("00")], 2)
        b = interval_formulation([BinaryPoint.from_string("11")], 2)
        joint = intersect_systems([a, b])
        rng = random.Random(83)
        assert_projection(joint, 2, {1, 2}, rng)


class TestCertificates:
    def test_random_instances_certified(self):
        rng = random.Random(89)
        for _ in range(30):
            n = rng.randint(1, 5)
            X = random_forbidden(rng, n, rng.randint(0, (1 << n) - 1))
            si = interval_formulation(X, n)
            assert si.meta["counted"] <= si.meta["certified"]
            assert si.meta["certified"] == (len(X) + 1) * (4 * n + 3)
            sr = recursive_formulation(X, n)
            assert sr.meta["counted"] <= sr.meta["certified"]
            assert sr.meta["certified"] == n * (len(X) + 4)

    @pytest.mark.parametrize("n, forbidden", [(5, 0), (5, 2), (6, 3)])
    def test_each_block_and_the_result_counted_once(self, monkeypatch, n, forbidden):
        calls = []
        original = LinearSystem.counted_inequalities
        monkeypatch.setattr(LinearSystem, "counted_inequalities",
                            lambda self: calls.append(self) or original(self))

        def counts(build):
            del calls[:]
            system = build()
            return len(calls), system.meta

        rng = random.Random(97 + n + forbidden)
        X = random_forbidden(rng, n, forbidden)
        calls_made, meta = counts(lambda: interval_formulation(X, n))
        assert calls_made == len(meta["intervals"]) + 1
        assert counts(lambda: recursive_formulation(X, n))[0] == 1
        P = HPolytope.of(n, cube_hrep(n).rows + ((tuple([1] * n), "<=", n - 1),))
        assert counts(lambda: face_formulation(P, X))[0] == 2
        calls_made, meta = counts(
            lambda: facet_intersection_formulation(P, range(len(P.rows)), X[:2]))
        assert calls_made == meta["kept_blocks"] + 1
        box = LatticeBox.of((0,) * 3, (2,) * 3)
        units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
        capped = HPolytope.of(3, [(a, ">=", 0) for a in units] + [(a, "<=", 2) for a in units]
                              + [((1, 1, 1), "<=", 2)])
        lattice = [LatticePoint.from_coords([rng.randint(0, 2) for _ in range(3)])
                   for _ in range(forbidden)]
        calls_made, meta = counts(lambda: forbI_formulation(capped, lattice, box))
        assert calls_made == meta["kept_blocks"] + 1

    def test_face_and_facet_shape_bounds(self):
        rng = random.Random(91)
        for _ in range(20):
            n = rng.randint(1, 4)
            X = random_forbidden(rng, n, rng.randint(1, (1 << n) - 1))
            P = cube_hrep(n)
            sf = face_formulation(P, X)
            rows_p = len(P.rows)
            assert sf.meta["counted"] <= n * len(X) * (rows_p + 1) + n * len(X) + 1
            if len(X) <= 2:
                sfi = facet_intersection_formulation(P, list(range(rows_p)), X)
                assert sfi.meta["candidate_faces"] <= rows_p ** len(X)
                assert sfi.meta["counted"] <= sfi.meta["certified"]

    def test_projection_spot_checks_n5(self):
        rng = random.Random(93)
        for _ in range(4):
            X = random_forbidden(rng, 5, rng.randint(1, 4))
            allowed = set(range(32)) - {p.bits for p in X}
            assert_projection(interval_formulation(X, 5), 5, allowed, rng,
                              directions=8)
            assert_projection(recursive_formulation(X, 5), 5, allowed, rng,
                              directions=8)
