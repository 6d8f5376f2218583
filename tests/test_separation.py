import dataclasses
import random
import time
from fractions import Fraction

import pytest

from fvx import (
    BinaryPoint,
    CountingOracle,
    CubeFace,
    HPolytope,
    LatticeBox,
    LatticePoint,
    Objective,
    brute_force_oracle,
    cardinality_oracle,
    cube_hrep,
    cube_oracle,
    hrep_binary_oracle,
    kbest,
    lattice_box_oracle,
    separating_faces,
    solve_forbidden,
    spanning_tree_oracle,
)
from fvx.core import point_coords
from fvx.errors import DomainError
from fvx.separation import _Boxes, _Faces, box_family
from conftest import (all_binary, brute_min, random_01_hpolytope, random_forbidden, random_objective,
                      spanning_trees)


def covered_codes(faces, n):
    out = set()
    for face in faces:
        for p in face.vertices():
            out.add(p.bits)
    return out


class TestSeparatingFaces:
    def test_example_single_point(self):
        fam = separating_faces([BinaryPoint.from_string("00")], 2)
        fixings = {f.fixed for f in fam}
        assert fixings == {((1, 1),), ((1, 0), (2, 1))}
        assert len(fam) == 2  # == n |X|

    def test_empty_and_full(self):
        fam = separating_faces([], 3)
        assert len(fam) == 1 and fam[0].mask == 0
        fam = separating_faces(all_binary(2), 2)
        assert fam == ()

    def test_dimension_check(self):
        with pytest.raises(DomainError):
            separating_faces([BinaryPoint.from_string("0")], 2)

    def test_separating_and_bounds_random(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(1, 6)
            size = rng.randint(1, 1 << n)
            X = random_forbidden(rng, n, size)
            codes = {p.bits for p in X}
            fam = separating_faces(X, n)
            # exact cover of the complement, no forbidden point in any face
            assert covered_codes(fam, n) == set(range(1 << n)) - codes
            # the faces are pairwise disjoint: their sizes add up to the complement
            assert sum(1 << (n - len(f.fixed)) for f in fam) == (1 << n) - len(codes)
            # size bounds: n|X| and the neighbor refinement
            assert len(fam) <= n * size
            outside_neighbors = {v ^ (1 << i) for v in codes
                                 for i in range(n)} - codes
            assert len(fam) <= len(outside_neighbors) or not outside_neighbors



def _prefix_levels_by_enumeration(codes, ranges):
    """Per level, the sorted codes of the prefixes that leave X, built from
    every child of every prefix of X with range(r): the reference for the
    gap routine."""
    levels = []
    prev, radix = {0}, 1
    for r in ranges:
        width = radix * r
        proj = {code % width for code in codes}
        levels.append(sorted({p + t * radix for p in prev for t in range(r)} - proj))
        prev, radix = proj, width
    return levels


def _faces_by_enumeration(X, n):
    levels = _prefix_levels_by_enumeration({p.bits for p in X}, (2,) * n)
    return tuple(CubeFace(n, (1 << i) - 1, w)
                 for i, level in enumerate(levels, start=1) for w in level)


def _boxes_by_enumeration(X, ambient):
    """Each level's prefixes decoded, sorted, and merged on consecutive last digits."""
    lo, hi = ambient.l.coords, ambient.u.coords
    ranges = tuple(u - l + 1 for l, u in zip(lo, hi))
    radices = [1]
    for r in ranges:
        radices.append(radices[-1] * r)
    codes = {sum((v - l) * m for v, l, m in zip(p, lo, radices)) for p in X}
    boxes = []
    for i, level in enumerate(_prefix_levels_by_enumeration(codes, ranges), start=1):
        runs = []
        for d in sorted(tuple(w // m % r for m, r in zip(radices, ranges[:i])) for w in level):
            if runs and runs[-1][0] == d[:-1] and runs[-1][2] + 1 == d[-1]:
                runs[-1][2] = d[-1]
            else:
                runs.append([d[:-1], d[-1], d[-1]])
        for prefix, first, last in runs:
            head = tuple(v + l for v, l in zip(prefix, lo))
            boxes.append(LatticeBox.of(head + (lo[i - 1] + first,) + lo[i:],
                                       head + (lo[i - 1] + last,) + hi[i:]))
    return tuple(boxes)


def _run_points(lattice, run):
    """The codes of the points of a run, by enumeration."""
    i, prefix, first, last = run
    m, r = lattice.radices[i], lattice.ranges[i]
    return {w for w in range(lattice.radices[-1])
            if w % m == prefix and first <= w // m % r <= last}


def _restriction_points(lattice, restriction):
    """The codes of the points of a face or box, by enumeration."""
    if isinstance(restriction, CubeFace):
        return {p.bits for p in restriction.vertices()}
    return lattice.codes(restriction.iter_points())


def _one_point_family(lattice, run, w):
    """The run minus its point w by enumeration: per level j from the run's,
    the maximal runs of the j-th digits other than w's of the points of the
    run that share w's first j digits, in digit order."""
    points = _run_points(lattice, run)
    family = []
    for j in range(run[0], len(lattice.ranges)):
        m, r = lattice.radices[j], lattice.ranges[j]
        digits = sorted({p // m % r for p in points if p % m == w % m} - {w // m % r})
        for d in digits:
            if family and family[-1][0] == j and family[-1][3] + 1 == d:
                family[-1][3] = d
            else:
                family.append([j, w % m, d, d])
    return [tuple(piece) for piece in family]


def _check_splits(rng, lattice):
    """For every run of the lattice and every point in it, the pieces of the
    split partition the run minus the point in the order of the enumerated
    one-point family, each piece holds the dealt points that lie in it, and
    each piece's restriction has the piece's points."""
    for i, r in enumerate(lattice.ranges):
        for prefix in range(lattice.radices[i]):
            for first in range(r):
                for last in range(first, r):
                    run = (i, prefix, first, last)
                    points = _run_points(lattice, run)
                    assert lattice.size(run) == len(points)
                    assert _restriction_points(lattice, lattice.restriction(run)) == points
                    inside = rng.sample(sorted(points), rng.randint(0, len(points)))
                    for w in points:
                        split = lattice.split(run, w, inside)
                        assert [piece for piece, _ in split] == _one_point_family(lattice, run, w)
                        seen = set()
                        for piece, held in split:
                            got = _run_points(lattice, piece)
                            assert _restriction_points(lattice, lattice.restriction(piece)) == got
                            assert held == [p for p in inside if p in got]
                            assert not got & seen
                            seen |= got
                        assert seen == points - {w}


class TestGapRoutine:
    """The gap routine gives the enumerated families, order included."""

    def test_faces_match_enumeration(self):
        rng = random.Random(59)
        for _ in range(300):
            n = rng.randint(1, 7)
            X = random_forbidden(rng, n, rng.randint(1, 1 << n))
            assert separating_faces(X, n) == _faces_by_enumeration(X, n)

    def test_boxes_match_enumeration(self):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(1, 4)
            lo = [rng.randint(-3, 3) for _ in range(n)]
            ambient = LatticeBox.of(lo, [v + rng.randint(0, 5) for v in lo])
            points = [p.coords for p in ambient.iter_points()]
            X = rng.sample(points, rng.randint(0, min(len(points), 12)))
            got = box_family(X, ambient)
            assert got == (_boxes_by_enumeration(X, ambient) if X else (ambient,))

    def test_count_is_the_family_size(self):
        # the faces guard counts the family from its runs, making no member
        rng = random.Random(73)
        for _ in range(200):
            n = rng.randint(1, 6)
            X = random_forbidden(rng, n, rng.randint(0, 1 << n))
            assert _Faces(n).count(X) == len(separating_faces(X, n))
            lo = [rng.randint(-3, 3) for _ in range(n)]
            ambient = LatticeBox.of(lo, [v + rng.randint(0, 2) for v in lo])
            points = [p.coords for p in ambient.iter_points()]
            X = rng.sample(points, rng.randint(0, min(len(points), 12)))
            assert _Boxes(ambient).count(X) == len(box_family(X, ambient))

    def test_split_box_is_one_point_family(self):
        rng = random.Random(67)
        for _ in range(12):
            n = rng.randint(1, 4)
            lo = [rng.randint(-3, 3) for _ in range(n)]
            hi = [v + rng.randint(0, 3 if n < 4 else 2) for v in lo]
            _check_splits(rng, _Boxes(LatticeBox.of(lo, hi)))

    def test_box_restriction_is_the_plain_decode(self):
        # the pieces of a split, in order or not, between runs of other
        # splits: the head read on from the last one equals a full decode
        rng = random.Random(109)
        for _ in range(40):
            n = rng.randint(1, 12)
            lo = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
            boxes = _Boxes(LatticeBox.of(lo, [v + rng.choice((0, 1, 2, 10 ** 6)) for v in lo]))
            runs = []
            for _ in range(20):
                i = rng.randrange(n)
                first = rng.randrange(boxes.ranges[i])
                run = (i, rng.randrange(boxes.radices[i]), first,
                       rng.randint(first, boxes.ranges[i] - 1))
                d = rng.randint(run[2], run[3])
                w = run[1] + (d + boxes.ranges[i] * rng.randrange(boxes.tails[i])) * boxes.radices[i]
                pieces = [piece for piece, _ in boxes.split(run, w, [])]
                if rng.random() < 0.3:
                    rng.shuffle(pieces)
                runs += [run, *pieces]
            for run in runs + rng.sample(runs, len(runs)):
                i, prefix, first, last = run
                head = []
                for l, r in zip(boxes.lo[:i], boxes.ranges):
                    prefix, d = divmod(prefix, r)
                    head.append(l + d)
                assert boxes.restriction(run) == LatticeBox.of(
                    (*head, lo[i] + first, *boxes.lo[i + 1:]),
                    (*head, lo[i] + last, *boxes.hi[i + 1:]))

    def test_wide_box_family_is_fast(self):
        rng = random.Random(71)
        W = 10 ** 5
        X = [tuple(rng.randint(0, W) for _ in range(3)) for _ in range(20)]
        start = time.perf_counter()
        family = box_family(X, LatticeBox.of((0, 0, 0), (W, W, W)))
        assert time.perf_counter() - start < 0.1
        assert len(family) <= 2 * 3 * len(X)
        assert sum(b.lattice_count() for b in family) == (W + 1) ** 3 - len(set(X))


class TestSolveForbidden:
    def test_examples(self):
        out = solve_forbidden(cube_oracle(3), [BinaryPoint.from_string("000")],
                              Objective.of([1, 1, 1]))
        assert out.value == 1 and out.vertex.bits.bit_count() == 1

        out = solve_forbidden(cube_oracle(2), [BinaryPoint.from_string("11")],
                              Objective.of([-1, -1]))
        assert out.value == -1

        out = solve_forbidden(cube_oracle(1), all_binary(1), Objective.of([1]))
        assert not out.feasible

    def test_lex_tie_break(self):
        out = solve_forbidden(cube_oracle(3), [BinaryPoint.from_string("000")],
                              Objective.of([1, 1, 1]))
        assert out.vertex.to_string() == "001"

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(80):
            n = rng.randint(1, 5)
            if rng.random() < 0.5:
                oracle, vertices = cube_oracle(n), all_binary(n)
            else:
                s = rng.randint(0, n)
                oracle = cardinality_oracle(n, s)
                vertices = [p for p in all_binary(n) if p.bits.bit_count() == s]
            X = random_forbidden(rng, n, rng.randint(0, min(6, 1 << n)))
            c = random_objective(rng, n)
            out = solve_forbidden(oracle, X, c)
            remaining = [p for p in vertices if p.bits not in {q.bits for q in X}]
            expect = brute_min(c.c, remaining)
            if expect is None:
                assert not out.feasible
            else:
                assert out.feasible and out.value == expect
                assert out.vertex.bits not in {q.bits for q in X}


class TestKbest:
    def test_examples(self):
        vs, exhausted = kbest(cube_oracle(2), Objective.of([1, 2]), 3)
        assert [v.to_string() for v in vs] == ["00", "10", "01"]
        assert exhausted is False

        vs, exhausted = kbest(cube_oracle(2), Objective.of([1, 2]), 5)
        assert len(vs) == 4 and exhausted is True

        vs, exhausted = kbest(cube_oracle(2), Objective.of([0, 0]), 2)
        assert [v.to_string() for v in vs] == ["00", "01"]

    def test_k_validation(self):
        with pytest.raises(DomainError):
            kbest(cube_oracle(1), Objective.of([1]), 0)

    def test_dominance_and_order(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 4)
            k = rng.randint(1, 10)
            c = random_objective(rng, n)
            vs, exhausted = kbest(cube_oracle(n), c, k)
            values = [c.dot(v) for v in vs]
            assert values == sorted(values)
            assert len({v.bits for v in vs}) == len(vs)
            rest = [p for p in all_binary(n) if p.bits not in {v.bits for v in vs}]
            if rest and vs:
                assert max(values) <= brute_min(c.c, rest)
            assert exhausted == (len(vs) < k)


def _ahead(c, X, found, k):
    """The r of the oracle-call bound, by brute force: the distinct points of
    X that come before the k-th answer in (value, coords) order, all of them
    when fewer than k answers came back.  The points given must be vertices."""
    X = set(X)
    if len(found) < k:
        return len(X)
    last = (c.dot(found[-1]), point_coords(found[-1]))
    return sum((c.dot(x), point_coords(x)) < last for x in X)


def _kbest_by_resolving(oracle, c, k, exclude=(), ambient=None):
    """k-best by one full solve per round with a growing forbidden list."""
    removed = list(exclude)
    found = []
    for _ in range(k):
        outcome = solve_forbidden(oracle, removed + found, c, ambient)
        if not outcome.feasible:
            return found, True
        found.append(outcome.vertex)
    return found, False


def _binary_instances(rng):
    """(oracle, vertices) pairs over the binary oracle kinds, small dimension."""
    n = rng.randint(1, 5)
    yield cube_oracle(n), all_binary(n)
    s = rng.randint(0, n)
    yield cardinality_oracle(n, s), [p for p in all_binary(n) if p.bits.bit_count() == s]
    nodes = rng.randint(2, 4)
    edges = [(u, v) for u in range(nodes) for v in range(u + 1, nodes)]
    yield spanning_tree_oracle(nodes, edges), spanning_trees(nodes, edges)
    m = rng.randint(1, 3)
    cap = rng.randint(1, m)
    cap_row = (tuple(Fraction(1) for _ in range(m)), "<=", Fraction(cap))
    yield (hrep_binary_oracle(HPolytope(m, cube_hrep(m).rows + (cap_row,))),
           [p for p in all_binary(m) if p.bits.bit_count() <= cap])
    points = rng.sample(all_binary(n), rng.randint(1, 1 << n))
    yield brute_force_oracle(points), points


class TestKbestLawlerMurty:
    def test_matches_resolving_binary(self):
        rng = random.Random(23)
        for _ in range(40):
            for oracle, vertices in _binary_instances(rng):
                n = oracle.n
                c = Objective.of([rng.randint(-2, 2) for _ in range(n)])
                exclude = rng.sample(all_binary(n), rng.randint(0, min(4, 1 << n)))
                k = rng.randint(1, len(vertices) + 2)
                got = kbest(oracle, c, k, exclude)
                assert got == _kbest_by_resolving(oracle, c, k, exclude)

    def test_matches_resolving_integral(self):
        rng = random.Random(29)
        for _ in range(150):
            n = rng.randint(1, 3)
            l = [rng.randint(-3, 3) for _ in range(n)]
            u = [v + rng.randint(0, 3) for v in l]
            ambient = LatticeBox.of(l, u)
            points = list(ambient.iter_points())
            if rng.random() < 0.5:
                oracle = lattice_box_oracle(l, u)
            else:
                oracle = brute_force_oracle(rng.sample(points, rng.randint(1, len(points))))
            c = Objective.of([rng.randint(-2, 2) for _ in range(n)])
            exclude = rng.sample(points, rng.randint(0, min(4, len(points))))
            k = rng.randint(1, len(points) + 2)
            got = kbest(oracle, c, k, exclude, ambient)
            assert got == _kbest_by_resolving(oracle, c, k, exclude, ambient)

    def test_oracle_call_bound_binary(self):
        rng = random.Random(31)
        # at n = 30, X empty, k = 100 the bound is 1 + 30 * 99 = 2,971 calls
        for n, size, k in ((30, 0, 100), (64, 50, 10), (8, 20, 40), (5, 31, 3)):
            X = [BinaryPoint(n, rng.getrandbits(n)) for _ in range(size)]
            oracle = CountingOracle(cube_oracle(n))
            c = Objective.of([rng.randint(-5, 5) for _ in range(n)])
            vs, _ = kbest(oracle, c, k, X)
            assert len(vs) == min(k, (1 << n) - len(set(X)))
            assert oracle.calls <= len(separating_faces(X, n)) + n * (k - 1)
            assert oracle.calls <= 1 + n * (k - 1 + _ahead(c, X, vs, k))

    def test_oracle_call_bound_integral(self):
        rng = random.Random(37)
        for n, width, size, k in ((3, 5, 0, 60), (6, 4, 40, 25), (2, 3, 8, 5)):
            l = [rng.randint(-4, 4) for _ in range(n)]
            ambient = LatticeBox.of(l, [v + width - 1 for v in l])
            X = rng.sample(list(ambient.iter_points()), size)
            oracle = CountingOracle(lattice_box_oracle(ambient.l.coords, ambient.u.coords))
            c = Objective.of([rng.randint(-5, 5) for _ in range(n)])
            vs, _ = kbest(oracle, c, k, X, ambient)
            assert len(vs) == min(k, width ** n - size)
            assert oracle.calls <= len(box_family(X, ambient)) + 2 * n * (k - 1)
            assert oracle.calls <= 1 + 2 * n * (k - 1 + _ahead(c, X, vs, k))

    def test_oracle_call_bound_random(self):
        # X random, or the r best vertices plus random ones, so that the
        # search has to pop and split forbidden vertices before its answers
        rng = random.Random(47)
        for _ in range(300):
            n = rng.randint(1, 7)
            s = rng.randint(0, n)
            inner, vertices = rng.choice((
                (cube_oracle(n), all_binary(n)),
                (cardinality_oracle(n, s), [p for p in all_binary(n) if p.bits.bit_count() == s])))
            c = Objective.of([rng.randint(-3, 3) for _ in range(n)])
            ranked = sorted(vertices, key=lambda p: (c.dot(p), p.coords()))
            X = rng.sample(all_binary(n), rng.randint(0, 1 << n))
            if rng.random() < 0.5:
                X += ranked[:rng.randint(0, len(ranked))]
            k = rng.randint(1, 6)
            oracle = CountingOracle(inner)
            vs, _ = kbest(oracle, c, k, X)
            codes = {p.bits for p in X}
            assert vs == [p for p in ranked if p.bits not in codes][:k]
            forbidden_vertices = [p for p in ranked if p.bits in codes]
            assert oracle.calls <= 1 + n * (k - 1 + _ahead(c, forbidden_vertices, vs, k))

    def test_allowed_optimum_makes_one_call(self):
        rng = random.Random(89)
        n = 64
        c = Objective.of([rng.choice((-3, -1, 2, 5)) for _ in range(n)])
        optimum = BinaryPoint(n, sum(1 << i for i, q in enumerate(c.c) if q < 0))
        X = {BinaryPoint(n, rng.getrandbits(n)) for _ in range(3000)} - {optimum}
        oracle = CountingOracle(cube_oracle(n))
        assert solve_forbidden(oracle, X, c).vertex == optimum
        assert oracle.calls == 1

    def test_pieces_of_forbidden_points_only_are_not_queried(self):
        oracle = CountingOracle(cube_oracle(12))
        c = Objective.of([1] * 12)
        assert not solve_forbidden(oracle, all_binary(12), c).feasible
        assert kbest(oracle, c, 5, all_binary(12)) == ([], True)
        assert oracle.calls == 0
        ambient = LatticeBox.of((0, 0), (2, 2))
        oracle = CountingOracle(lattice_box_oracle((0, 0), (2, 2)))
        c = Objective.of([1, 1])
        assert not solve_forbidden(oracle, list(ambient.iter_points()), c, ambient).feasible
        assert oracle.calls == 0
        # the root answer (0, 0) is forbidden; of its pieces [1, 2] x [0, 2]
        # and {0} x [1, 2], the second holds only forbidden points
        X = [(0, 0), (0, 1), (0, 2)]
        assert solve_forbidden(oracle, X, c, ambient).vertex.coords == (1, 0)
        assert oracle.calls == 2

    def test_bad_points_refused_before_the_search(self):
        # the root answer is allowed, so the search never reaches these points
        c = Objective.of([1, 1, 1])
        with pytest.raises(DomainError, match="point of dimension 2 in dimension-3"):
            solve_forbidden(cube_oracle(3), [BinaryPoint.from_string("11")], c)
        with pytest.raises(DomainError, match="point of dimension 2 in dimension-3"):
            kbest(cube_oracle(3), c, 2, [BinaryPoint.from_string("11")])
        ambient = LatticeBox.of((0, 0, 0), (3, 3, 3))
        oracle = lattice_box_oracle((0, 0, 0), (3, 3, 3))
        with pytest.raises(DomainError, match=r"point \[9, 9, 9\] outside the ambient box"):
            solve_forbidden(oracle, [(9, 9, 9)], c, ambient)
        with pytest.raises(DomainError, match=r"point \[9, 9, 9\] outside the ambient box"):
            kbest(oracle, c, 2, [LatticePoint.from_coords((9, 9, 9))], ambient)


class _Unbounded(CountingOracle):
    """Counts calls and strips the answers' bounds: every piece is queried
    when it is made, as an eager search would."""

    def minimize(self, c, restriction=None):
        return dataclasses.replace(super().minimize(c, restriction), bounds=None)


class TestBoundedSearch:
    def test_hrep_kbest_matches_brute_force(self):
        # random 0/1 H-polytopes, objectives with zero and tied entries, X of
        # vertices ahead and of other points; k past the end too
        rng = random.Random(107)
        lazy_calls = eager_calls = exhausted = 0
        for _ in range(200):
            P, vertices = random_01_hpolytope(rng)
            n = P.n
            c = Objective.of([rng.choice((0, 0, 1, -1, 2, -2, Fraction(rng.randint(-5, 5), 3)))
                              for _ in range(n)])
            ranked = sorted(vertices, key=lambda v: (c.dot(v), v.coords()))
            X = rng.sample(all_binary(n), rng.randint(0, min(6, 1 << n)))
            if rng.random() < 0.5:
                X += ranked[:rng.randint(0, len(ranked))]
            allowed = [v for v in ranked if v not in X]
            k = rng.randint(1, len(vertices) + 2)
            lazy = CountingOracle(hrep_binary_oracle(P))
            eager = _Unbounded(hrep_binary_oracle(P))
            got = kbest(lazy, c, k, X)
            assert got == (allowed[:k], len(allowed) < k)
            assert kbest(eager, c, k, X) == got
            assert lazy.calls <= eager.calls
            assert solve_forbidden(hrep_binary_oracle(P), X, c).vertex == (allowed or [None])[0]
            lazy_calls += lazy.calls
            eager_calls += eager.calls
            exhausted += got[1]
        assert 50 < exhausted < 150 and lazy_calls < 0.9 * eager_calls, (lazy_calls, eager_calls)


class _RecordingOracle(CountingOracle):
    """Counts calls and keeps every restriction queried."""

    def __init__(self, inner):
        super().__init__(inner)
        self.queried = []

    def minimize(self, c, restriction=None):
        self.queried.append(restriction)
        return super().minimize(c, restriction)


class TestFaceSplit:
    def test_split_partitions_face_minus_vertex(self):
        rng = random.Random(41)
        for n in range(1, 6):
            _check_splits(rng, _Faces(n))

    def test_cube_and_unit_box_query_the_same_points(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(1, 6)
            c = random_objective(rng, n)
            exclude = rng.sample(all_binary(n), rng.randint(0, min(6, 1 << n)))
            k = rng.randint(1, 1 << n)
            cube = _RecordingOracle(cube_oracle(n))
            box = _RecordingOracle(lattice_box_oracle((0,) * n, (1,) * n))
            faces, _ = kbest(cube, c, k, exclude)
            boxes, _ = kbest(box, c, k, [p.coords() for p in exclude],
                             LatticeBox.of((0,) * n, (1,) * n))
            assert [v.coords() for v in faces] == [v.coords for v in boxes]
            assert cube.calls == box.calls == len(cube.queried)
            assert [sorted(p.coords() for p in face.vertices()) for face in cube.queried] == \
                [sorted(p.coords for p in b.iter_points()) for b in box.queried]

    def test_kbest_queries_prefix_faces_only(self):
        rng = random.Random(43)
        queried = 0
        for _ in range(40):
            n = rng.randint(1, 7)
            for inner in (cube_oracle(n), cardinality_oracle(n, rng.randint(0, n))):
                oracle = _RecordingOracle(inner)
                exclude = rng.sample(all_binary(n), rng.randint(0, min(5, 1 << n)))
                kbest(oracle, random_objective(rng, n), rng.randint(1, 1 << n), exclude)
                assert all(f.mask & (f.mask + 1) == 0 for f in oracle.queried)
                queried += len(oracle.queried)
        assert queried > 1000
