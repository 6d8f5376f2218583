import random
import sys
from fractions import Fraction

import pytest

from fvx import (
    BinaryPoint,
    CubeFace,
    HPolytope,
    LatticeBox,
    LatticePoint,
    Objective,
    cube_hrep,
    format_rational,
    hamming_independent,
    no_good_cut,
    parse_rational,
)
from fvx import core
from fvx.core import point_coords
from fvx.errors import DomainError, GuardExceeded, NumeralTooLong


class TestRational:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("5") == Fraction(5)
        assert parse_rational("-7/2") == Fraction(-7, 2)
        assert parse_rational(4) == Fraction(4)

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_rational("abc")
        with pytest.raises(DomainError):
            parse_rational("1/0")
        with pytest.raises(DomainError):
            parse_rational(0.5)

    @pytest.mark.parametrize("text", ["1e4000000", "1E-3", "2.5e10", " -3e+2 ", "1_0e1_0"])
    def test_parse_refuses_exponent_notation(self, text):
        with pytest.raises(DomainError, match="exponent notation"):
            parse_rational(text)

    @pytest.mark.parametrize("value", [True, False])
    def test_parse_refuses_booleans(self, value):
        with pytest.raises(DomainError, match="boolean"):
            parse_rational(value)

    def test_format_refuses_values_too_long_to_print(self):
        with pytest.raises(GuardExceeded, match="too long to print"):
            format_rational(Fraction(10 ** 5000 + 1, 3))

    # each input with its value, or the (class, message) both parsers raise
    CORPUS = [
        ("7", 7), ("-0", 0), ("007", 7), ("+5", 5), (" 5", 5), ("5 ", 5), ("1_000", 1000),
        ("\u0663", 3),  # an Arabic-Indic digit: not ASCII, so Fraction parses it as before
        ("\u00b2", (DomainError, "not a rational: '\u00b2'")),
        ("", (DomainError, "not a rational: ''")),
        ("-", (DomainError, "not a rational: '-'")),
        ("--1", (DomainError, "not a rational: '--1'")),
        ("1/2", Fraction(1, 2)), ("4/2", 2), ("1.5", Fraction(3, 2)),
        ("1e3", (DomainError, "refusing exponent notation '1e3'; pass a 'p/q' string")),
        ("0x1f", (DomainError, "not a rational: '0x1f'")),
        (True, (DomainError, "refusing boolean True; pass a 'p/q' string")),
        (1.0, (DomainError, "refusing float 1.0; pass a 'p/q' string")),
        ("3" * 5000, (NumeralTooLong, "value too long to parse: "
                                      f"more than {sys.get_int_max_str_digits()} digits")),
    ]

    @pytest.mark.parametrize("text, expect", CORPUS, ids=lambda v: repr(v)[:12])
    def test_plain_numeral_path_keeps_every_answer(self, text, expect):
        if isinstance(expect, tuple):
            for parse in (core._exact, parse_rational):
                with pytest.raises(expect[0]) as info:
                    parse(text)
                assert type(info.value) is expect[0] and str(info.value) == expect[1]
            return
        exact, q = core._exact(text), parse_rational(text)
        assert exact == q == expect and type(q) is Fraction
        assert type(exact) is (int if q.denominator == 1 else Fraction)
        # only ASCII [-]digits take the int() path
        assert core._plain_int(text) == (expect if text in ("7", "-0", "007") else None)

    def test_format_round_trip(self):
        for text in ("3/4", "-2", "0", "17/3"):
            assert format_rational(parse_rational(text)) == text


class TestSigma:
    """The positional code sigma(v) = sum of 2**(i-1) v_i is `BinaryPoint.bits`,
    and its inverse is the constructor `BinaryPoint(n, k)`."""

    def test_encode_examples(self):
        assert BinaryPoint.from_coords((0, 0, 0)).bits == 0
        assert BinaryPoint.from_coords((1, 0, 1)).bits == 5
        assert BinaryPoint.from_coords((1, 1)).bits == 3

    def test_decode_examples(self):
        assert BinaryPoint(3, 0).coords() == (0, 0, 0)
        assert BinaryPoint(3, 6).coords() == (0, 1, 1)
        for k in (8, -1):
            with pytest.raises(DomainError, match="out of range for dimension 3"):
                BinaryPoint(3, k)

    def test_round_trip_exhaustive(self):
        for n in range(1, 17):
            for k in range(1 << n):
                assert BinaryPoint.from_coords(BinaryPoint(n, k).coords()).bits == k

    def test_monotone_in_lex_from_last(self):
        # sorting by code equals sorting by reversed-coordinate tuples
        for n in (1, 2, 3, 5, 7):
            pts = [BinaryPoint(n, b) for b in range(1 << n)]
            by_code = sorted(pts, key=lambda p: p.bits)
            by_rev = sorted(pts, key=lambda p: tuple(reversed(p.coords())))
            assert by_code == by_rev


class TestBinaryPoint:
    def test_string_round_trip(self):
        p = BinaryPoint.from_string("0110")
        assert p.coords() == (0, 1, 1, 0)
        assert p.to_string() == "0110"
        assert p.bits == 0b0110  # bit i-1 holds coordinate i

    def test_validation(self):
        with pytest.raises(DomainError):
            BinaryPoint(0, 0)
        with pytest.raises(DomainError):
            BinaryPoint(2, 4)
        with pytest.raises(DomainError):
            BinaryPoint(65, 0)
        with pytest.raises(DomainError):
            BinaryPoint.from_string("012")

    @pytest.mark.parametrize("coords", [[1.0, 0], [True, 0], [Fraction(1), 0]])
    def test_non_int_coordinate_refused(self, coords):
        with pytest.raises(DomainError, match="expected 0 or 1"):
            BinaryPoint.from_coords(coords)


class TestPointOrder:
    def test_points_order_by_coordinates(self):
        rng = random.Random(73)
        for n in range(1, 9):
            pts = [BinaryPoint(n, rng.getrandbits(n)) for _ in range(20)]
            assert sorted(pts) == sorted(pts, key=point_coords)
            lat = [LatticePoint.from_coords([rng.randint(-2, 2) for _ in range(n)])
                   for _ in range(20)]
            assert sorted(lat) == sorted(lat, key=point_coords)
        assert not BinaryPoint.from_string("01") < BinaryPoint.from_string("01")
        assert BinaryPoint.from_string("01") < BinaryPoint.from_string("10")


class TestHammingIndependent:
    def test_examples(self):
        mk = BinaryPoint.from_coords
        assert hamming_independent({mk((0, 0)), mk((1, 1))})
        assert not hamming_independent({mk((0, 0)), mk((0, 1))})
        assert hamming_independent({mk((0, 1, 0))})
        assert hamming_independent(set())

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            hamming_independent({BinaryPoint(2, 0), BinaryPoint(3, 0)})

    def test_matches_the_pairwise_check(self):
        # the one-flip lookup against every pair at Hamming distance 1
        rng = random.Random(5)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 9)
            pts = [BinaryPoint(n, rng.randrange(1 << n)) for _ in range(rng.randint(0, 12))]
            pairwise = not any((p.bits ^ q.bits).bit_count() == 1 for p in pts for q in pts)
            assert hamming_independent(pts) == pairwise
            outcomes.add(pairwise)
        assert outcomes == {True, False}


class TestNoGoodCut:
    def test_examples(self):
        assert no_good_cut(BinaryPoint.from_coords((0, 0, 0))) == ((1, 1, 1), ">=", 1)
        assert no_good_cut(BinaryPoint.from_coords((1, 1))) == ((-1, -1), ">=", -1)
        assert no_good_cut(BinaryPoint.from_coords((1, 0))) == ((-1, 1), ">=", 0)

    def test_separates_exactly_v_exhaustively(self):
        # satisfied by every other binary point, violated by v, up to n = 10
        for n in range(1, 11):
            for vbits in range(1 << n):
                coeffs, rel, rhs = no_good_cut(BinaryPoint(n, vbits))
                assert rel == ">="
                mask_pos = ~vbits & ((1 << n) - 1)
                for ubits in range(1 << n):
                    lhs = (ubits & mask_pos).bit_count() - (ubits & vbits).bit_count()
                    assert (lhs >= rhs) == (ubits != vbits)

    def test_independent_set_cuts_cube(self):
        # cube + cuts keeps exactly the complement (small seeded version;
        # the acceptance suite runs the full n <= 6 check)
        rng = random.Random(5)
        for n in (2, 3, 4):
            for _ in range(20):
                X = []
                for b in rng.sample(range(1 << n), rng.randint(1, 1 << (n - 1))):
                    cand = BinaryPoint(n, b)
                    if hamming_independent(X + [cand]):
                        X.append(cand)
                cuts = [no_good_cut(v) for v in X]
                forbidden = {v.bits for v in X}
                for ubits in range(1 << n):
                    u = BinaryPoint(n, ubits).coords()
                    ok = all(sum(a * x for a, x in zip(c, u)) >= r for c, _, r in cuts)
                    assert ok == (ubits not in forbidden)


class TestCubeFace:
    def test_basic(self):
        face = CubeFace.of(3, {1: 1, 3: 0})
        assert face.fixed == ((1, 1), (3, 0))
        assert (face.mask, face.bits) == (0b101, 0b001)
        assert face.contains(BinaryPoint.from_string("110"))
        assert not face.contains(BinaryPoint.from_string("011"))
        assert sorted(p.to_string() for p in face.vertices()) == ["100", "110"]

    def test_improper(self):
        face = CubeFace.improper(2)
        assert face.mask == 0
        assert len(list(face.vertices())) == 4

    def test_validation(self):
        with pytest.raises(DomainError):
            CubeFace.of(2, {3: 1})
        with pytest.raises(DomainError):
            CubeFace.of(2, {1: 2})
        for n, mask, bits in [(2, 4, 0),     # mask >= 2^n
                              (2, -1, 0),    # negative mask
                              (2, 1, 2),     # bits outside the mask
                              (0, 0, 0), (65, 0, 0)]:
            with pytest.raises(DomainError):
                CubeFace(n, mask, bits)

    @pytest.mark.parametrize("fixings", [{1.9: 1}, {1: 1.0}, {1: True}, {Fraction(1): 0}])
    def test_non_int_fixing_refused(self, fixings):
        # int() would truncate 1.9 to coordinate 1 and fix it
        with pytest.raises(DomainError, match="not a pair of integers"):
            CubeFace.of(2, fixings)

    def test_of_agrees_with_a_dict_reference(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 8)
            fixings = {i: rng.randint(0, 1)
                       for i in rng.sample(range(1, n + 1), rng.randint(0, n))}
            face = CubeFace.of(n, fixings)
            points = [BinaryPoint(n, b) for b in range(1 << n)]  # by increasing bits
            inside = [p for p in points if all(p.coords()[i - 1] == v for i, v in fixings.items())]
            assert [p for p in points if face.contains(p)] == inside
            assert list(face.vertices()) == inside
            assert len(inside) == 1 << (n - face.mask.bit_count())
            assert face.fixed == tuple(sorted(fixings.items()))


class TestLatticeBox:
    def test_contains_count_iter(self):
        box = LatticeBox.of((0, -1), (2, 1))
        assert box.lattice_count() == 9
        assert box.contains(LatticePoint.from_coords((1, 0)))
        assert not box.contains(LatticePoint.from_coords((3, 0)))
        pts = list(box.iter_points())
        assert len(pts) == 9
        assert pts == sorted(pts, key=lambda p: p.coords)

    def test_validation(self):
        with pytest.raises(DomainError):
            LatticeBox.of((1,), (0,))

    @pytest.mark.parametrize("l, u", [((0.5,), (2,)), ((0,), (2.0,)), ((0,), (Fraction(2),)),
                                      ((False,), (2,))])
    def test_non_int_corner_refused(self, l, u):
        # int() would read l = (0.5,) as 0
        with pytest.raises(DomainError, match="is not an integer"):
            LatticeBox.of(l, u)

    @pytest.mark.parametrize("coords", [(1, 0.5), (1.0, 2), (Fraction(1, 1), 0), (True, 0)])
    def test_non_int_lattice_point_refused(self, coords):
        with pytest.raises(DomainError, match="is not an integer"):
            LatticePoint.from_coords(coords)


class TestHPolytope:
    def test_satisfies_and_cube(self):
        cube = cube_hrep(2)
        assert len(cube.rows) == 4
        assert cube.satisfies(BinaryPoint.from_string("10"))
        tri = HPolytope.of(2, [((1, 1), "<=", 1), ((1, 0), ">=", 0), ((0, 1), ">=", 0)])
        assert tri.satisfies(BinaryPoint.from_string("01"))
        assert not tri.satisfies(BinaryPoint.from_string("11"))

    @pytest.mark.parametrize("point", [BinaryPoint(2, 3), BinaryPoint(4, 0),
                                       LatticePoint.from_coords((0, 0, 0, 0))])
    def test_satisfies_refuses_another_dimension(self, point):
        with pytest.raises(DomainError, match="dimension mismatch"):
            cube_hrep(3).satisfies(point)

    def test_validation(self):
        with pytest.raises(DomainError):
            HPolytope.of(2, [((1,), "<=", 1)])
        with pytest.raises(DomainError):
            HPolytope.of(1, [((1,), "<", 1)])


def plain_dot(c, coords):
    return sum((q * v for q, v in zip(c.c, coords)), Fraction(0))


class TestObjective:
    def test_dot(self):
        c = Objective.of(["1/2", "-3", "2"])
        assert c.dot(BinaryPoint.from_string("101")) == Fraction(5, 2)
        assert c.dot(LatticePoint.from_coords((2, 1, 0))) == Fraction(-2)

    def test_dot_mixed_denominators(self):
        c = Objective.of(["1/3", "-1/6", "1/4"])
        assert c.scaled == (12, (4, -2, 3))
        assert c.dot(BinaryPoint.from_string("111")) == Fraction(5, 12)
        assert c.dot(LatticePoint.from_coords((-3, 2, -4))) == Fraction(-7, 3)
        points = [BinaryPoint(3, bits) for bits in range(8)]
        points += [LatticePoint.from_coords(v) for v in
                   [(0, 0, 0), (-1, 5, 2), (7, -7, -3), (-2, -3, 0), (6, 0, -8)]]
        for p in points:
            got = c.dot(p)
            assert type(got) is Fraction and got == plain_dot(c, point_coords(p))

    def test_all_zero_objective(self):
        c = Objective.of([0, "0/5", 0])
        assert c.scaled == (1, (0, 0, 0))
        for p in (BinaryPoint.from_string("111"), LatticePoint.from_coords((-4, 0, 9))):
            got = c.dot(p)
            assert type(got) is Fraction and got == 0

    def test_integral_entries_parsed_once_to_ints(self):
        c = Objective.of([3, "-4", 0, "6/3", Fraction(5)])
        assert c.c == (3, -4, 0, 2, 5) and all(type(v) is int for v in c.c)
        assert c.scaled == (1, c.c)
        mixed = Objective.of(["1/2", "2", 7])
        assert mixed.c == (Fraction(1, 2), 2, 7) and type(mixed.c[0]) is Fraction
        assert [type(v) for v in mixed.c[1:]] == [int, int]

    def test_scaling_computed_once(self, monkeypatch):
        calls = []
        real = core._scale
        monkeypatch.setattr(core, "_scale", lambda values: calls.append(1) or real(values))
        c = Objective.of(["1/3", "-1/6", "1/4"])
        for p in (BinaryPoint.from_string("011"), LatticePoint.from_coords((1, -2, 3))):
            c.dot(p)
            c.dot(p)
        assert c.scaled == (12, (4, -2, 3))
        assert c.scaled is c.scaled
        assert len(calls) == 1
        Objective.of(["1/3", "-1/6", "1/4"]).dot(BinaryPoint.from_string("100"))
        assert len(calls) == 2  # an equal objective is another object

    def test_validation(self):
        with pytest.raises(DomainError):
            Objective(2, (Fraction(1),))
        with pytest.raises(DomainError):
            Objective.of(["1"]).dot(BinaryPoint.from_string("11"))
        with pytest.raises(DomainError):
            Objective.of(["1/3", "1/2"]).dot(LatticePoint.from_coords((1, 2, 3)))
