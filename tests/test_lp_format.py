import random
from fractions import Fraction

import pytest

from fvx import (
    BinaryPoint,
    LinearSystem,
    face_formulation,
    cube_hrep,
    interval_formulation,
    parse_lp,
    recursive_formulation,
    solve_lp,
    write_lp,
)
from fvx.errors import DomainError, NumeralTooLong
from conftest import random_forbidden


def systems_under_test():
    rng = random.Random(113)
    out = []
    for _ in range(8):
        n = rng.randint(1, 4)
        X = random_forbidden(rng, n, rng.randint(0, (1 << n) - 1))
        out.append(interval_formulation(X, n))
        out.append(recursive_formulation(X, n))
        out.append(face_formulation(cube_hrep(n), X))
    return out


class TestRoundTrip:
    def test_constraint_system_identity(self):
        for system in systems_under_test():
            text = write_lp(system)
            back = parse_lp(text)
            assert back.variables == system.variables
            assert back.n_original == system.n_original
            assert back.rows == system.rows
            assert {k: v for k, v in system.bounds.items()
                    if v != (None, None)} == back.bounds
            assert write_lp(back) == text  # byte-stable second pass

    def test_meta_survives(self):
        system = interval_formulation([BinaryPoint.from_string("10")], 2)
        back = parse_lp(write_lp(system))
        assert back.meta["method"] == "interval"
        assert back.meta["certified"] == system.meta["certified"]

    def test_byte_stability(self):
        system = recursive_formulation([BinaryPoint.from_string("011")], 3)
        assert write_lp(system) == write_lp(system)

    def test_rational_bounds(self):
        system = LinearSystem.build(
            1, rows=[({"x1": 2}, "<=", 1)], bounds={"x1": (Fraction(1, 2), None)})
        back = parse_lp(write_lp(system))
        assert back.bound("x1") == (Fraction(1, 2), None)
        assert solve_lp(back, [1]).value == Fraction(1, 2)

    def test_zero_row_round_trip(self):
        # an all-zero row (legal in user H-descriptions) must survive
        system = LinearSystem.build(2, rows=[({}, "<=", 1), ({"x1": 1}, "<=", 1)],
                                    bounds={"x1": (0, 1), "x2": (0, 1)})
        text = write_lp(system)
        back = parse_lp(text)
        assert back.rows == system.rows
        assert write_lp(back) == text


class TestParserErrors:
    def test_missing_n_original(self):
        with pytest.raises(DomainError):
            parse_lp("Minimize\n obj: 0 x1\nSubject To\nBounds\n x1 free\nEnd\n")

    def test_malformed_relation(self):
        text = ("\\ meta: n_original=1\nMinimize\n obj: 0 x1\nSubject To\n"
                " r1: 1 x1 < 2\nBounds\n x1 free\nEnd\n")
        with pytest.raises(DomainError):
            parse_lp(text)

    def test_malformed_bounds(self):
        text = ("\\ meta: n_original=1\nMinimize\n obj: 0 x1\nSubject To\n"
                "Bounds\n x1 x2 x3 x4\nEnd\n")
        with pytest.raises(DomainError):
            parse_lp(text)

    def test_stray_line(self):
        with pytest.raises(DomainError):
            parse_lp("hello\n")

    @pytest.mark.parametrize("meta, row, message", [
        ("n_original=1", "1 x1 >= 1/2", "integer rhs"),
        ("n_original=1", "1 x1 >= " + "1" * 5000, "integer rhs"),
        ("n_original=1", "1" * 5000 + " x1 >= 0", "integer coefficient"),
        ('n_original="a"', "1 x1 >= 0", "meta 'n_original'"),
        ("n_original=true", "1 x1 >= 0", "meta 'n_original'"),
        ("n_original=1\n\\ meta: certified=" + "1" * 5000, "1 x1 >= 0", "meta 'certified'"),
        ("n_original=1\n\\ meta: certified=1.5", "1 x1 >= 0", "meta 'certified'"),
        ("n_original=2", "1 x1 >= 0", "n_original=2 is outside 0..1"),
        ("n_original=-3", "1 x1 >= 0", "n_original=-3 is outside 0..1"),
    ], ids=["rational-rhs", "long-rhs", "long-coefficient", "string-n", "boolean-n",
            "long-certified", "rational-certified", "n-above-count", "negative-n"])
    def test_malformed_numbers(self, meta, row, message):
        text = (f"\\ meta: {meta}\nMinimize\n obj: 0 x1\nSubject To\n r1: {row}\n"
                "Bounds\n 0 <= x1 <= 1\nEnd\n")
        with pytest.raises(DomainError, match=message):
            parse_lp(text)

    @pytest.mark.parametrize("line", [
        "x1 = {big}", "{big} <= x1", "x1 <= {big}", "{big} >= x1", "x1 >= {big}",
        "{big} <= x1 <= 1", "0 <= x1 <= {big}"])
    def test_long_bound_names_the_digit_limit(self, line):
        # every bound form: the numeral is refused as too long, not read as a name
        text = ("\\ meta: n_original=1\nMinimize\n obj: 0 x1\nSubject To\n r1: 1 x1 >= 0\n"
                f"Bounds\n {line.format(big='9' * 5000)}\nEnd\n")
        with pytest.raises(NumeralTooLong, match="value too long to parse: more than"):
            parse_lp(text)
