import random

import pytest

from fvx import (
    BinaryPoint,
    Objective,
    cardinality_oracle,
    cube_oracle,
    kbest,
    separating_faces,
    solve_forbidden,
)
from fvx.errors import DomainError
from conftest import all_binary, brute_min, random_forbidden, random_objective


def covered_codes(faces, n):
    out = set()
    for face in faces:
        for p in face.vertices():
            out.add(p.bits)
    return out


class TestSeparatingFaces:
    def test_example_single_point(self):
        fam = separating_faces([BinaryPoint.from_string("00")], 2)
        fixings = {f.fixed for f in fam.faces}
        assert fixings == {((1, 1),), ((1, 0), (2, 1))}
        assert len(fam.faces) == 2  # == n |X|

    def test_empty_and_full(self):
        fam = separating_faces([], 3)
        assert len(fam.faces) == 1 and fam.faces[0].is_improper
        fam = separating_faces(all_binary(2), 2)
        assert fam.faces == ()

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
            assert covered_codes(fam.faces, n) == set(range(1 << n)) - codes
            # the faces are pairwise disjoint: their sizes add up to the complement
            assert sum(1 << (n - len(f.fixed)) for f in fam.faces) == (1 << n) - len(codes)
            # size bounds: n|X| and the neighbor refinement
            assert len(fam.faces) <= n * size
            outside_neighbors = {v ^ (1 << i) for v in codes
                                 for i in range(n)} - codes
            assert len(fam.faces) <= len(outside_neighbors) or not outside_neighbors


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
