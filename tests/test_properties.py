"""Property tests: k-best against brute force on small random instances."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fvx import LatticeBox, Objective, cardinality_oracle, cube_oracle, kbest, lattice_box_oracle
from conftest import all_binary

# derandomized and without an example database, so every run checks the same cases
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

costs = st.integers(-3, 3)


def check_against_brute_force(oracle, c, k, exclude, allowed, ambient=None):
    got, exhausted = kbest(oracle, c, k, exclude, ambient)
    expect = sorted(c.dot(p) for p in allowed)
    assert [c.dot(v) for v in got] == expect[:k]
    assert len(set(got)) == len(got) and set(got) <= set(allowed)
    assert exhausted == (len(allowed) < k)


@st.composite
def binary_instances(draw):
    n = draw(st.integers(1, 5))
    points = all_binary(n)
    exclude = draw(st.lists(st.sampled_from(points), max_size=6, unique=True))
    if draw(st.booleans()):
        oracle, vertices = cube_oracle(n), points
    else:
        s = draw(st.integers(0, n))
        oracle = cardinality_oracle(n, s)
        vertices = [p for p in points if p.bits.bit_count() == s]
    c = Objective.of(draw(st.lists(costs, min_size=n, max_size=n)))
    k = draw(st.integers(1, len(points) + 1))
    return oracle, c, k, exclude, [p for p in vertices if p not in exclude]


@st.composite
def lattice_instances(draw):
    n = draw(st.integers(1, 3))
    l = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    u = [v + draw(st.integers(0, 3)) for v in l]
    ambient = LatticeBox.of(l, u)
    points = list(ambient.iter_points())
    exclude = draw(st.lists(st.sampled_from(points), max_size=6, unique=True))
    c = Objective.of(draw(st.lists(costs, min_size=n, max_size=n)))
    k = draw(st.integers(1, len(points) + 1))
    return (lattice_box_oracle(l, u), c, k, exclude,
            [p for p in points if p not in exclude], ambient)


@PROPERTY
@given(binary_instances())
def test_kbest_binary_matches_brute_force(instance):
    check_against_brute_force(*instance)


@PROPERTY
@given(lattice_instances())
def test_kbest_lattice_box_matches_brute_force(instance):
    check_against_brute_force(*instance)
