"""Property tests: solve and k-best against brute force, and LP-file round trips."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fvx import (
    HPolytope,
    LatticeBox,
    LinearSystem,
    Objective,
    cardinality_oracle,
    cube_hrep,
    cube_oracle,
    hrep_binary_oracle,
    kbest,
    lattice_box_oracle,
    parse_lp,
    solve_forbidden,
    solve_lp,
    spanning_tree_oracle,
    write_lp,
)
from conftest import all_binary, spanning_trees

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


bound_values = st.one_of(st.none(), st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def lp_instances(draw):
    """A small system (originals x1..xn, aux y1..ym) and objectives over all its variables."""
    n = draw(st.integers(1, 3))
    aux = tuple(f"y{j + 1}" for j in range(draw(st.integers(0, 2))))
    names = [f"x{i + 1}" for i in range(n)] + list(aux)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = {v: draw(st.integers(-3, 3)) for v in names}
        coeffs = {v: a for v, a in coeffs.items() if a}
        rows.append((coeffs, draw(st.sampled_from(["<=", "=", ">="])), draw(st.integers(-5, 5))))
    bounds = {}
    for v in names:
        lo, hi = draw(bound_values), draw(bound_values)
        if lo is not None and hi is not None and draw(st.booleans()):
            hi = lo  # a fixing, which counts as an equality
        bounds[v] = (lo, hi)
    system = LinearSystem.build(n, aux, rows, bounds, {"method": "random"})
    objectives = draw(st.lists(st.dictionaries(st.sampled_from(names), costs, max_size=len(names)),
                               min_size=1, max_size=3))
    return system, objectives


@PROPERTY
@given(lp_instances())
def test_lp_round_trip_keeps_counts_and_values(instance):
    system, objectives = instance
    back = parse_lp(write_lp(system))
    assert back.counted_inequalities() == system.counted_inequalities()
    for c in objectives:
        for sense in ("min", "max"):
            got, expect = solve_lp(back, c, sense), solve_lp(system, c, sense)
            assert (got.status, got.value) == (expect.status, expect.value)


def check_solve_against_brute_force(oracle, c, X, vertices):
    """solve_forbidden returns an allowed vertex of least value, or infeasible."""
    allowed = [p for p in vertices if p not in set(X)]
    out = solve_forbidden(oracle, X, c)
    if not allowed:
        assert not out.feasible
        return
    assert out.feasible and out.vertex in allowed
    assert out.value == c.dot(out.vertex) == min(c.dot(p) for p in allowed)


rational_costs = st.one_of(costs, st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def hrep_instances(draw):
    """The unit cube as explicit rows plus one cardinality (=) or cap (<=) row."""
    n = draw(st.integers(1, 5))
    points = all_binary(n)
    rel = draw(st.sampled_from(["=", "<="]))
    s = draw(st.integers(0, n))
    ones = tuple(Fraction(1) for _ in range(n))
    poly = HPolytope(n, cube_hrep(n).rows + ((ones, rel, Fraction(s)),))
    vertices = [p for p in points if poly.satisfies(p)]
    c = Objective.of(draw(st.lists(rational_costs, min_size=n, max_size=n)))
    X = draw(st.lists(st.sampled_from(points), max_size=6, unique=True))
    return hrep_binary_oracle(poly), c, X, vertices


@st.composite
def spanning_tree_instances(draw):
    """A connected graph: a random spanning tree plus a few extra edges."""
    nodes = draw(st.integers(2, 5))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, nodes)]
    pairs = [(u, v) for u in range(nodes) for v in range(u + 1, nodes)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=3))
    edges = draw(st.permutations(edges))
    vertices = spanning_trees(nodes, edges)
    m = len(edges)
    c = Objective.of(draw(st.lists(rational_costs, min_size=m, max_size=m)))
    X = draw(st.lists(st.sampled_from(vertices + all_binary(m)[:4]), max_size=6, unique=True))
    return spanning_tree_oracle(nodes, edges), c, X, vertices


@PROPERTY
@given(hrep_instances())
def test_solve_hrep_matches_brute_force(instance):
    check_solve_against_brute_force(*instance)


@PROPERTY
@given(spanning_tree_instances())
def test_solve_spanning_tree_matches_brute_force(instance):
    check_solve_against_brute_force(*instance)
