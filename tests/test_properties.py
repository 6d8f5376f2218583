"""Property tests: solve and k-best against brute force, LP-file round trips,
and mutated problem files."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fvx import (
    HPolytope,
    LatticeBox,
    LinearSystem,
    Objective,
    brute_force_oracle,
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
from fvx.cli import main
from fvx.core import point_coords
from conftest import all_binary, spanning_trees

# derandomized and without an example database, so every run checks the same cases
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

costs = st.integers(-3, 3)
rational_costs = st.one_of(costs, st.fractions(min_value=-3, max_value=3, max_denominator=4))


def plain_dot(c, p):
    """c.p as a plain Fraction sum, independent of `Objective.dot`."""
    return sum((q * v for q, v in zip(c.c, point_coords(p))), Fraction(0))


def least_first(c, points):
    """The points in (value, coords) order: the order every oracle breaks ties in."""
    return sorted(points, key=lambda p: (plain_dot(c, p), point_coords(p)))


def check_against_brute_force(oracle, c, k, exclude, allowed, ambient=None):
    """kbest returns exactly the first k allowed points in (value, coords) order."""
    got, exhausted = kbest(oracle, c, k, exclude, ambient)
    assert got == least_first(c, allowed)[:k]
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
    c = Objective.of(draw(st.lists(rational_costs, min_size=n, max_size=n)))
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
    c = Objective.of(draw(st.lists(rational_costs, min_size=n, max_size=n)))
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
        for obj in (c, {name: -v for name, v in c.items()}):
            got, expect = solve_lp(back, obj), solve_lp(system, obj)
            assert (got.status, got.value) == (expect.status, expect.value)


def check_solve_against_brute_force(oracle, c, X, vertices):
    """solve_forbidden returns the (value, coords)-least allowed vertex, or infeasible."""
    allowed = [p for p in vertices if p not in set(X)]
    out = solve_forbidden(oracle, X, c)
    if not allowed:
        assert not out.feasible
        return
    best = least_first(c, allowed)[0]
    assert out.feasible and out.vertex == best and out.value == plain_dot(c, best)


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


# an H-rep entry: an int, an integral Fraction or a "p/q" string, zero often
hrep_entries = st.one_of(
    st.integers(-6, 6), st.just(0), st.integers(-6, 6).map(Fraction),
    st.tuples(st.integers(-12, 12), st.integers(1, 6)).map(lambda pq: f"{pq[0]}/{pq[1]}"))


@st.composite
def mixed_hrep_rows(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(st.lists(hrep_entries, min_size=n, max_size=n),
                                   st.sampled_from(["<=", "=", ">="]), hrep_entries),
                         min_size=1, max_size=4))
    return n, rows


@PROPERTY
@given(mixed_hrep_rows())
def test_from_hpolytope_equals_build(instance):
    n, rows = instance
    names = [f"x{i + 1}" for i in range(n)]
    system = LinearSystem.from_hpolytope(HPolytope.of(n, rows))
    built = LinearSystem.build(n, (), [(dict(zip(names, a)), rel, b) for a, rel, b in rows],
                               meta={"method": "hrep"})
    assert system == built
    assert [list(coeffs.items()) for coeffs, _, _ in system.rows] == \
        [list(coeffs.items()) for coeffs, _, _ in built.rows]
    assert all(type(v) is int for coeffs, _, rhs in system.rows for v in (*coeffs.values(), rhs))


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


@PROPERTY
@given(st.one_of(hrep_instances(), spanning_tree_instances()), st.integers(1, 8))
def test_kbest_hrep_and_spanning_tree_match_brute_force(instance, k):
    oracle, c, X, vertices = instance
    check_against_brute_force(oracle, c, k, X, [p for p in vertices if p not in set(X)])


@st.composite
def integral_solve_instances(draw):
    """A lattice-box or brute-force oracle, and an ambient box translated off the origin.

    The oracle's points may reach outside the ambient box; only those inside
    it, minus X, are allowed.
    """
    n = draw(st.integers(1, 3))
    l = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    ambient = LatticeBox.of(l, [v + draw(st.integers(0, 2)) for v in l])
    ol = [v + draw(st.integers(-2, 2)) for v in l]
    region = LatticeBox.of(ol, [v + draw(st.integers(0, 3)) for v in ol])
    if draw(st.booleans()):
        oracle, points = lattice_box_oracle(region.l.coords, region.u.coords), list(
            region.iter_points())
    else:
        points = draw(st.lists(st.sampled_from(list(region.iter_points())), min_size=1,
                               unique=True))
        oracle = brute_force_oracle(points)
    X = draw(st.lists(st.sampled_from(list(ambient.iter_points())), max_size=6, unique=True))
    c = Objective.of(draw(st.lists(rational_costs, min_size=n, max_size=n)))
    return oracle, c, X, [p for p in points if ambient.contains(p)], ambient


@PROPERTY
@given(integral_solve_instances())
def test_solve_integral_matches_brute_force(instance):
    oracle, c, X, inside, ambient = instance
    allowed = [p for p in inside if p not in set(X)]
    out = solve_forbidden(oracle, X, c, ambient)
    if not allowed:
        assert not out.feasible
        return
    best = least_first(c, allowed)[0]
    assert out.feasible and out.value == plain_dot(c, best) and out.vertex == best


# Valid problem files and the commands that read every field of each
PROBLEM_FILES = [
    ({"kind": "binary", "n": 3, "polytope": {"type": "cube", "facets": [0, 1, 2, 3, 4, 5]},
      "objective": ["1", "-2", "1/2"], "forbidden": ["000", "101"], "k": 3},
     [["solve"], ["kbest"], ["enumerate"], ["compile", "--method", "facet-intersection"],
      ["verify", "--method", "faces", "--trials", "2"]]),
    ({"kind": "binary", "n": 2,
      "polytope": {"type": "hrep", "rows": [{"a": ["1", "1"], "rel": "<=", "b": "1"},
                                            {"a": [1, 0], "rel": ">=", "b": 0}]},
      "objective": ["-1", "1"], "forbidden": ["00"]},
     [["solve"], ["kbest", "-k", "2"], ["compile", "--method", "faces"]]),
    ({"kind": "binary", "n": 3,
      "polytope": {"type": "spanning-tree", "nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
      "objective": ["1", "2", "3"], "forbidden": ["110"], "k": 2},
     [["solve"], ["kbest"], ["enumerate"]]),
    ({"kind": "integral", "n": 2, "polytope": {"type": "lattice-box", "l": [0, -1], "u": [2, 1]},
      "ambient": {"l": [-1, -1], "u": [2, 1]}, "objective": ["1", "-1/3"],
      "forbidden": [[0, 0], [2, 1]], "k": 2},
     [["solve"], ["kbest"], ["enumerate"], ["compile", "--method", "boxes"]]),
    ({"kind": "binary", "n": 2,
      "slots": [{"polytope": {"type": "cube"}, "objective": ["1", "2"]},
                {"polytope": {"type": "cardinality", "s": 1}, "objective": ["-1", "0"]}]},
     [["alldiff"]]),
]

# a value of the wrong type for every field of the files above
WRONG_VALUES = [True, False, {"z": 1}, "zz"]


def _paths(node, path=()):
    """Every key or index path below `node`."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(doc, path, value):
    """A copy of doc with the entry at `path` set to `value`, or dropped when None."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run(doc, command):
    """(exit code, stdout) of `fvx <command> <file>`; exceptions propagate."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command[0], str(path)] + command[1:])
    return code, out.getvalue()


@st.composite
def mutations(draw):
    doc, commands = draw(st.sampled_from(PROBLEM_FILES))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(st.sampled_from([None] + WRONG_VALUES))
    return doc, commands, path, value


@settings(PROPERTY, max_examples=600)
@given(mutations())
def test_mutated_problem_files_exit_1(mutation):
    doc, commands, path, value = mutation
    bad = _mutated(doc, path, value)
    for command in commands:
        code, out = _run(bad, command)
        if code == 1:
            error = json.loads(out)
            assert error["status"] == "error" and error["message"]
        if value is not None:
            assert code == 1, (command, path, value, out)
        else:
            # an optional field or list entry may be dropped; the answer may
            # change but the outcome class may not
            assert code in (1, _run(doc, command)[0]), (command, path, out)
