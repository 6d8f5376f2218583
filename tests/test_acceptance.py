"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance here is exact (rational equality); the only numeric
knobs are instance counts and runtime caps, which are pinned to the stated
budgets.
"""

import itertools
import json
from collections import Counter
import random
import time
from fractions import Fraction

from fvx import (
    AlldiffInstance,
    BinaryPoint,
    HPolytope,
    LatticeBox,
    LatticePoint,
    Objective,
    brute_force_oracle,
    cardinality_oracle,
    cube_hrep,
    cube_oracle,
    face_formulation,
    facet_intersection_formulation,
    forbI_formulation,
    hamming_independent,
    hrep_binary_oracle,
    intersect_systems,
    interval_formulation,
    kbest,
    lattice_box_oracle,
    no_good_cut,
    recursive_formulation,
    remove_facet_tu,
    separating_faces,
    solve_alldiff,
    solve_forbidden,
    solve_lp,
    spanning_tree_oracle,
    verify_formulation,
)
from fvx.cli import main as cli_main
from fvx.separation import box_family
from conftest import all_binary, brute_min, outcome, random_forbidden, renamed, spanning_trees
from test_exactlp import random_bounded_system, vertices_by_basis_enumeration


def report(num, message, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE criterion {num}: PASS - {message}{suffix}")


def test_criterion_01_separating_family_bound():
    """Prop-7 bound and exact separation, n <= 6, 300 random nonempty X."""
    start = time.monotonic()
    rng = random.Random(1)
    for trial in range(300):
        n = 1 + trial % 6
        size = rng.randint(1, 1 << n)
        X = random_forbidden(rng, n, size)
        codes = {p.bits for p in X}
        family = separating_faces(X, n)
        assert len(family) <= n * size
        covered = set()
        for face in family:
            for p in face.vertices():
                assert p.bits not in codes
                covered.add(p.bits)
        assert covered == set(range(1 << n)) - codes
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(1, "separating families exact and within n|X| on 300 instances", elapsed)


def _oracle_suite(rng, n):
    suite = [("cube", cube_oracle(n), all_binary(n))]
    s = rng.randint(0, n)
    suite.append(("cardinality", cardinality_oracle(n, s),
                  [p for p in all_binary(n) if p.bits.bit_count() == s]))
    graphs = {2: (3, [(0, 1), (1, 2)]), 3: (3, [(0, 1), (1, 2), (0, 2)]),
              4: (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
              5: (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])}
    if n in graphs:
        nodes, edges = graphs[n]
        suite.append(("spanning-tree", spanning_tree_oracle(nodes, edges),
                      spanning_trees(nodes, edges)))
    cap = (n + 1) // 2
    rows = list(cube_hrep(n).rows) + [(tuple(Fraction(1) for _ in range(n)),
                                       "<=", Fraction(cap))]
    suite.append(("hrep", hrep_binary_oracle(HPolytope.of(n, rows)),
                  [p for p in all_binary(n) if p.bits.bit_count() <= cap]))
    return suite


def test_criterion_02_solver_equivalence():
    """Thm-8 solver == brute force vertex for vertex, 200 random (X, c) per oracle, n <= 5."""
    start = time.monotonic()
    per_oracle = {"cube": 0, "cardinality": 0, "spanning-tree": 0, "hrep": 0}
    rng = random.Random(2)
    while min(per_oracle.values()) < 200:
        n = rng.randint(2, 5)
        for name, oracle, vertices in _oracle_suite(rng, n):
            if per_oracle[name] >= 200:
                continue
            X = random_forbidden(rng, n, rng.randint(0, min(6, 1 << n)))
            codes = {p.bits for p in X}
            c = Objective.of([rng.randint(-50, 50) for _ in range(n)])
            out = solve_forbidden(oracle, X, c)
            allowed = [p for p in vertices if p.bits not in codes]
            if not allowed:
                assert not out.feasible
            else:
                # the (value, coords)-least allowed vertex, not just its value
                best = min(allowed, key=lambda p: (c.dot(p), p.coords()))
                assert out.feasible and (out.vertex, out.value) == (best, c.dot(best))
            per_oracle[name] += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(2, "solve_forbidden matches brute force, 200 instances x 4 oracles",
           elapsed)


def test_criterion_03_size_certificates():
    """Recursive <= n(|X|+4), interval <= (|X|+1)(4n+3), audited by cmd_verify."""
    rng = random.Random(3)
    for trial in range(200):
        n = rng.randint(1, 6)
        size = rng.randint(0, min(8, (1 << n) - 1))
        X = random_forbidden(rng, n, size)
        sr = recursive_formulation(X, n)
        assert sr.counted_inequalities() <= n * (size + 4)
        assert sr.meta["counted"] <= sr.meta["certified"]
        si = interval_formulation(X, n)
        assert si.counted_inequalities() <= (size + 1) * (4 * n + 3)
        assert si.meta["counted"] <= si.meta["certified"]
    # audit path through the CLI verifier
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        for trial in range(10):
            n = rng.randint(1, 4)
            size = rng.randint(0, (1 << n) - 1)
            X = random_forbidden(rng, n, size)
            doc = {"kind": "binary", "n": n, "polytope": {"type": "cube"},
                   "objective": ["0"] * n,
                   "forbidden": [p.to_string() for p in X]}
            path = os.path.join(tmp, f"c3_{trial}.json")
            with open(path, "w") as handle:
                json.dump(doc, handle)
            for method in ("recursive", "interval"):
                code = cli_main(["verify", path, "--method", method,
                                 "--trials", "15"])
                assert code == 0
    report(3, "size certificates hold on 200 instances; cmd_verify audits pass")


def _verify_builder(builder, make_x, count, rng):
    """(the proof kind, whether it has block columns) of each of `count`
    passing instances, each reported alike with its block columns renamed
    (no block read off the names)."""
    proofs = []
    while len(proofs) < count:
        n = rng.randint(2, 4)
        X = make_x(rng, n)
        system, truth = builder(n, X)
        if system is None:
            continue
        seed = rng.randint(0, 10 ** 6)
        rep = verify_formulation(system, truth, X, trials=50, seed=seed)
        assert rep.passed, (n, [str(p) for p in X], rep.to_dict())
        assert outcome(verify_formulation(renamed(system), truth, X, trials=50,
                                          seed=seed)) == outcome(rep)
        proofs.append((rep.proof, len(system.variables) > n))
    return proofs


# the proof kinds of criterion 04: a one-block file is the block itself,
# with no block columns, so it takes the facets; so do the interval and
# recursive hulls whose blocks are not integral boxes or whose nesting
# hides their blocks; the rest are proved from their blocks
PROOFS_04 = {"interval": Counter(facets=80, structural=20),
             "recursive": Counter(facets=71, structural=29),
             "faces": Counter(structural=68, facets=32),
             "facet-intersection": Counter(structural=70, facets=30)}


def test_criterion_04_projection_exactness():
    """Every builder: support + membership + exclusion on 100 instances each,
    the same report on renamed block columns, and every projection proved
    inside the hull of the truth: from the blocks alone for every union of
    faces and of facet intersections, by the hull's facets otherwise."""
    start = time.monotonic()
    rng = random.Random(4)

    def forb_truth(n, X):
        codes = {p.bits for p in X}
        return [p for p in all_binary(n) if p.bits not in codes]

    def any_x(rng, n):
        return random_forbidden(rng, n, rng.randint(0, min(4, (1 << n) - 1)))

    def two_x(rng, n):
        return random_forbidden(rng, n, rng.randint(0, 2))

    builders = [
        ("interval", any_x, lambda n, X: (interval_formulation(X, n), forb_truth(n, X))),
        ("recursive", any_x, lambda n, X: (recursive_formulation(X, n), forb_truth(n, X))),
        ("faces", any_x, lambda n, X: (face_formulation(cube_hrep(n), X), forb_truth(n, X))),
        ("facet-intersection", two_x,
         lambda n, X: (facet_intersection_formulation(cube_hrep(n), list(range(2 * n)), X),
                       forb_truth(n, X))),
    ]
    runs = {name: _verify_builder(builder, make_x, 100, rng) for name, make_x, builder in builders}
    assert {name: Counter(proof for proof, _ in r) for name, r in runs.items()} == PROOFS_04
    assert all((proof == "structural") == blocks
               for name in ("faces", "facet-intersection") for proof, blocks in runs[name])
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(4, "projection exactness: 4 builders x 100 instances, zero failures, "
           "every projection inside the hull, by its blocks or by its facets", elapsed)


def test_criterion_05_intersection_identity():
    """Prop-3: conjunction of per-part formulations == forb over the union."""
    start = time.monotonic()
    rng = random.Random(5)
    built = 0
    while built < 100:
        n = rng.randint(2, 5)
        size = rng.randint(2, min(6, 1 << n))
        X = random_forbidden(rng, n, size)
        codes = {p.bits for p in X}
        # split into two parts with no Hamming-1 edge between them:
        # components of the distance-1 graph stay whole
        comps = []
        remaining = set(codes)
        while remaining:
            seed = min(remaining)
            comp = {seed}
            frontier = [seed]
            while frontier:
                v = frontier.pop()
                for i in range(n):
                    u = v ^ (1 << i)
                    if u in remaining and u not in comp:
                        comp.add(u)
                        frontier.append(u)
            comps.append(comp)
            remaining -= comp
        if len(comps) < 2:
            continue
        part1 = set().union(*comps[0::2])
        part2 = set().union(*comps[1::2])
        ef1 = interval_formulation([BinaryPoint(n, b) for b in sorted(part1)], n)
        ef2 = interval_formulation([BinaryPoint(n, b) for b in sorted(part2)], n)
        joint = intersect_systems([ef1, ef2])
        allowed = [p for p in all_binary(n) if p.bits not in codes]
        for _ in range(20):
            c = [rng.randint(-30, 30) for _ in range(n)]
            lp = solve_lp(joint, [-ci for ci in c])  # the max of c
            expect = max(sum(ci * vi for ci, vi in zip(c, p.coords()))
                         for p in allowed)
            assert lp.is_optimal and -lp.value == expect
        built += 1
    elapsed = time.monotonic() - start
    report(5, "independent-part intersection identity on 100 instances", elapsed)


def test_criterion_06_no_good_cuts_exact():
    """Cor-4: cube + cuts keeps exactly the complement, exhaustively n <= 6."""
    rng = random.Random(6)
    for n in range(1, 7):
        candidates = []
        for _ in range(30):
            X = []
            for b in rng.sample(range(1 << n), 1 << (n - 1) if n > 1 else 1):
                cand = BinaryPoint(n, b)
                if hamming_independent(X + [cand]):
                    X.append(cand)
            candidates.append(X)
        candidates.append([BinaryPoint(n, 0)])
        # the even-parity class is a maximal independent set
        candidates.append([BinaryPoint(n, b) for b in range(1 << n)
                           if b.bit_count() % 2 == 0])
        for X in candidates:
            assert hamming_independent(X)
            cuts = [no_good_cut(v) for v in X]
            forbidden = {v.bits for v in X}
            for ubits in range(1 << n):
                coords = BinaryPoint(n, ubits).coords()
                ok = all(sum(a * x for a, x in zip(c, coords)) >= rhs
                         for c, _, rhs in cuts)
                assert ok == (ubits not in forbidden)
    report(6, "no-good cuts keep exactly the complement for independent X, n <= 6")


def test_criterion_07_kbest():
    """Def-11: value multiset matches sorted enumeration; dominance exact."""
    rng = random.Random(7)
    for trial in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(1, 10)
        if trial % 2 == 0:
            oracle, vertices = cube_oracle(n), all_binary(n)
        else:
            s = rng.randint(0, n)
            oracle = cardinality_oracle(n, s)
            vertices = [p for p in all_binary(n) if p.bits.bit_count() == s]
        c = Objective.of([rng.randint(-20, 20) for _ in range(n)])
        got, exhausted = kbest(oracle, c, k)
        values = sorted(c.dot(v) for v in got)
        expect = sorted(c.dot(v) for v in vertices)[: len(got)]
        assert values == expect
        assert len({v.bits for v in got}) == len(got)
        assert len(got) == min(k, len(vertices))
        rest = [v for v in vertices if v.bits not in {u.bits for u in got}]
        if got and rest:
            assert max(values) <= min(c.dot(v) for v in rest)
        assert exhausted == (len(got) < k)
    report(7, "k-best matches brute-force enumeration on 100 instances")


def test_criterion_08_alldiff():
    """Thm-13: alldiff total equals brute force over ordered distinct tuples."""
    rng = random.Random(8)
    agree_infeasible = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        oracles = []
        lists = []
        for _ in range(k):
            kind = rng.randrange(3)
            if kind == 0:
                oracles.append(cube_oracle(n))
                lists.append(all_binary(n))
            elif kind == 1:
                s = rng.randint(0, n)
                oracles.append(cardinality_oracle(n, s))
                lists.append([p for p in all_binary(n)
                              if p.bits.bit_count() == s])
            else:
                pts = [BinaryPoint(n, b) for b in
                       rng.sample(range(1 << n), rng.randint(1, 1 << n))]
                oracles.append(brute_force_oracle(pts))
                lists.append(pts)
        objectives = tuple(Objective.of([rng.randint(-9, 9) for _ in range(n)])
                           for _ in range(k))
        result = solve_alldiff(AlldiffInstance(tuple(oracles), objectives))
        best = None
        for combo in itertools.product(*lists):
            bits = [p.bits for p in combo]
            if len(set(bits)) != len(bits):
                continue
            total = sum((c.dot(p) for c, p in zip(objectives, combo)),
                        start=Fraction(0))
            if best is None or total < best:
                best = total
        if best is None:
            assert not result.feasible
            agree_infeasible += 1
        else:
            assert result.feasible and result.total == best
    report(8, f"alldiff equals brute force on 100 instances "
              f"({agree_infeasible} infeasible agreements)")


def test_criterion_09_integral():
    """Thm-14: box partition + integral solver + forbI verification."""
    start = time.monotonic()
    rng = random.Random(9)
    # partition and count, 200 instances
    for _ in range(200):
        n = rng.randint(1, 4)
        ranges = tuple(rng.randint(2, 4) for _ in range(n))
        lattice = [tuple(p) for p in itertools.product(*(range(r) for r in ranges))]
        X = set(rng.sample(lattice, rng.randint(0, len(lattice))))
        ambient = LatticeBox.of((0,) * n, [r - 1 for r in ranges])
        family = box_family(X, ambient)
        assert len(family) <= 2 * n * max(1, len(X))
        seen = set()
        for box in family:
            for p in box.iter_points():
                assert p.coords not in seen
                seen.add(p.coords)
        assert seen == set(lattice) - X
        # integral solver equivalence on the same instance
        oracle = lattice_box_oracle((0,) * n, tuple(r - 1 for r in ranges))
        c = Objective.of([rng.randint(-9, 9) for _ in range(n)])
        out = solve_forbidden(
            oracle, [LatticePoint.from_coords(p) for p in X], c, ambient)
        expect = brute_min(c.c, [LatticePoint.from_coords(p)
                                 for p in lattice if p not in X])
        if expect is None:
            assert not out.feasible
        else:
            assert out.feasible and out.value == expect
    # forbI verification on 50 instances
    verified = 0
    while verified < 50:
        n = rng.randint(1, 3)
        r = rng.randint(2, 3)
        rows = []
        for i in range(n):
            a = tuple(Fraction(1 if j == i else 0) for j in range(n))
            rows.append((a, ">=", Fraction(0)))
            rows.append((a, "<=", Fraction(r - 1)))
        if n >= 2 and rng.random() < 0.5:
            rows.append((tuple(Fraction(1) for _ in range(n)), "<=",
                         Fraction(rng.randint(1, n * (r - 1)))))
        P = HPolytope(n, tuple(rows))
        ambient = LatticeBox.of((0,) * n, (r - 1,) * n)
        inside = [p for p in ambient.iter_points() if P.satisfies(p)]
        if not inside:
            continue
        X = rng.sample(inside, rng.randint(0, min(3, len(inside) - 1)))
        truth = [p for p in inside if p.coords not in {q.coords for q in X}]
        if not truth:
            continue
        try:
            system = forbI_formulation(P, X, ambient)
        except Exception:
            continue
        rep = verify_formulation(system, truth, X, trials=50,
                                 seed=rng.randint(0, 10 ** 6))
        assert rep.passed, rep.to_dict()
        verified += 1
    elapsed = time.monotonic() - start
    report(9, "box partition, integral solver, forbI verification all exact",
           elapsed)


def _tu_fixtures():
    """20 deterministic TU fixtures (interval and network matrices), <= 8 rows.

    Each entry is (P, facet row index); the extra row, when present, is the
    last one.  Row counts stay within the 8x8 TU-check cap: n = 4 uses the
    plain cube (8 rows), n <= 3 adds one interval or network row.
    """
    def with_row(n, a, rel, rhs):
        rows = list(cube_hrep(n).rows) + [(tuple(Fraction(v) for v in a),
                                           rel, Fraction(rhs))]
        return HPolytope(n, tuple(rows)), len(rows) - 1

    fixtures = [
        with_row(2, (1, 1), "<=", 1),        # interval rows
        with_row(2, (1, 1), ">=", 1),
        with_row(2, (1, -1), "<=", 0),       # network rows
        with_row(2, (1, -1), ">=", 0),
        (cube_hrep(2), 2),                   # cube facet x1 <= 1
        (cube_hrep(2), 1),                   # cube facet x2 >= 0
        with_row(3, (1, 1, 0), "<=", 1),
        with_row(3, (0, 1, 1), "<=", 1),
        with_row(3, (1, 1, 1), "<=", 1),
        with_row(3, (1, 1, 1), "<=", 2),
        with_row(3, (1, 1, 1), ">=", 1),
        with_row(3, (0, 1, 1), ">=", 1),
        with_row(3, (1, 0, -1), "<=", 0),
        with_row(3, (0, 1, -1), "<=", 0),
        (cube_hrep(3), 5),                   # x3 <= 1
        (cube_hrep(3), 0),                   # x1 >= 0
        (cube_hrep(4), 4),                   # x1 <= 1
        (cube_hrep(4), 5),                   # x2 <= 1
        (cube_hrep(4), 2),                   # x3 >= 0
        (cube_hrep(4), 3),                   # x4 >= 0
    ]
    return fixtures


def test_criterion_10_tu_facet_removal():
    """Prop-12: vertex set after rhs decrement equals V(P) minus V(F)."""
    fixtures = _tu_fixtures()
    assert len(fixtures) == 20
    for P, row_idx in fixtures:
        n = P.n
        removed = remove_facet_tu(P, row_idx)
        a, rel, b = P.rows[row_idx]
        vp = {p.bits for p in all_binary(n) if P.satisfies(p)}
        tight = set()
        for bits in vp:
            coords = BinaryPoint(n, bits).coords()
            if sum(ai * vi for ai, vi in zip(a, coords)) == b:
                tight.add(bits)
        vp2 = {p.bits for p in all_binary(n) if removed.satisfies(p)}
        assert vp2 == vp - tight
    report(10, "TU facet removal yields exactly V(P) minus V(F) on 20 fixtures")


def test_criterion_11_exact_lp_soundness():
    """100 random LPs vs basis enumeration; byte-identical determinism."""
    rng = random.Random(11)
    done = 0
    while done < 100:
        n = rng.randint(1, 4)
        system = random_bounded_system(rng, n)
        vertices = vertices_by_basis_enumeration(system)
        c = [rng.randint(-9, 9) for _ in range(n)]
        first = solve_lp(system, c)
        second = solve_lp(system, c)
        assert repr(first) == repr(second)
        if not vertices:
            assert first.is_infeasible
        else:
            expect = min(sum(ci * vi for ci, vi in zip(c, p)) for p in vertices)
            assert first.is_optimal and first.value == expect
        done += 1
    report(11, "exact LP matches vertex enumeration on 100 LPs, deterministic")


def test_criterion_12_cli_round_trip(tmp_path, capsys):
    """compile -> verify exits 0 on generated instances; corruption exits 3."""
    rng = random.Random(12)
    cases = 0
    for trial in range(24):
        n = rng.randint(2, 4)
        size = rng.randint(0, min(4, (1 << n) - 1))
        X = random_forbidden(rng, n, size)
        doc = {"kind": "binary", "n": n, "polytope": {"type": "cube"},
               "objective": ["0"] * n, "forbidden": [p.to_string() for p in X]}
        path = tmp_path / f"b{trial}.json"
        path.write_text(json.dumps(doc))
        for method in ("interval", "recursive", "faces", "facet-intersection"):
            if method == "facet-intersection" and size > 2:
                continue
            lp_path = tmp_path / f"b{trial}_{method}.lp"
            assert cli_main(["compile", str(path), "--method", method,
                             "-o", str(lp_path)]) == 0
            assert cli_main(["verify", str(path), "--lp", str(lp_path),
                             "--trials", "25"]) == 0
            cases += 1
    for trial in range(8):
        n = rng.randint(1, 2)
        r = rng.randint(2, 3)
        lattice = [list(p) for p in itertools.product(range(r), repeat=n)]
        X = rng.sample(lattice, rng.randint(0, len(lattice) - 1))
        doc = {"kind": "integral", "n": n,
               "polytope": {"type": "lattice-box", "l": [0] * n,
                            "u": [r - 1] * n},
               "objective": ["0"] * n, "forbidden": X}
        path = tmp_path / f"i{trial}.json"
        path.write_text(json.dumps(doc))
        lp_path = tmp_path / f"i{trial}.lp"
        assert cli_main(["compile", str(path), "--method", "boxes",
                         "-o", str(lp_path)]) == 0
        assert cli_main(["verify", str(path), "--lp", str(lp_path),
                         "--trials", "25"]) == 0
        cases += 1
    # planted corruption must exit 3
    doc = {"kind": "binary", "n": 2, "polytope": {"type": "cube"},
           "objective": ["0", "0"], "forbidden": ["00"]}
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    lp_path = tmp_path / "ok.lp"
    assert cli_main(["compile", str(path), "--method", "recursive",
                     "-o", str(lp_path)]) == 0
    lines = lp_path.read_text().splitlines()
    for i, ln in enumerate(lines):
        if ln.strip().startswith("r1:"):
            lines[i] = ln.replace("1 ", "3 ", 1)
            break
    bad = tmp_path / "bad.lp"
    bad.write_text("\n".join(lines) + "\n")
    assert cli_main(["verify", str(path), "--lp", str(bad)]) == 3
    capsys.readouterr()
    report(12, f"CLI compile/verify round trips clean on {cases} instances; "
               f"corruption detected")
