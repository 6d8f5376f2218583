import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import fvx.cli
from fvx import BinaryPoint, LinearSystem, extension, interval_formulation, write_lp
from fvx.cli import KBEST_GUARD, main

GOLDEN = Path(__file__).parent / "golden"


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, args):
    code = main(args)
    return code, capsys.readouterr().out


def cube_problem(tmp_path, n, objective, forbidden, name="p.json", **extra):
    doc = {"kind": "binary", "n": n, "polytope": {"type": "cube"},
           "objective": objective, "forbidden": forbidden}
    doc.update(extra)
    return write_json(tmp_path, name, doc)


class TestSolve:
    def test_optimal(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 3, ["1", "1", "1"], ["000"])
        code, out = run(capsys, ["solve", path])
        doc = json.loads(out)
        assert code == 0
        assert doc["status"] == "optimal" and doc["value"] == "1"
        # the root answer 000 is forbidden; the three faces of its split are queried
        assert doc["vertex"] == "001" and doc["oracle_calls"] == 4

    def test_infeasible_exit_2(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 1, ["1"], ["0", "1"])
        code, out = run(capsys, ["solve", path])
        assert code == 2 and json.loads(out)["status"] == "infeasible"

    def test_everything_forbidden_no_oracle_call(self, tmp_path, capsys):
        n = 12
        path = cube_problem(tmp_path, n, ["1"] * n,
                            [format(w, f"0{n}b") for w in range(1 << n)])
        code, out = run(capsys, ["solve", path])
        assert code == 2
        assert json.loads(out) == {"status": "infeasible", "oracle_calls": 0}

    def test_bad_bitstring_exit_1(self, tmp_path, capsys):
        # int(..., 2) takes the last three, so the character check must refuse them
        for bad in ("00", "0_1", " 01", "\uff1101"):
            path = cube_problem(tmp_path, 3, ["1", "1", "1"], [bad])
            code, out = run(capsys, ["solve", path])
            doc = json.loads(out)
            assert code == 1 and "forbidden[0]" in doc["message"], bad

    def test_spanning_tree(self, tmp_path, capsys):
        path = write_json(tmp_path, "st.json", {
            "kind": "binary", "n": 3,
            "polytope": {"type": "spanning-tree", "nodes": 3,
                         "edges": [[0, 1], [1, 2], [0, 2]]},
            "objective": ["1", "2", "3"], "forbidden": ["110"]})
        code, out = run(capsys, ["solve", path])
        doc = json.loads(out)
        assert code == 0 and doc["value"] == "4" and doc["vertex"] == "101"

    def test_hrep(self, tmp_path, capsys):
        rows = [{"a": ["1", "0"], "rel": ">=", "b": "0"},
                {"a": ["0", "1"], "rel": ">=", "b": "0"},
                {"a": ["1", "0"], "rel": "<=", "b": "1"},
                {"a": ["0", "1"], "rel": "<=", "b": "1"},
                {"a": ["1", "1"], "rel": "<=", "b": "1"}]
        path = write_json(tmp_path, "h.json", {
            "kind": "binary", "n": 2, "polytope": {"type": "hrep", "rows": rows},
            "objective": ["-1", "-1"], "forbidden": []})
        code, out = run(capsys, ["solve", path])
        doc = json.loads(out)
        # of the two optima (1,0) and (0,1), the (value, coords)-least one
        assert code == 0 and doc["value"] == "-1" and doc["vertex"] == "01"

    def test_integral(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json", {
            "kind": "integral", "n": 2,
            "polytope": {"type": "lattice-box", "l": [0, 0], "u": [2, 2]},
            "objective": ["1", "1"], "forbidden": [[0, 0]]})
        code, out = run(capsys, ["solve", path])
        doc = json.loads(out)
        assert code == 0 and doc["value"] == "1" and doc["vertex"] == [0, 1]


class TestKbest:
    def test_flag_k(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["1", "2"], [])
        code, out = run(capsys, ["kbest", path, "-k", "3"])
        doc = json.loads(out)
        assert code == 0
        assert doc["vertices"] == ["00", "10", "01"]
        assert doc["values"] == ["0", "1", "2"]
        assert doc["exhausted"] is False

    def test_file_k_and_exhausted(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["1", "2"], [], k=5)
        code, out = run(capsys, ["kbest", path])
        doc = json.loads(out)
        assert code == 0 and len(doc["vertices"]) == 4 and doc["exhausted"] is True

    def test_missing_k(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["1", "2"], [])
        code, out = run(capsys, ["kbest", path])
        assert code == 1

    def test_forbidden_excluded(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["1", "2"], ["00"])
        code, out = run(capsys, ["kbest", path, "-k", "2"])
        doc = json.loads(out)
        assert code == 0 and doc["vertices"] == ["10", "01"]

    def test_k_guard(self, tmp_path, capsys):
        # refused before any oracle call: on an n=64 cube this k ran until killed
        path = cube_problem(tmp_path, 64, [str(i % 7 - 3) for i in range(64)], [])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "fvx.cli", "kbest", path, "-k", "1000000000"],
                              capture_output=True, text=True, timeout=20, env=env)
        assert proc.returncode == 1 and proc.stderr == ""
        assert "KBEST_GUARD" in json.loads(proc.stdout)["message"]
        # the guard itself is allowed
        path = cube_problem(tmp_path, 3, ["1", "2", "3"], [], name="small.json")
        code, out = run(capsys, ["kbest", path, "-k", str(KBEST_GUARD)])
        assert code == 0 and json.loads(out)["exhausted"] is True

    def test_oracle_calls(self, tmp_path, capsys):
        # the root answer 0100 is forbidden: 1 + 4 calls for the root and its
        # split; then 3 to split the face of the forbidden 1100, and 2 + 1 to
        # split the faces of 0000 and 0110; 0101, 1101 and 0001 sit on faces
        # with no free coordinate, and the 6th vertex is not split
        path = cube_problem(tmp_path, 4, ["1", "-2", "3", "0"], ["0100", "1100"])
        code, out = run(capsys, ["kbest", path, "-k", "6"])
        doc = json.loads(out)
        assert code == 0
        assert doc["vertices"] == ["0101", "1101", "0000", "0001", "0110", "0111"]
        assert doc["values"] == ["-2", "-1", "0", "0", "1", "1"]
        assert doc["oracle_calls"] == 11


class TestAlldiff:
    def test_example(self, tmp_path, capsys):
        path = write_json(tmp_path, "ad.json", {
            "kind": "binary", "n": 1,
            "slots": [{"polytope": {"type": "cube"}, "objective": ["1"]},
                      {"polytope": {"type": "cube"}, "objective": ["2"]}]})
        code, out = run(capsys, ["alldiff", path])
        doc = json.loads(out)
        assert code == 0 and doc["total"] == "1"
        assert doc["assignment"] == ["1", "0"]

    def test_infeasible(self, tmp_path, capsys):
        path = write_json(tmp_path, "ad2.json", {
            "kind": "binary", "n": 1,
            "slots": [{"polytope": {"type": "cube"}, "objective": ["1"]}
                      for _ in range(3)]})
        code, out = run(capsys, ["alldiff", path])
        assert code == 2 and json.loads(out)["status"] == "infeasible"


class TestCompile:
    def test_golden_recursive(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["0", "0"], ["00"])
        out_lp = tmp_path / "out.lp"
        code, _ = run(capsys, ["compile", path, "--method", "recursive",
                               "-o", str(out_lp)])
        assert code == 0
        expected = (GOLDEN / "recursive_n2_X00.lp").read_bytes()
        assert out_lp.read_bytes() == expected
        # constraint row count within the certificate n(|X|+4) = 10
        rows = [ln for ln in out_lp.read_text().splitlines()
                if ln.strip().startswith("r")]
        assert len(rows) <= 10

    # block order of the prefix families: coordinate 1 varies fastest among
    # the face prefixes, prefix-lexicographic order among the box prefixes
    @pytest.mark.parametrize("golden, method, doc", [
        ("faces_cube_n3.lp", "faces", {
            "kind": "binary", "n": 3, "polytope": {"type": "cube"},
            "forbidden": ["000", "011", "110"]}),
        ("faces_cardinality_n4.lp", "faces", {
            "kind": "binary", "n": 4, "polytope": {"type": "cardinality", "s": 2},
            "forbidden": ["1100", "0101", "0011"]}),
        ("boxes_translated_n3.lp", "boxes", {
            "kind": "integral", "n": 3,
            "polytope": {"type": "lattice-box", "l": [-2, 5, 0], "u": [0, 7, 2]},
            "forbidden": [[-2, 5, 1], [-1, 6, 0], [0, 5, 2], [-2, 6, 1]]}),
        ("interval_cube_n3.lp", "interval", {
            "kind": "binary", "n": 3, "polytope": {"type": "cube"},
            "forbidden": ["010", "101"]}),
        # every facet intersection probed; three of the nine are empty
        ("facet_intersection_cube_n3.lp", "facet-intersection", {
            "kind": "binary", "n": 3, "polytope": {"type": "cube"},
            "forbidden": ["000", "111"]}),
        # one block is the formulation as it is, with no hull around it
        ("interval_single_block_n2.lp", "interval", {
            "kind": "binary", "n": 2, "polytope": {"type": "cube"},
            "forbidden": []}),
    ])
    def test_golden_block_order(self, tmp_path, capsys, golden, method, doc):
        path = write_json(tmp_path, "p.json", doc)
        out_lp = tmp_path / "out.lp"
        code, _ = run(capsys, ["compile", path, "--method", method, "-o", str(out_lp)])
        assert code == 0
        assert out_lp.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_incompatible_methods(self, tmp_path, capsys):
        grid = write_json(tmp_path, "g.json", {
            "kind": "integral", "n": 1,
            "polytope": {"type": "lattice-box", "l": [0], "u": [2]},
            "forbidden": []})
        code, out = run(capsys, ["compile", grid, "--method", "interval"])
        assert code == 1
        cube = cube_problem(tmp_path, 2, ["0", "0"], [])
        code, out = run(capsys, ["compile", cube, "--method", "boxes"])
        assert code == 1

    def test_stdout_and_stability(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 3, ["0"] * 3, ["101", "010"])
        code1, out1 = run(capsys, ["compile", path, "--method", "interval"])
        code2, out2 = run(capsys, ["compile", path, "--method", "interval"])
        assert code1 == code2 == 0 and out1 == out2

    def test_all_forbidden(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 1, ["1"], ["0", "1"])
        code, out = run(capsys, ["compile", path, "--method", "interval"])
        assert code == 1

    def test_faces_guard(self, tmp_path, capsys, monkeypatch):
        # an n=64 cube with 3,000 random forbidden points has about 155,000
        # faces: its blocks ran out of memory after 51 s; now it is refused
        # before the first block
        rng = random.Random(7)
        forbidden = sorted({"".join(rng.choice("01") for _ in range(64)) for _ in range(3000)})
        path = cube_problem(tmp_path, 64, ["1"] * 64, forbidden)
        proc = TestWideLatticeBox._capped_run(["compile", path, "--method", "faces"], timeout=20)
        assert proc.returncode == 1 and proc.stderr == ""
        message = json.loads(proc.stdout)["message"]
        assert "FACES_GUARD = 1000000" in message and "154797 faces" in message
        # the bound is |family| (counted(P)+1), refused only above the guard
        small = cube_problem(tmp_path, 3, ["0"] * 3, ["000", "011", "110"], name="small.json")
        certified = 4 * (6 + 1)  # 4 faces, 6 bound rows
        monkeypatch.setattr(extension, "FACES_GUARD", certified)
        assert run(capsys, ["compile", small, "--method", "faces"])[0] == 0
        monkeypatch.setattr(extension, "FACES_GUARD", certified - 1)
        code, out = run(capsys, ["compile", small, "--method", "faces"])
        assert code == 1 and f"certify {certified} inequalities" in json.loads(out)["message"]

    def test_unwritable_output(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["0", "0"], ["00"])
        target = str(tmp_path / "missing" / "x.lp")
        code, out = run(capsys, ["compile", path, "--method", "interval", "-o", target])
        assert code == 1 and target in json.loads(out)["message"]


class TestVerifyCommand:
    def test_round_trip_all_methods(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["0", "0"], ["00"])
        for method in ("interval", "recursive", "faces", "facet-intersection"):
            out_lp = tmp_path / f"{method}.lp"
            code, _ = run(capsys, ["compile", path, "--method", method,
                                   "-o", str(out_lp)])
            assert code == 0
            code, out = run(capsys, ["verify", path, "--lp", str(out_lp),
                                     "--trials", "25"])
            assert code == 0, out
            assert json.loads(out)["verdict"] == "pass"

    def test_in_memory_method(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 3, ["0"] * 3, ["000", "111"])
        code, out = run(capsys, ["verify", path, "--method", "recursive"])
        assert code == 0 and json.loads(out)["verdict"] == "pass"

    def test_faces_empty_forbidden(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["0", "0"], [])
        code, out = run(capsys, ["verify", path, "--method", "faces"])
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "pass" and doc["size_ok"]

    def test_boxes_round_trip(self, tmp_path, capsys):
        grid = write_json(tmp_path, "g.json", {
            "kind": "integral", "n": 2,
            "polytope": {"type": "lattice-box", "l": [0, 0], "u": [2, 2]},
            "forbidden": [[2, 2]]})
        out_lp = tmp_path / "boxes.lp"
        code, _ = run(capsys, ["compile", grid, "--method", "boxes",
                               "-o", str(out_lp)])
        assert code == 0
        code, out = run(capsys, ["verify", grid, "--lp", str(out_lp)])
        assert code == 0 and json.loads(out)["verdict"] == "pass"

    def test_facet_intersection_default_skips_equality_rows(self, tmp_path, capsys):
        # the 3-cube cut by x1 + x2 + x3 = 2; row 6 can only be named explicitly
        rows = [{"a": [int(i == j) for j in range(3)], "rel": rel, "b": b}
                for rel, b in ((">=", 0), ("<=", 1)) for i in range(3)]
        rows.append({"a": [1, 1, 1], "rel": "=", "b": 2})
        doc = {"kind": "binary", "n": 3, "polytope": {"type": "hrep", "rows": rows},
               "forbidden": ["110"]}
        path = write_json(tmp_path, "eq.json", doc)
        out_lp = tmp_path / "eq.lp"
        code, _ = run(capsys, ["compile", path, "--method", "facet-intersection",
                               "-o", str(out_lp)])
        assert code == 0
        code, out = run(capsys, ["verify", path, "--lp", str(out_lp)])
        assert code == 0 and json.loads(out)["verdict"] == "pass"
        doc["polytope"]["facets"] = [0, 6]
        code, out = run(capsys, ["compile", write_json(tmp_path, "named.json", doc),
                                 "--method", "facet-intersection"])
        assert code == 1
        assert "row 6 is an equality; facets must be inequalities" in json.loads(out)["message"]

    def test_planted_corruption_exit_3(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["0", "0"], ["00"])
        out_lp = tmp_path / "ok.lp"
        run(capsys, ["compile", path, "--method", "recursive", "-o", str(out_lp)])
        text = out_lp.read_text()
        lines = text.splitlines()
        for i, ln in enumerate(lines):
            if ln.strip().startswith("r1:"):
                lines[i] = ln.replace("1 ", "3 ", 1)
                break
        bad_lp = tmp_path / "bad.lp"
        bad_lp.write_text("\n".join(lines) + "\n")
        code, out = run(capsys, ["verify", path, "--lp", str(bad_lp)])
        assert code == 3 and json.loads(out)["verdict"] == "fail"

    def test_failed_facet_exit_3(self, tmp_path, capsys):
        # [0,1]^6 and x1 + ... + x6 >= 1/2 for the 6-cube less 000000: the
        # hull's facet x1 + ... + x6 >= 1 has LP minimum 1/2, and no seed-0
        # trial draws an objective that shows it
        path = cube_problem(tmp_path, 6, ["0"] * 6, ["000000"])
        names = [f"x{i + 1}" for i in range(6)]
        system = LinearSystem.build(6, rows=[(dict.fromkeys(names, 1), ">=", "1/2")],
                                    bounds=dict.fromkeys(names, (0, 1)))
        lp = tmp_path / "weakened.lp"
        lp.write_text(write_lp(system))
        code, out = run(capsys, ["verify", path, "--lp", str(lp)])
        report = json.loads(out)
        assert code == 3 and report["support_mismatches"] == [
            {"objective": [1] * 6, "lp": "1/2", "brute": "1"}]
        assert report["membership_failures"] == report["excluded_failures"] == []

    def test_non_integral_bounds_golden(self, tmp_path, capsys):
        # bounds x1 <= 1/2, x2 >= 1/3 and y = 1/2, and the row 3 x3 <= 2,
        # which folds to no int bound: the report is pinned byte for byte
        # from the solver that read them as Fraction column offsets
        path = cube_problem(tmp_path, 3, ["0"] * 3, ["000"])
        code, out = run(capsys, ["verify", path, "--lp", str(GOLDEN / "fractional_bounds_n3.lp"),
                                 "--trials", "6", "--seed", "3"])
        assert code == 3
        assert out == (GOLDEN / "verify_fractional_bounds_n3.json").read_text()

    def test_seed_reproducible_bytes(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["0", "0"], ["10"])
        _, out1 = run(capsys, ["verify", path, "--method", "interval",
                               "--seed", "42"])
        _, out2 = run(capsys, ["verify", path, "--method", "interval",
                               "--seed", "42"])
        assert out1 == out2

    def test_lp_of_another_dimension_exit_1(self, tmp_path, capsys):
        path = write_json(tmp_path, "p3.json", {"kind": "binary", "n": 3,
                                                "polytope": {"type": "cube"},
                                                "forbidden": ["000"]})
        system = interval_formulation([BinaryPoint.from_string("000")], 3)
        # x4 fixed to 0 as a fourth original variable
        variables = ("x1", "x2", "x3", "x4") + system.variables[3:]
        padded = LinearSystem(variables, 4, system.rows,
                              {**system.bounds, "x4": (Fraction(0), Fraction(0))},
                              dict(system.meta))
        lp = tmp_path / "padded.lp"
        lp.write_text(write_lp(padded))
        code, out = run(capsys, ["verify", path, "--lp", str(lp)])
        assert code == 1
        message = json.loads(out)["message"]
        assert "n_original=4" in message and "n=3" in message

    def test_guard_refuses_before_compiling(self, tmp_path, capsys, monkeypatch):
        # the n=64 cube with 3,000 forbidden points compiled for 24.5 s
        # (interval) or past 100 s (recursive) before this refusal
        path = cube_problem(tmp_path, 13, ["0"] * 13, ["0" * 13])
        lp = tmp_path / "any.lp"
        lp.write_text("")

        def never(*args):
            raise AssertionError("compiled or parsed above the enumeration guard")

        monkeypatch.setattr(fvx.cli, "compile_system", never)
        monkeypatch.setattr(fvx.cli, "parse_lp", never)
        for how in (["--method", "interval"], ["--method", "recursive"], ["--lp", str(lp)]):
            code, out = run(capsys, ["verify", path, *how])
            assert code == 1
            assert json.loads(out)["message"] == "dimension 13 exceeds the enumeration guard 12"

    def test_integral_guard_refuses_before_compiling(self, tmp_path, capsys, monkeypatch):
        # one lattice point is under the point guard: a 3,000-dim box compiled
        # for 20 s before verify_formulation refused its dimension
        path = write_json(tmp_path, "box.json", {
            "kind": "integral", "n": 13,
            "polytope": {"type": "lattice-box", "l": [0] * 13, "u": [0] * 13}, "forbidden": []})
        lp = tmp_path / "any.lp"
        lp.write_text("")

        def never(*args):
            raise AssertionError("compiled or parsed above the enumeration guard")

        monkeypatch.setattr(fvx.cli, "compile_system", never)
        monkeypatch.setattr(fvx.cli, "parse_lp", never)
        for how in (["--method", "boxes"], ["--lp", str(lp)]):
            code, out = run(capsys, ["verify", path, *how])
            assert code == 1
            assert json.loads(out)["message"] == "dimension 13 exceeds the enumeration guard 12"
        code, out = run(capsys, ["enumerate", path])
        assert code == 0 and json.loads(out)["count"] == 1

    def test_needs_lp_or_method(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["0", "0"], [])
        code, _ = run(capsys, ["verify", path])
        assert code == 1


class TestEnumerate:
    def test_binary(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["0", "0"], ["11"])
        code, out = run(capsys, ["enumerate", path])
        doc = json.loads(out)
        assert code == 0 and doc["vertices"] == ["00", "01", "10"]

    def test_integral_grid_minus_center(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json", {
            "kind": "integral", "n": 2,
            "polytope": {"type": "lattice-box", "l": [0, 0], "u": [2, 2]},
            "forbidden": [[1, 1]]})
        code, out = run(capsys, ["enumerate", path])
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 8

    def test_guard(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 20, ["0"] * 20, [])
        code, out = run(capsys, ["enumerate", path])
        assert code == 1

    def test_one_point_box_of_dimension_1100(self, tmp_path, capsys):
        # one lattice point, under every guard: both commands once ended in a
        # RecursionError, one recursion level per coordinate
        n = 1100
        path = write_json(tmp_path, "box.json", {
            "kind": "integral", "n": n,
            "polytope": {"type": "lattice-box", "l": [0] * n, "u": [0] * n},
            "forbidden": []})
        code, out = run(capsys, ["enumerate", path])
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 1 and doc["vertices"] == [[0] * n]
        code, out = run(capsys, ["verify", path, "--method", "boxes"])
        assert code == 1
        assert json.loads(out)["message"] == f"dimension {n} exceeds the enumeration guard 12"


class TestInputValidation:
    """Malformed fields exit 1 with a message naming the field."""

    def test_problem_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_bytes(b'{"kind": "binary", "n": 1, "note": "\xff"}')
        for command in ("solve", "kbest", "enumerate"):
            code, out = run(capsys, [command, str(path)])
            assert code == 1 and f"cannot read {path}" in json.loads(out)["message"]

    def test_lp_file_not_utf8(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["0", "0"], ["00"])
        lp = tmp_path / "f.lp"
        lp.write_bytes(b"\\ \xff\n")
        code, out = run(capsys, ["verify", path, "--lp", str(lp)])
        assert code == 1 and f"cannot read {lp}" in json.loads(out)["message"]

    def test_deeply_nested_problem_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text("[" * 100_000)
        code, out = run(capsys, ["solve", str(path)])
        assert code == 1 and f"{path} is not valid JSON" in json.loads(out)["message"]
        assert capsys.readouterr().err == ""

    def test_integer_literal_too_long(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text('{"kind": "binary", "n": ' + "1" * 5000 + "}")
        code, out = run(capsys, ["solve", str(path)])
        assert code == 1 and f"{path} is not valid JSON" in json.loads(out)["message"]

    def test_negative_trials(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["0", "0"], ["00"])
        code, out = run(capsys, ["verify", path, "--method", "interval", "--trials", "-3"])
        assert code == 1 and "--trials" in json.loads(out)["message"]

    def test_cardinality_sum_out_of_range(self, tmp_path, capsys):
        polytope = {"type": "cardinality", "s": 5}
        single = write_json(tmp_path, "p.json", {
            "kind": "binary", "n": 3, "polytope": polytope,
            "objective": ["1", "1", "1"], "forbidden": []})
        for argv in (["solve", single], ["kbest", single, "-k", "2"],
                     ["enumerate", single],
                     ["verify", single, "--method", "faces"]):
            code, out = run(capsys, argv)
            assert code == 1 and "polytope.s" in json.loads(out)["message"], argv
        slots = write_json(tmp_path, "s.json", {
            "kind": "binary", "n": 3, "slots": [
                {"polytope": {"type": "cube"}, "objective": ["1", "1", "1"]},
                {"polytope": {"type": "cardinality", "s": -1},
                 "objective": ["1", "1", "1"]}]})
        code, out = run(capsys, ["alldiff", slots])
        assert code == 1 and "slots[1].polytope.s" in json.loads(out)["message"]

    def test_trials_guard(self, tmp_path, capsys):
        # one above the guard: without it this passes after 10,001 LPs
        path = cube_problem(tmp_path, 2, ["0", "0"], ["00"])
        start = time.perf_counter()
        code, out = run(capsys, ["verify", path, "--method", "interval", "--trials", "10001"])
        assert time.perf_counter() - start < 1
        assert code == 1 and "trials 10001 exceeds the trials guard MAX_TRIALS = 10000" \
            in json.loads(out)["message"]

    def test_trials_guard_before_any_work(self, tmp_path, capsys, monkeypatch):
        # refused before a missing --lp file is named or --method compiles
        path = cube_problem(tmp_path, 2, ["0", "0"], ["00"])

        def refuse(*args):
            raise AssertionError("compiled before the trials guard")

        monkeypatch.setattr(fvx.cli, "compile_system", refuse)
        for extra in (["--lp", str(tmp_path / "missing.lp")], ["--method", "faces"]):
            code, out = run(capsys, ["verify", path, *extra, "--trials", "10001"])
            assert code == 1 and "trials guard" in json.loads(out)["message"], extra

    def test_pinned_probe_guard(self, tmp_path, capsys):
        # [0,5]^3 less every point whose coordinate sum is 0 mod 3: along e_i
        # and e_i + e_j one neighbour of an allowed point is removed, so only
        # e_i - e_j pairs straddle, and 36 allowed points on the box's faces
        # are probed first; 27 of them, off the corners and with no witness,
        # are pinned on a system of 768 rows, one cold phase 1 each
        forbidden = [[x, y, z] for x in range(6) for y in range(6) for z in range(6)
                     if (x + y + z) % 3 == 0]
        path = write_json(tmp_path, "g.json", {
            "kind": "integral", "n": 3, "forbidden": forbidden,
            "polytope": {"type": "lattice-box", "l": [0, 0, 0], "u": [5, 5, 5]}})
        start = time.perf_counter()
        code, out = run(capsys, ["verify", path, "--method", "boxes"])
        assert time.perf_counter() - start < 2
        assert code == 1 and "27 pinned probes on 768 rows exceed the pinned-probe guard" \
            in json.loads(out)["message"]

    def test_even_sum_removals_stay_under_the_guard(self, tmp_path, capsys):
        # [0,5]^3 less every point of even coordinate sum: no unit pair
        # straddles an allowed point, but p +- (e_i + e_j) and p +- (e_i - e_j)
        # do wherever they stay in the box, so only 28 allowed points, all on
        # the box's faces, are probed first, under the guard
        forbidden = [[x, y, z] for x in range(6) for y in range(6) for z in range(6)
                     if (x + y + z) % 2 == 0]
        path = write_json(tmp_path, "g.json", {
            "kind": "integral", "n": 3, "forbidden": forbidden,
            "polytope": {"type": "lattice-box", "l": [0, 0, 0], "u": [5, 5, 5]}})
        start = time.perf_counter()
        code, out = run(capsys, ["verify", path, "--method", "boxes"])
        assert time.perf_counter() - start < 10
        assert code == 0 and json.loads(out)["verdict"] == "pass"

    def test_midpoints_are_not_pinned(self, tmp_path, capsys):
        # [0,5]^3 less 8 points: over 200 inner points, but nearly all are the
        # midpoint of two allowed unit neighbours, and every other probe passes
        forbidden = [[1, 2, 3], [4, 4, 1], [2, 0, 5], [3, 3, 3],
                     [0, 5, 2], [5, 1, 1], [2, 4, 4], [1, 1, 0]]
        path = write_json(tmp_path, "g.json", {
            "kind": "integral", "n": 3, "forbidden": forbidden,
            "polytope": {"type": "lattice-box", "l": [0, 0, 0], "u": [5, 5, 5]}})
        start = time.perf_counter()
        code, out = run(capsys, ["verify", path, "--method", "boxes", "--trials", "0"])
        assert time.perf_counter() - start < 2
        assert code == 0 and json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("facets, field", [
        (5, "polytope.facets'"), (["a"], "polytope.facets[0]"), ([0, 1.5], "polytope.facets[1]"),
        ([True], "polytope.facets[0]"), ([None], "polytope.facets[0]"),
    ], ids=["number", "string", "float", "boolean", "null"])
    def test_facets_are_integer_lists(self, tmp_path, capsys, facets, field):
        path = cube_problem(tmp_path, 2, ["0", "0"], ["00"], polytope={
            "type": "cube", "facets": facets})
        code, out = run(capsys, ["compile", path, "--method", "facet-intersection"])
        assert code == 1 and field in json.loads(out)["message"]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("n_original", [5, -3])
    def test_lp_n_original_out_of_range(self, tmp_path, capsys, n_original):
        path = cube_problem(tmp_path, 2, ["0", "0"], ["00"])
        lp = tmp_path / "f.lp"
        lp.write_text(f"\\ fvx-lp v1\n\\ meta: n_original={n_original}\nMinimize\n obj: 0 x1\n"
                      "Subject To\n r1: 1 x1 + 1 x2 >= 1\nBounds\n 0 <= x1 <= 1\n"
                      " 0 <= x2 <= 1\nEnd\n")
        code, out = run(capsys, ["verify", path, "--lp", str(lp)])
        assert code == 1 and f"n_original={n_original}" in json.loads(out)["message"]

    TREE = {"type": "spanning-tree", "nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
    GRID = {"type": "lattice-box", "l": [0, 0], "u": [2, 2]}

    # JSON true is a Python int; it must not be read as 1
    @pytest.mark.parametrize("command, doc, field", [
        ("solve", {"kind": "binary", "n": True, "polytope": {"type": "cube"},
                   "objective": ["1"], "forbidden": []}, "'n'"),
        ("kbest", {"kind": "binary", "n": 2, "polytope": {"type": "cube"},
                   "objective": ["1", "2"], "forbidden": [], "k": True}, "'k'"),
        ("solve", {"kind": "binary", "n": 2, "polytope": {"type": "cardinality", "s": True},
                   "objective": ["1", "2"], "forbidden": []}, "polytope.s"),
        ("solve", {"kind": "binary", "n": 3, "polytope": dict(TREE, nodes=True),
                   "objective": ["1", "2", "3"], "forbidden": []}, "polytope.nodes"),
        ("solve", {"kind": "integral", "n": 2, "polytope": dict(GRID, l=[True, 0]),
                   "objective": ["1", "1"], "forbidden": []}, "polytope.l[0]"),
        ("solve", {"kind": "integral", "n": 2, "polytope": GRID,
                   "ambient": {"l": [0, 0], "u": [2, True]},
                   "objective": ["1", "1"], "forbidden": []}, "ambient.u[1]"),
        ("solve", {"kind": "integral", "n": 2, "polytope": GRID,
                   "objective": ["1", "1"], "forbidden": [[True, 0]]}, "forbidden[0][0]"),
        ("solve", {"kind": "binary", "n": 2, "polytope": {"type": "cube"},
                   "objective": [True, "1"], "forbidden": []}, "'objective'"),
        ("kbest", {"kind": "binary", "n": 2, "polytope": {"type": "cube"},
                   "objective": ["1", False], "forbidden": [], "k": 2}, "'objective'"),
        ("solve", {"kind": "binary", "n": 2,
                   "polytope": {"type": "hrep", "rows": [{"a": [1, 1], "rel": "<=", "b": True}]},
                   "objective": ["1", "1"], "forbidden": []}, "polytope.rows[0]"),
        ("solve", {"kind": "binary", "n": 2,
                   "polytope": {"type": "hrep", "rows": [{"a": [1, True], "rel": "<=", "b": 1}]},
                   "objective": ["1", "1"], "forbidden": []}, "polytope.rows[0]"),
    ])
    def test_booleans_are_not_integers(self, tmp_path, capsys, command, doc, field):
        code, out = run(capsys, [command, write_json(tmp_path, "p.json", doc)])
        assert code == 1 and field in json.loads(out)["message"]

    @pytest.mark.parametrize("command", ["solve", "enumerate"])
    @pytest.mark.parametrize("edges", [[[0], [1, 2], [0, 2]], [[0, 1], [1, 3], [0, 2]],
                                       [[0, 1], "12", [0, 2]]])
    def test_spanning_tree_edges(self, tmp_path, capsys, command, edges):
        doc = {"kind": "binary", "n": 3, "polytope": dict(self.TREE, edges=edges),
               "objective": ["1", "2", "3"], "forbidden": []}
        code, out = run(capsys, [command, write_json(tmp_path, "p.json", doc)])
        assert code == 1 and "polytope.edges" in json.loads(out)["message"]

    # a connected graph has at most edges + 1 nodes: refused before any
    # per-node list is allocated
    @pytest.mark.parametrize("command", ["solve", "kbest"])
    def test_spanning_tree_too_many_nodes(self, tmp_path, capsys, command):
        doc = {"kind": "binary", "n": 3, "polytope": dict(self.TREE, nodes=2 ** 62),
               "objective": ["1", "2", "3"], "forbidden": [], "k": 2}
        code, out = run(capsys, [command, write_json(tmp_path, "p.json", doc)])
        assert code == 1 and json.loads(out)["message"] == "graph is not connected"
        assert capsys.readouterr().err == ""

    # the value of "1e4000000" has four million digits; Fraction would build it
    @pytest.mark.parametrize("command, doc, field", [
        ("solve", {"kind": "binary", "n": 2, "polytope": {"type": "cube"},
                   "objective": ["1e4000000", "1"], "forbidden": []}, "'objective'"),
        ("kbest", {"kind": "binary", "n": 2, "polytope": {"type": "cube"},
                   "objective": ["1", "-2E+9"], "forbidden": [], "k": 2}, "'objective'"),
        ("solve", {"kind": "binary", "n": 2,
                   "polytope": {"type": "hrep", "rows": [{"a": ["1", "1"], "rel": "<=",
                                                          "b": "3e4000000"}]},
                   "objective": ["1", "1"], "forbidden": []}, "polytope.rows[0]"),
        ("solve", {"kind": "binary", "n": 2,
                   "polytope": {"type": "hrep", "rows": [{"a": [1, "1e3"], "rel": "<=",
                                                          "b": 1}]},
                   "objective": ["1", "1"], "forbidden": []}, "polytope.rows[0]"),
    ])
    def test_exponent_notation_is_refused(self, tmp_path, capsys, command, doc, field):
        code, out = run(capsys, [command, write_json(tmp_path, "p.json", doc)])
        message = json.loads(out)["message"]
        assert code == 1 and field in message and "exponent notation" in message

    def test_exponent_notation_in_lp_file(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 1, ["0"], [])
        lp = tmp_path / "f.lp"
        lp.write_text("\\ fvx-lp v1\n\\ meta: n_original=1\nMinimize\n obj: 0 x1\n"
                      "Subject To\n r1: 1 x1 >= 0\nBounds\n 0 <= x1 <= 1e4000000\nEnd\n")
        code, out = run(capsys, ["verify", path, "--lp", str(lp)])
        assert code == 1 and "exponent notation" in json.loads(out)["message"]


class TestHrepEntries:
    """H-rep coefficients: JSON ints kept as ints, other entries parsed once."""

    @staticmethod
    def hrep_file(tmp_path, a, b=1):
        rows = [{"a": a, "rel": "<=", "b": b}]
        rows += [{"a": [int(i == j) for j in range(len(a))], "rel": rel, "b": v}
                 for i in range(len(a)) for rel, v in ((">=", 0), ("<=", 1))]
        return write_json(tmp_path, "h.json", {
            "kind": "binary", "n": len(a), "polytope": {"type": "hrep", "rows": rows},
            "objective": [-1] * len(a), "forbidden": []})

    @pytest.mark.parametrize("entry", [1.0, 0.5, "1/0"])
    def test_bad_coefficient_names_its_row(self, tmp_path, capsys, entry):
        code, out = run(capsys, ["solve", self.hrep_file(tmp_path, [1, entry])])
        assert code == 1 and "polytope.rows[0]" in json.loads(out)["message"]

    def test_integral_entries_are_ints(self, tmp_path):
        path = self.hrep_file(tmp_path, [1, "4", "6/3", "1/2"], "10/2")
        # 1, 4, 2, 1/2 <= 5 is stored scaled to ints once
        (a, rel, b), *_ = fvx.cli.load_problem(path).hpolytope().rows
        assert a == (2, 8, 4, 1) and (rel, b) == ("<=", 10)
        assert [type(v) for v in (*a, b)] == [int] * 5


class TestValuesTooLongToPrint:
    """A value with more digits than str() converts exits 1, without a traceback."""

    BIG = "-" + "9" * 4300  # the longest integer str() converts; twice it is longer

    @pytest.mark.parametrize("command", ["solve", "kbest"])
    def test_objective_value(self, tmp_path, capsys, command):
        path = cube_problem(tmp_path, 2, [self.BIG, self.BIG], [], k=2)
        code, out = run(capsys, [command, path])
        assert code == 1 and "too long to print" in json.loads(out)["message"]
        assert capsys.readouterr().err == ""

    def test_fractional_vertex(self, tmp_path, capsys):
        # x1 <= x2 / A and x2 <= 1 / A: the vertex has x1 = 1 / A^2
        big = "9" * 4300
        rows = [{"a": [big, "-1"], "rel": "<=", "b": "0"}, {"a": ["0", big], "rel": "<=", "b": "1"},
                {"a": [1, 0], "rel": ">=", "b": "0"}, {"a": [0, 1], "rel": ">=", "b": "0"}]
        path = write_json(tmp_path, "p.json", {"kind": "binary", "n": 2, "forbidden": [],
                                               "polytope": {"type": "hrep", "rows": rows},
                                               "objective": ["-1", "0"]})
        code, out = run(capsys, ["solve", path])
        assert code == 1 and "too long to print" in json.loads(out)["message"]

    def test_compiled_row(self, tmp_path, capsys):
        # scaling the row to integers multiplies two 4300-digit denominators
        rows = [{"a": ["1/" + "9" * 4300, "1/" + "8" * 4300], "rel": "<=", "b": "1"},
                {"a": [1, 0], "rel": ">=", "b": "0"}, {"a": [0, 1], "rel": ">=", "b": "0"}]
        path = write_json(tmp_path, "p.json", {"kind": "binary", "n": 2, "forbidden": [],
                                               "polytope": {"type": "hrep", "rows": rows}})
        code, out = run(capsys, ["compile", path, "--method", "faces"])
        assert code == 1 and "too long to print" in json.loads(out)["message"]


class TestNumeralsTooLongToParse:
    """A numeral with more digits than int() converts exits 1 at a named
    guard, and the message does not echo it."""

    LONG = "1/" + "3" * 5000

    @staticmethod
    def _refused(capsys, args) -> str:
        code, out = run(capsys, args)
        message = json.loads(out)["message"]
        assert code == 1 and len(message) < 300
        assert f"more than {sys.get_int_max_str_digits()} digits" in message
        return message

    def test_objective_entry(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, [self.LONG, "0"], [])
        assert "'objective'" in self._refused(capsys, ["solve", path])

    def test_hrep_rhs(self, tmp_path, capsys):
        rows = [{"a": [1, 1], "rel": "<=", "b": self.LONG},
                {"a": [1, 0], "rel": ">=", "b": "0"}, {"a": [0, 1], "rel": ">=", "b": "0"}]
        path = write_json(tmp_path, "p.json", {"kind": "binary", "n": 2, "forbidden": [],
                                               "polytope": {"type": "hrep", "rows": rows},
                                               "objective": ["-1", "0"]})
        assert "polytope.rows[0]" in self._refused(capsys, ["solve", path])

    @pytest.mark.parametrize("long", ["3" * 5000, "-" + "3" * 5000], ids=["plus", "minus"])
    @pytest.mark.parametrize("where", ["coefficient", "rhs", "objective"])
    def test_plain_integral_numeral(self, tmp_path, capsys, long, where):
        # no slash: the plain-numeral int() path sees it first and must hand it on
        rows = [{"a": [1, 1], "rel": "<=", "b": "1"},
                {"a": [1, 0], "rel": ">=", "b": "0"}, {"a": [0, 1], "rel": ">=", "b": "0"}]
        objective = ["-1", "0"]
        if where == "coefficient":
            rows[0]["a"][0] = long
        elif where == "rhs":
            rows[0]["b"] = long
        else:
            objective[0] = long
        path = write_json(tmp_path, "p.json", {"kind": "binary", "n": 2, "forbidden": [],
                                               "polytope": {"type": "hrep", "rows": rows},
                                               "objective": objective})
        message = self._refused(capsys, ["solve", path])
        assert ("'objective'" if where == "objective" else "polytope.rows[0]") in message

    def test_malformed_entry_is_cut_short(self, tmp_path, capsys):
        # not a numeral at all, so no digit guard: the echo itself is cut short
        path = cube_problem(tmp_path, 2, ["x" * 100_000, "0"], [])
        code, out = run(capsys, ["solve", path])
        message = json.loads(out)["message"]
        assert code == 1 and len(message) < 300
        assert "'objective'" in message and "not a rational: 'xxxx" in message
        assert "(100002 characters)" in message

    def test_lp_coefficient(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["0", "0"], ["00"])
        lp = tmp_path / "long.lp"
        run(capsys, ["compile", path, "--method", "interval", "-o", str(lp)])
        text = lp.read_text()
        row = next(line for line in text.splitlines() if line.startswith(" r1: "))
        lp.write_text(text.replace(row, row.replace(" r1: ", " r1: " + "9" * 5000 + " x1 + ", 1)))
        self._refused(capsys, ["verify", path, "--lp", str(lp)])


class TestWideLatticeBox:
    """A box of width 10^18: the box family follows |X|, not the widths."""

    W = 10 ** 18
    C = (1, -2, 3)  # optimum (0, W, 0)

    @staticmethod
    def _capped_run(args, timeout=60):
        """Run `python -m fvx.cli` in a child capped at 2 GB of address space."""
        resource = pytest.importorskip("resource")
        cap = 2 * 1024 ** 3

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-m", "fvx.cli", *args], capture_output=True,
                              text=True, timeout=timeout, preexec_fn=limit, env=env)

    def test_solve_and_kbest(self, tmp_path):
        rng = random.Random(53)
        W, c = self.W, self.C
        # points within increase 30 of the optimum lie in this small box
        near = [(x1, W - d2, x3) for x1 in range(31) for d2 in range(16) for x3 in range(11)]
        forbidden = set(rng.sample(near, 20)) | {(0, W, 0)}
        while len(forbidden) < 200:
            forbidden.add(tuple(rng.randint(0, W) for _ in range(3)))
        path = write_json(tmp_path, "wide.json", {
            "kind": "integral", "n": 3,
            "polytope": {"type": "lattice-box", "l": [0, 0, 0], "u": [W, W, W]},
            "objective": list(c), "forbidden": [list(p) for p in forbidden]})
        ranked = sorted((sum(a * v for a, v in zip(c, p)), p)
                        for p in near if p not in forbidden)[:50]
        assert ranked[-1][0] <= -2 * W + 30  # so no point outside `near` ranks higher

        solve = self._capped_run(["solve", path])
        assert solve.returncode == 0, solve.stderr
        doc = json.loads(solve.stdout)
        assert (doc["value"], tuple(doc["vertex"])) == (str(ranked[0][0]), ranked[0][1])

        top = self._capped_run(["kbest", path, "-k", "50"])
        assert top.returncode == 0, top.stderr
        doc = json.loads(top.stdout)
        assert doc["exhausted"] is False
        assert [(int(v), tuple(p)) for v, p in zip(doc["values"], doc["vertices"])] == ranked
