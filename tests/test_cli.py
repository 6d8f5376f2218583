import json
from pathlib import Path

import pytest

from fvx.cli import main

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
        assert doc["vertex"] == "001" and doc["oracle_calls"] == 3

    def test_infeasible_exit_2(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 1, ["1"], ["0", "1"])
        code, out = run(capsys, ["solve", path])
        assert code == 2 and json.loads(out)["status"] == "infeasible"

    def test_bad_bitstring_exit_1(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 3, ["1", "1", "1"], ["00"])
        code, out = run(capsys, ["solve", path])
        doc = json.loads(out)
        assert code == 1 and "forbidden[0]" in doc["message"]

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
        assert code == 0 and doc["value"] == "-1" and doc["vertex"] == "10"

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

    def test_seed_reproducible_bytes(self, tmp_path, capsys):
        path = cube_problem(tmp_path, 2, ["0", "0"], ["10"])
        _, out1 = run(capsys, ["verify", path, "--method", "interval",
                               "--seed", "42"])
        _, out2 = run(capsys, ["verify", path, "--method", "interval",
                               "--seed", "42"])
        assert out1 == out2

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


class TestInputValidation:
    """Malformed fields exit 1 with a message naming the field."""

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
