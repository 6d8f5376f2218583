"""Tests of the benchmark itself: inputs, answer checks and traced counts.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import json
import os

import pytest

import reference as ref
import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 11


@pytest.fixture(scope="module")
def cli():
    return run.import_fvx()


@pytest.fixture(scope="module")
def built():
    return {name: workloads.build(name, SEED) for name in workloads.WORKLOADS}


def _setup(cli, w, workdir, monkeypatch):
    w.write(str(workdir))
    monkeypatch.chdir(workdir)
    run.prepare(cli, w)
    return w


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_byte_deterministic(built, name):
    assert built[name].files() == workloads.build(name, SEED).files()


def test_generator_depends_on_the_seed(built):
    assert workloads.build("hrep-oracle", SEED + 1).files() != built["hrep-oracle"].files()


def test_hrep_reference_matches_a_plain_scan():
    spec = workloads._capped_cube_hrep(6, 2)
    scan = [v for v in ref.vertices(6, {"type": "cube"}) if ref.is_vertex(6, spec, v)]
    assert sorted(ref.vertices(6, spec)) == sorted(scan)
    assert len(ref.vertices(16, workloads._matching_hrep(4))) == 209  # matchings of K4,4


def test_every_workload_plants_failing_operations(built):
    rcs = {name: [op["expect"]["rc"] for op in w.ops] for name, w in built.items()}
    assert 2 in rcs["enum-oracle"] and 2 in rcs["hrep-oracle"]
    assert 3 in rcs["formulation-verify"] and 1 in rcs["formulation-verify"]


def test_planted_wrong_answer_counts_as_failed(cli, built, tmp_path, monkeypatch):
    w = _setup(cli, built["enum-oracle"], tmp_path, monkeypatch)
    ops = [op for op in w.ops if op["cmd"] == "solve"][:3] \
        + [op for op in w.ops if op["expect"]["rc"] == 2]
    assert run.run_once(cli, run.Checker(w), ops).failures == []
    wrong = json.loads(json.dumps(ops))
    wrong[0]["expect"]["value"] = str(ref.rational(wrong[0]["expect"]["value"]) - 1)
    wrong[-1]["expect"] = {"rc": 0, "value": "0"}
    p = run.run_once(cli, run.Checker(w), wrong)
    assert [f["op"] for f in p.failures] == [0, len(ops) - 1]


def test_unmutated_lp_counts_as_failed_verification(cli, built, tmp_path, monkeypatch):
    w = _setup(cli, built["formulation-verify"], tmp_path, monkeypatch)
    planted = [op for op in w.ops if op.get("mutate")][:2]
    assert run.run_once(cli, run.Checker(w), planted).failures == []
    for op in planted:  # a verifier that checks less would accept the clean file
        run.call(cli, op["mutate"]["compile"])
    assert len(run.run_once(cli, run.Checker(w), planted).failures) == 2


def test_times_are_scaled_by_the_probes_around_them():
    p = run.Pass([{"cmd": "solve"}, {"cmd": "kbest"}])
    slow = 2 * run.REF_PROBE_S  # the machine ran at half the reference speed
    p.attempts = [(0, 0.010, slow), (1, 0.040, slow), (0, 0.012, slow)]
    assert p.op_times(scaled=False) == [0.011, 0.040]
    assert p.op_times() == pytest.approx([0.0055, 0.020])
    assert p.ops_per_s() == pytest.approx(2 / 0.0255)


def _traced_counts(cli, w, ops):
    tracer = tracing.Tracer()
    with tracer.installed():
        p = run.run_once(cli, run.Checker(w), ops)
    assert p.failures == []
    m = tracing.layer_metrics(tracer)
    return {k: m[k] for k in ("oracles.minimize.calls", "exactlp.solve_lp.calls",
                              "exactlp.feasible_with_fixings.calls", "separation.faces",
                              "integral.boxes", "extension.build.calls")}


@pytest.mark.parametrize("name, take", [("enum-oracle", 12), ("hrep-oracle", 6),
                                        ("formulation-verify", 6)])
def test_traced_counts_repeat_exactly(cli, built, tmp_path, monkeypatch, name, take):
    w = _setup(cli, built[name], tmp_path, monkeypatch)
    ops = w.ops[:take]
    first = _traced_counts(cli, w, ops)
    assert first == _traced_counts(cli, w, ops)
    if name == "enum-oracle":
        assert first["oracles.minimize.calls"] > 0 and first["separation.faces"] > 0
        assert first["exactlp.solve_lp.calls"] == first["exactlp.feasible_with_fixings.calls"] == 0
    if name == "formulation-verify":
        assert first["oracles.minimize.calls"] == 0
        assert first["exactlp.solve_lp.calls"] > 0


def test_tracer_restores_the_program(cli):
    import fvx.oracles
    import fvx.verify
    before = (fvx.verify.solve_lp, fvx.oracles.CubeOracle.__dict__["minimize"])
    with tracing.Tracer().installed():
        assert fvx.verify.solve_lp is fvx.oracles.solve_lp is not before[0]
    assert (fvx.verify.solve_lp, fvx.oracles.CubeOracle.__dict__["minimize"]) == before


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
