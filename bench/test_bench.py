"""Smoke tests of the benchmark itself: python3 -m pytest bench

Each workload runs at a smoke size in a few seconds. The tests check that
every metric BENCHMARK.json declares is printed with its unit and direction,
that tracing puts back every name it rebinds, and that a failure inside a
pass is counted instead of ending the run.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import BUSY_METRIC, Tracer, resolve  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

SMOKE = {
    "select-shap": lambda: workloads.SelectShap(n_train=300, n_test=300, rounds=3, floors={}),
    "glassbox-family": lambda: workloads.GlassboxFamily(n_train=300, n_test=200, floors={}),
    "score-explain": lambda: workloads.ScoreExplain(
        n_train=300, batch_rows=300, rounds=3, requests=5, floors={}
    ),
}


@pytest.fixture(autouse=True)
def _few_passes(monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 2)


def _run(workload, trace, tmp_path, capsys):
    result = run.execute(workload, 7, 0.0, trace, SPEC, str(tmp_path / "work"), str(tmp_path / "out"))
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == json.loads(json.dumps(result))
    return result, lines


def _assert_declared(result, lines, declared):
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(f"metric {m['name']} = ") and f" {m['unit']} ({m['better']} is better;" in line
            for line in lines
        ), m["name"]


def _package_names():
    return {
        (key, attr): value
        for key, module in sys.modules.items()
        if key.startswith("glassbox_credit.")
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_untraced_run_prints_every_end_to_end_metric(name, tmp_path, capsys):
    result, lines = _run(SMOKE[name](), 0, tmp_path, capsys)
    assert result["correct"] and result["failed"] == 0
    if name == "score-explain":  # each pass, then loading its models and serving its requests
        assert result["attempted"] == run.MIN_PASSES * (2 + SMOKE[name]().requests)
        for info, (unit, better) in run.UNGATED.items():
            assert any(line.startswith(f"info {info} = ") and f" {unit} ({better} is better;" in line for line in lines)
    else:
        assert result["attempted"] == run.MIN_PASSES
    _assert_declared(result, lines, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("quality ebm_auprc = ") and "(higher is better;" in line for line in lines)
    assert f"operations attempted {result['attempted']} failed 0" in lines


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_run_prints_every_layer_and_restores_names(name, tmp_path, capsys):
    before = _package_names()
    originals = {entry: getattr(*resolve(entry)) for entry in BUSY_METRIC}
    result, lines = _run(SMOKE[name](), 1, tmp_path, capsys)
    assert result["correct"]
    _assert_declared(result, lines, SPEC["per_layer"])
    after = _package_names()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert all(getattr(*resolve(entry)) is original for entry, original in originals.items())
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["pipeline.self_s"] > -1e-3  # layers do not double-count time
    assert os.path.getsize(tmp_path / "out" / f"{name}.spans.jsonl") > 0
    if name == "glassbox-family":
        for key in ("gbdt.fit_s", "gbdt.predict_s", "attribution.busy_s", "attribution.rows"):
            assert values[key] == 0
        assert values["pltr.rules"] > 0 and values["ebm.pairs_scored"] > 0
    if name == "select-shap":
        assert values["attribution.rows"] > 0 and values["gbdt.trees"] == 3


def test_tracer_rebinds_imported_names_and_restores_them():
    from glassbox_credit import gbdt, pipeline

    original = gbdt.fit_gbdt
    with Tracer(["gbdt.fit_gbdt"]):
        assert pipeline.fit_gbdt is gbdt.fit_gbdt is not original
    assert pipeline.fit_gbdt is gbdt.fit_gbdt is original


def test_truncated_model_file_counts_as_failed_operations(tmp_path, capsys):
    class TruncatedModel(workloads.ScoreExplain):
        def setup(self, seed, work):
            state = super().setup(seed, work)
            with open(state["paths"]["gbdt"], "r+", encoding="utf-8") as fh:
                fh.truncate(100)
            return state

    result, lines = _run(TruncatedModel(n_train=300, batch_rows=300, rounds=3, requests=5, floors={}),
                         0, tmp_path, capsys)
    # each pass and each model load fails; no request is served
    assert result["failed"] == result["attempted"] == 2 * run.MIN_PASSES
    assert not result["correct"]
    assert any("ModelFormatError" in line for line in lines)


def test_quality_below_floor_fails_the_pass(tmp_path, capsys):
    workload = workloads.SelectShap(n_train=300, n_test=300, rounds=3, floors={"ebm_auroc": 1.01})
    result, lines = _run(workload, 0, tmp_path, capsys)
    assert result["failed"] == run.MIN_PASSES
    assert any("below floor" in line for line in lines)
