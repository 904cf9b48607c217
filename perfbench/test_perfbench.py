"""Tests of the benchmark's own code: its contract file, metrics, checks and tracer.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_file_follows_its_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_listed_metric_is_reported_with_its_unit():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    layer = run.layer_metrics({}, {}, {})
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layer)
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert run.unit(m["name"]) == m["unit"]


def test_seeded_inputs_repeat_and_vary():
    for name, workload in workloads.WORKLOADS.items():
        assert workload.build(7) == workload.build(7), name
    assert workloads.algebra_commands(7) != workloads.algebra_commands(8)
    assert workloads.geometry_commands(7) != workloads.geometry_commands(8)


def _outcome(report: dict, code: int) -> workloads.Outcome:
    return workloads.Outcome(code, json.dumps(report), 0.0, 1.0, 1.0)


def test_eq_search_check_rejects_a_false_solution_and_differing_reports():
    good = {"bound": 9, "non_conjugate_family_count": 0, "solutions": [{"x": "a", "y": "b"}]}
    bad = {"bound": 9, "non_conjugate_family_count": 0, "solutions": [{"x": "b", "y": "a"}]}
    ok = workloads.check_eq_search(1, {"solve-eq": _outcome(good, 0), "solve-eq-jobs2": _outcome(good, 0)})
    assert ok == {"solve-eq": None, "solve-eq-jobs2": None}
    wrong = workloads.check_eq_search(1, {"solve-eq": _outcome(bad, 0), "solve-eq-jobs2": _outcome(good, 0)})
    assert wrong["solve-eq"] and wrong["solve-eq-jobs2"]
    exit_code = workloads.check_eq_search(1, {"solve-eq": _outcome(good, 2), "solve-eq-jobs2": _outcome(good, 0)})
    assert exit_code["solve-eq"] and exit_code["solve-eq-jobs2"] is None


def test_algebra_check_verifies_the_smith_form_of_the_seeded_matrix():
    from vclab import presentations

    seed = 3
    snf = presentations.smith_normal_form(workloads.snf_matrix(random.Random(seed)))
    report = snf.to_json_dict()
    suite = {"ok": True}
    qm = {"defect_estimate": {"lower_bound": "2", "sample_count": workloads.QM_PAIRS}}
    outcomes = {"dihedral-counterexample": _outcome(suite, 0), "snf": _outcome(report, 0), "qm-defect": _outcome(qm, 0)}
    assert workloads.check_algebra(seed, outcomes) == dict.fromkeys(outcomes)
    report["u"][0][0] += 1
    outcomes["snf"] = _outcome(report, 0)
    assert workloads.check_algebra(seed, outcomes)["snf"] == "U M V != D"


def _vclab_namespaces():
    import importlib

    spaces = []
    for name in tracer.MODULES:
        module = importlib.import_module(f"vclab.{name}")
        spaces.append(module)
        spaces.extend(obj for obj in vars(module).values() if isinstance(obj, type) and obj.__module__ == module.__name__)
    return {id(space): dict(vars(space)) for space in spaces}


def _cli(argv):
    from vclab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_tracer_counts_layers_and_leaves_vclab_unchanged():
    argv = ["solve-eq", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", "4"]
    before = _vclab_namespaces()
    plain = _cli(argv)
    with tracer.Tracer() as t:
        traced = _cli(argv)
    assert traced == plain
    after = _vclab_namespaces()
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys()
        assert all(after[key][attr] is value for attr, value in attrs.items())
    layer = run.layer_metrics({}, {}, {name: stat.as_dict() for name, stat in t.stats.items()})
    assert layer["words.enumerate.words"] == layer["equations.candidates"] == 161
    assert layer["oracles.root.calls"] > 0 and layer["words.mul.calls"] > 0
    assert layer["cli.self_s"] > 0
    for stat in t.stats.values():
        assert stat.self_s <= stat.total_s + 1e-9


def test_speed_scales_spans_by_the_probe_samples():
    slow_later = [(float(t), run.REFERENCE_PROBE_S * (2 if t >= 10 else 1)) for t in range(20)]
    always_slow = [(float(t), run.REFERENCE_PROBE_S * 4) for t in range(20)]
    speed = run.Speed({0: always_slow, 1: slow_later}, cpu=1)
    assert speed.factor(0, 10) == 1
    assert speed.factor(10, 20) == 0.5
    assert speed.factor(100, 101) == 0.5  # past the last sample: the nearest one
    assert speed.factor(0, 10, every_cpu=True) == (1 + 0.25) / 2
    out = speed.outcome(workloads.Outcome(0, "", 12.0, 4.0, 6.0), parallel=False)
    assert (out.wall_s, out.cpu_s) == (2.0, 3.0)
