"""The ledger run: schema, names, accounting, and the CLI's refusals."""

import json
import os
import shutil
import subprocess
import sys

from bench.metrics import (
    ALL,
    END_TO_END,
    END_TO_END_BY_NAME,
    NAME_RE,
    PER_LAYER,
    UNIT_RE,
    check_names,
)

from .conftest import ROOT, run_bench


def test_registry_names_and_units_are_valid():
    assert check_names() is None
    for metric in END_TO_END + PER_LAYER:
        assert NAME_RE.match(metric.name) and UNIT_RE.match(metric.unit)


def test_results_schema(smoke_results):
    results, _, _ = smoke_results
    assert results["schema"] == 1
    assert set(results["env"]) >= {"python", "numpy", "nproc",
                                   "git_commit"}
    assert set(results["workloads"]) == set(ALL)
    for name, run in results["workloads"].items():
        assert NAME_RE.match(name)
        assert run["ops_attempted"] >= 1 and run["ops_failed"] == 0
        assert all(check["ok"] for check in run["checks"])
        assert len(run["report_sha256"]) == 64
        for repeat in run["repeats"]:
            assert set(repeat) == {"wall_s", "cpu_s", "calibrated_s",
                                   "disturbed", "report_sha256"}
            # Calibration only ever discounts contention.
            assert 0 < repeat["calibrated_s"] <= repeat["wall_s"]
        # Every reported metric is registered, defined on this
        # workload, and never a stand-in zero.
        for metric, value in run["end_to_end"].items():
            assert name in END_TO_END_BY_NAME[metric].workloads
            assert value > 0
        expected = {m.name for m in END_TO_END if name in m.workloads}
        assert set(run["end_to_end"]) == expected
        assert set(run["per_layer"]) <= {m.name for m in PER_LAYER}
        always = {m.name for m in PER_LAYER if m.always}
        assert always <= set(run["per_layer"])


def test_undefined_metrics_are_omitted_not_zero(smoke_results):
    results, _, _ = smoke_results
    campaign = results["workloads"]["paper_campaign"]
    assert "ticks_per_s" not in campaign["end_to_end"]
    assert "fleet.tick_p50_ms" not in campaign["per_layer"]
    fleet = results["workloads"]["fleet_steady"]
    assert "plans_per_s" not in fleet["end_to_end"]
    assert "core.autotune_gain_geomean" not in fleet["per_layer"]


def test_self_times_sum_to_the_traced_wall(smoke_results):
    results, _, _ = smoke_results
    for run in results["workloads"].values():
        traced = run["traced"]
        assert abs(traced["self_sum_s"] - traced["wall_s"]) \
            <= 0.02 * traced["wall_s"]
        assert abs(sum(run["layer_shares"].values()) - 1.0) < 1e-6
        # Tracing must not perturb results.
        assert traced["report_sha256"] == run["report_sha256"]


def test_every_metric_is_printed_with_its_unit(smoke_results):
    results, _, stdout = smoke_results
    for run in results["workloads"].values():
        for metric in list(run["end_to_end"]) + list(run["per_layer"]):
            assert f"  {metric} " in stdout
    assert "report_sha256" in stdout


def test_single_run_ends_in_the_contract_line():
    with open(ROOT / "BENCHMARK.json") as source:
        declared = json.load(source)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_bench("--workload", "fleet_steady", "--scale", "smoke",
                         "--seed", "3", "--seconds", "0.2",
                         "--trace", trace)
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in declared[key]}
        units = {m["name"]: m["unit"] for m in declared[key]}
        for name, cell in line["metrics"].items():
            assert set(cell) == {"value", "unit"}
            assert cell["unit"] == units[name]


def test_benchmark_json_matches_the_registry():
    with open(ROOT / "BENCHMARK.json") as source:
        declared = json.load(source)
    assert set(declared) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in declared["workloads"]] == list(ALL)
    universal = [m for m in END_TO_END if m.pipeline_bound is not None]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.pipeline_bound} for m in universal
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER if m.always
    ]


def test_child_refuses_a_leaked_engine_switch():
    env = dict(os.environ, REPRO_CHECK="1",
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    done = subprocess.run(
        [sys.executable, "-m", "bench.child", "--workload",
         "fleet_steady", "--seed", "7", "--scale", "smoke", "--t0", "0"],
        cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=60,
    )
    assert done.returncode == 2
    assert "REPRO_CHECK" in done.stderr and not done.stdout.strip()


def test_parent_scrubs_the_engine_switch_from_the_child():
    env = dict(os.environ, REPRO_SIM_ENGINE="reference")
    done = run_bench("--workload", "fleet_steady", "--scale", "smoke",
                     "--no-trace", "--repeats", "1", "--out",
                     os.devnull, env=env)
    assert done.returncode == 0, done.stderr


def test_unknown_workload_is_refused():
    done = run_bench("--workload", "nope")
    assert done.returncode == 2 and "unknown workload" in done.stderr


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only the benchmark's own files the run
    must fail loudly and print no result."""
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "fleet_steady", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path,
                     env={k: v for k, v in os.environ.items()
                          if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert "no program to measure" in done.stderr
    assert not done.stdout.strip()
