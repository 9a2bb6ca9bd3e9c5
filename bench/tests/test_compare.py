"""compare.py: passes an identical pair, flags a real slowdown."""

import copy
import json

from bench import compare
from bench.metrics import END_TO_END_BY_NAME, HOST


def _write(tmp_path, name, results):
    path = tmp_path / name
    path.write_text(json.dumps(results))
    return str(path)


def test_identical_pair_passes_same_code(smoke_results, tmp_path, capsys):
    results, path, _ = smoke_results
    assert compare.main([str(path), str(path), "--same-code"]) == 0
    out = capsys.readouterr().out
    assert "regressed" not in out.splitlines()[-1]
    assert "report_sha256" in out


def test_synthetic_slowdown_is_flagged(smoke_results, tmp_path, capsys):
    results, path, _ = smoke_results
    slow = copy.deepcopy(results)
    for run in slow["workloads"].values():
        for name in run["end_to_end"]:
            metric = END_TO_END_BY_NAME[name]
            if metric.kind == HOST and metric.unit == "1/s":
                run["end_to_end"][name] *= 0.8
                run["samples"][name] = [
                    v * 0.8 for v in run["samples"][name]]
    assert compare.main([str(path), _write(tmp_path, "slow.json", slow)]) == 1
    lines = capsys.readouterr().out.splitlines()
    flagged = [line for line in lines if line.endswith("regressed")]
    assert any("ops_per_s" in line for line in flagged)
    assert not any("peak_rss_mb" in line for line in flagged)


def test_noisy_overlapping_repeats_are_unresolved():
    metric = END_TO_END_BY_NAME["ops_per_s"]
    # 20 % down on the value, but both sides' repeats spread wider
    # than the bound and overlap: not enough evidence either way.
    assert compare.verdict(metric, 100.0, 80.0, [70, 100, 130],
                           [60, 80, 110], same_code=False) \
        == compare.UNRESOLVED
    assert compare.verdict(metric, 100.0, 80.0, [99, 100, 101],
                           [79, 80, 81], same_code=False) \
        == compare.REGRESSED


def test_same_code_demands_identical_sim_metrics(smoke_results, tmp_path):
    results, path, _ = smoke_results
    drift = copy.deepcopy(results)
    drift["workloads"]["fleet_overload"]["end_to_end"][
        "goodput_tasks"] += 6
    other = _write(tmp_path, "drift.json", drift)
    assert compare.main([str(path), other, "--same-code"]) == 1


def test_different_seeds_are_not_compared(smoke_results, tmp_path):
    results, path, _ = smoke_results
    other = dict(results, seed=results["seed"] + 1)
    assert compare.main([str(path), _write(tmp_path, "o.json", other)]) == 2
