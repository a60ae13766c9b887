"""The A/B summary of ``scripts/ab_bench.py``, on fixed numbers; no benchmark runs."""
import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

PARENT = [0.50, 0.52, 0.47, 0.55, 0.49, 0.51, 0.53, 0.48, 0.56, 0.50]
CHANGE = [0.40, 0.41, 0.47, 0.39, 0.42, 0.38, 0.43, 0.40, 0.41, 0.60]


class TestSummarize:
    def test_lower_is_better(self):
        assert ab_bench.summarize(PARENT, CHANGE, "lower") == {
            # sorted, the quartiles sit at positions 2.75 and 8.25 of 10
            "parent": {"median": 0.505, "q1": 0.4875, "q3": 0.535},
            "change": {"median": 0.41, "q1": 0.3975, "q3": 0.44},
            # pair 3 is a tie and pair 10 a loss
            "change_wins": 8,
            "change_over_parent": 0.8119,
            "parent_iqr": 0.0475,
        }

    def test_higher_is_better(self):
        summary = ab_bench.summarize(PARENT, CHANGE, "higher")
        assert summary["change_wins"] == 1
        assert summary["change_over_parent"] == 0.8119

    def test_ties_count_for_neither_side(self):
        assert ab_bench.summarize([1.0, 2.0], [1.0, 2.0], "lower")["change_wins"] == 0

    @pytest.mark.parametrize("parent, change, better", [
        ([1.0, 2.0], [1.0], "lower"), ([1.0], [1.0], "lower"), ([1.0, 2.0], [1.0, 2.0], "up")])
    def test_rejects_bad_input(self, parent, change, better):
        with pytest.raises(ValueError):
            ab_bench.summarize(parent, change, better)


class TestVerdict:
    def test_nine_wins_and_a_gap_past_the_parent_iqr_meet_the_claim(self):
        change = CHANGE[:2] + [0.46] + CHANGE[3:]  # pair 3 won: 9 of 10
        summary = ab_bench.summarize(PARENT, change, "lower")
        assert summary["change_wins"] == 9
        assert ab_bench.verdict(summary, 10, "lower", 0.25)["claim_met"] is True

    def test_eight_wins_do_not(self):
        summary = ab_bench.summarize(PARENT, CHANGE, "lower")
        assert ab_bench.verdict(summary, 10, "lower", 0.25) == \
            {"claim_met": False, "within_bound": True}

    def test_a_gap_inside_the_parent_iqr_does_not(self):
        change = [p - 0.01 for p in PARENT]
        summary = ab_bench.summarize(PARENT, change, "lower")
        assert summary["change_wins"] == 10 and summary["parent_iqr"] == 0.0475
        assert ab_bench.verdict(summary, 10, "lower", 0.25)["claim_met"] is False

    def test_wins_in_the_wrong_direction_do_not(self):
        summary = ab_bench.summarize(PARENT, CHANGE, "higher")
        assert ab_bench.verdict(summary, 10, "higher", 0.25)["claim_met"] is False

    @pytest.mark.parametrize("better, change, within", [
        ("lower", 11.0, True), ("lower", 11.5, False), ("lower", 5.0, True),
        ("higher", 9.0, True), ("higher", 8.5, False), ("higher", 20.0, True)])
    def test_within_bound_is_relative_to_the_parent_median(self, better, change, within):
        summary = ab_bench.summarize([10.0] * 4, [change] * 4, better)
        assert ab_bench.verdict(summary, 4, better, 0.1)["within_bound"] is within


def _result(run_s, failed=0):
    metrics = {name: {"value": value, "unit": "s"}
               for name, value in (("run_s", run_s), ("items_per_s", 1 / run_s),
                                   ("peak_rss_mb", 40.0), ("setup_s", 0.16))}
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}


def test_pairs_alternate_which_side_runs_first(capsys):
    calls = []

    def run(checkout, workload, seed, seconds, trace):
        calls.append(checkout.name)
        return _result(0.5 if checkout.name == "p" else 0.4)

    sides = {"parent": Path("p"), "change": Path("c")}
    results = ab_bench.run_pairs(sides, "spread", 3, 1.0, 0, 3, run=run)
    assert calls == ["p", "c", "c", "p", "p", "c"]
    assert [r["metrics"]["run_s"]["value"] for r in results["change"]] == [0.4] * 3
    capsys.readouterr()


def test_end_to_end_summary():
    results = {"parent": [_result(t) for t in PARENT],
               "change": [_result(t, failed=int(t == 0.60)) for t in CHANGE]}
    better = {"run_s": "lower", "items_per_s": "higher", "peak_rss_mb": "lower",
              "setup_s": "lower"}
    summary = ab_bench.end_to_end_summary(results, better)
    assert summary["pairs"] == 10
    assert summary["failed_passes"] == {"parent": 0, "change": 1}
    assert summary["attempted_passes"] == {"parent": 100, "change": 100}
    assert summary["correct"] is False
    assert summary["run_s"]["unit"] == "s" and summary["run_s"]["better"] == "lower"
    assert summary["run_s"]["change_wins"] == 8
    assert summary["items_per_s"]["change_wins"] == 8
    assert summary["setup_s"]["change_wins"] == 0


def test_end_to_end_summary_with_bounds():
    change = CHANGE[:2] + [0.46] + CHANGE[3:]  # 9 of 10 pairs faster
    results = {"parent": [_result(t) for t in PARENT], "change": [_result(t) for t in change]}
    better = {"run_s": "lower", "items_per_s": "higher", "setup_s": "lower"}
    bounds = {"run_s": 0.25, "items_per_s": 0.25, "setup_s": 0.0}
    summary = ab_bench.end_to_end_summary(results, better, bounds)
    assert {name: (summary[name]["claim_met"], summary[name]["within_bound"])
            for name in better} == {"run_s": (True, True), "items_per_s": (True, True),
                                    "setup_s": (False, True)}


def test_warm_bytecode_writes_every_module(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    modules = [tmp_path / "src" / "pkg" / "__init__.py", tmp_path / "src" / "pkg" / "mod.py"]
    for module in modules:
        module.parent.mkdir(parents=True, exist_ok=True)
        module.write_text("VALUE = 1\n", encoding="utf-8")
    (tmp_path / "bench.py").write_text("VALUE = 2\n", encoding="utf-8")
    ab_bench.warm_bytecode(tmp_path)
    for module in modules:
        assert Path(importlib.util.cache_from_source(str(module))).is_file()
    assert not (tmp_path / "__pycache__").exists()


def test_warm_bytecode_refuses_a_broken_module(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "bad.py").write_text("def (:\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match="could not compile"):
        ab_bench.warm_bytecode(tmp_path)
