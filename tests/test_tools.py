"""Checks of the scripts in tools/."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs", ["0", "-2"])
def test_abpairs_refuses_fewer_than_one_pair(pairs, tmp_path, capsys):
    argv = ["--base", str(tmp_path), "--head", str(tmp_path), "--workload", "repair",
            "--pairs", pairs, "--seconds", "1", "--seed", "1"]
    with pytest.raises(SystemExit) as info:
        _load("abpairs").main(argv)
    assert info.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err


def _summary(better, base, head, tmp_path):
    spec = {"end_to_end": [{"name": "t_s", "unit": "s", "better": better, "bound": 0.2}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    abpairs = _load("abpairs")
    pairs = [{"base": {"metrics": {"t_s": {"value": x}}}, "head": {"metrics": {"t_s": {"value": y}}}}
             for x, y in zip(base, head)]
    return abpairs.summarize(pairs, abpairs.metric_specs(tmp_path))["t_s"]


@pytest.mark.parametrize("better, base, head, verdict", [
    # the head's median is 30% worse, past the bound of 20%
    ("lower", [1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "worse"),
    ("higher", [1.0, 1.0, 1.0, 1.0], [0.7, 0.7, 0.7, 0.7], "worse"),
    # the same median, but the base's spread is wider than the bound
    ("lower", [0.5, 1.0, 1.0, 1.5], [1.0, 1.0, 1.0, 1.0], "unresolved"),
    # as wide a spread, but every head run beats every base run
    ("lower", [0.5, 1.0, 1.0, 1.5], [0.4, 0.4, 0.4, 0.4], "ok"),
    ("higher", [0.5, 1.0, 1.0, 1.5], [1.6, 1.6, 1.6, 1.6], "ok"),
    # 10% worse, within the bound, and a narrow spread
    ("lower", [0.99, 1.0, 1.0, 1.01], [1.1, 1.1, 1.1, 1.1], "ok"),
])
def test_abpairs_states_one_verdict_per_metric(better, base, head, verdict, tmp_path):
    summary = _summary(better, base, head, tmp_path)
    assert summary["verdict"] == verdict
    assert (summary["better"], summary["bound"]) == (better, 0.2)


_SPREAD = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


@pytest.mark.parametrize("better, base, head, gain", [
    # nine wins at half the base's time and a tie: a gain
    ("lower", [1.0] * 10, [0.5] * 9 + [1.0], True),
    ("higher", [1.0] * 10, [1.5] * 10, True),
    # eight wins and two ties: too few wins, however far the medians are apart
    ("lower", [1.0] * 10, [0.5] * 8 + [1.0] * 2, False),
    # eight wins and two losses
    ("lower", [1.0] * 10, [0.5] * 8 + [1.5] * 2, False),
    # every pair won, but by less than the base's interquartile range
    ("lower", _SPREAD, [x - 0.05 for x in _SPREAD], False),
    # far beyond the spread, in the worse direction
    ("higher", [1.0] * 10, [0.5] * 10, False),
])
def test_abpairs_flags_a_gain(better, base, head, gain, tmp_path):
    assert _summary(better, base, head, tmp_path)["gain"] is gain


def test_classtimes_names_the_class_at_each_rank():
    root = _TOOLS.parent
    out = subprocess.run([sys.executable, str(_TOOLS / "classtimes.py"), "--root", str(root),
                          "--workload", "repair", "--seed", "1", "--rounds", "1"],
                         check=True, capture_output=True, text=True).stdout.splitlines()
    assert out[0].startswith("# repair seed=1: 1 rounds, 5 jobs")
    classes = {line.split()[0]: line.split()[1:] for line in out[2:5]}
    assert sorted(classes) == ["repair-6", "repair-7", "repair-8"]
    assert [cells[0] for cells in classes.values()] == ["1", "2", "2"]
    ranks = [line.split(":")[0].split() for line in out[5:]]
    assert [(op, q) for op, q, _ in ranks] == [(op, q) for op in ("build", "verify", "eval")
                                              for q in ("p50", "p75")]
    assert all(label in classes for _, _, label in ranks)


def test_classtimes_compares_a_checkout_with_itself_in_one_pair():
    root = str(_TOOLS.parent)
    out = subprocess.run([sys.executable, str(_TOOLS / "classtimes.py"), "--root", root,
                          "--base", root, "--pairs", "1", "--workload", "repair", "--seed", "1",
                          "--rounds", "1"], check=True, capture_output=True, text=True).stdout.splitlines()
    assert out[0].startswith("# repair seed=1: 1 pairs of 1 rounds")
    assert out[1].split()[2:] == [word for op in ("build", "verify", "eval")
                                  for word in (op, "base", op, "head", "ratio")]
    rows = [line.split() for line in out[2:out.index("")]]
    assert [row[0] for row in rows] == ["repair-6", "repair-7", "repair-8"]
    for label, base_jobs, head_jobs, *cells in rows:
        assert base_jobs == head_jobs == ("1" if label == "repair-6" else "2")
        for base, head, ratio in zip(cells[::3], cells[1::3], cells[2::3]):
            assert float(base) > 0 and float(head) > 0
            assert float(ratio) == pytest.approx(float(head) / float(base), rel=0.01)
    ranks = [line.split() for line in out[out.index("") + 3:]]
    assert [row[:2] for row in ranks] == [[op, q] for op in ("build", "verify", "eval")
                                          for q in ("p50", "p75")]
    for _, _, base, head, ratio, wins, _, pairs in ranks:
        assert float(base) > 0 and float(head) > 0 and wins in ("0", "1") and pairs == "1"


def _stub_rows(times: dict) -> list:
    """One run's rows: label -> the build times of its jobs; verify and eval
    read twice and three times the build time."""
    return [(label, {"build": t, "verify": 2 * t, "eval": 3 * t})
            for label, ts in times.items() for t in ts]


# Three pairs of runs of 8 jobs.  In its first two runs the head speeds the
# slow class "b" up by 40% and the fast class "a" by 5%; its third run is
# slower than every base job.
_BASE_RUNS = [_stub_rows({"a": [1.0, 1.1, 1.2], "b": [2.0, 2.1, 2.2, 2.3, 2.4]}),
              _stub_rows({"a": [1.0, 1.0, 1.3], "b": [2.1, 2.2, 2.2, 2.3, 2.5]}),
              _stub_rows({"a": [0.9, 1.1, 1.2], "b": [1.9, 2.0, 2.4, 2.6, 2.6]})]
_HEAD_RUNS = [_stub_rows({"a": [x * 0.95 for x in (1.0, 1.1, 1.2)],
                          "b": [x * 0.6 for x in (2.0, 2.1, 2.2, 2.3, 2.4)]}),
              _stub_rows({"a": [x * 0.95 for x in (1.0, 1.0, 1.3)],
                          "b": [x * 0.6 for x in (2.1, 2.2, 2.2, 2.3, 2.5)]}),
              _stub_rows({"a": [2.5, 2.5, 2.5], "b": [2.5, 2.6, 2.6, 2.7, 2.8]})]


def test_classtimes_rank_summary_takes_each_runs_nearest_rank_then_the_median():
    classtimes = _load("classtimes")
    # nearest rank: p50 is the 4th of 8 jobs, p75 the 6th
    assert classtimes.run_ranks(_BASE_RUNS[0])[("build", "p50")] == 2.0
    assert classtimes.run_ranks(_BASE_RUNS[0])[("build", "p75")] == 2.2
    assert classtimes.run_ranks(_HEAD_RUNS[0])[("verify", "p50")] == pytest.approx(2 * 1.2)
    summary = classtimes.rank_summary(_BASE_RUNS, _HEAD_RUNS)
    assert sorted(summary) == sorted((op, q) for op in ("build", "verify", "eval")
                                     for q in ("p50", "p75"))
    base, head, wins = summary[("build", "p50")]
    # base p50s 2.0, 2.1 and 1.9; head p50s 1.2, 1.26 and 2.5
    assert base == 2.0
    assert head == pytest.approx(1.26)
    assert wins == 2  # the third head run is slower everywhere
    base, head, wins = summary[("eval", "p75")]
    assert base == pytest.approx(3 * 2.2) and head == pytest.approx(3 * 2.2 * 0.6) and wins == 2


def test_classtimes_compare_prints_the_percentile_view_of_stubbed_runs(monkeypatch, capsys):
    classtimes = _load("classtimes")
    runs = {"base": iter(_BASE_RUNS), "head": iter(_HEAD_RUNS)}
    monkeypatch.setattr(classtimes, "child_rows",
                        lambda root, args: next(runs[root.name]))
    args = classtimes.argparse.Namespace(workload="w", seed=1, rounds=1, pairs=3)
    classtimes.compare(Path("base"), Path("head"), args)
    out = capsys.readouterr().out.splitlines()
    blank = out.index("")
    assert [line.split()[:3] for line in out[2:blank]] == [["a", "9", "9"], ["b", "15", "15"]]
    ranks = {tuple(line.split()[:2]): line.split()[2:] for line in out[blank + 3:]}
    assert len(ranks) == 6
    base, head, ratio, wins, _, pairs = ranks[("build", "p50")]
    assert (float(base), float(head), wins, pairs) == (2.0, pytest.approx(1.26), "2", "3")
    assert float(ratio) == pytest.approx(0.63, abs=1e-3)


def test_classtimes_refuses_fewer_than_one_pair(capsys):
    with pytest.raises(SystemExit) as info:
        _load("classtimes").main(["--root", ".", "--base", ".", "--pairs", "0", "--workload", "repair",
                                  "--seed", "1", "--rounds", "1"])
    assert info.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err


def test_outhash_defaults_to_seed_1_and_hashes_each_seed():
    root = _TOOLS.parent

    def hashes(*argv):
        out = subprocess.run([sys.executable, str(_TOOLS / "outhash.py"), "--root", str(root), *argv],
                             check=True, capture_output=True, text=True).stdout
        return dict(line.split() for line in out.splitlines())

    default, one, two = hashes(), hashes("--seed", "1"), hashes("--seed", "2")
    assert default == one
    assert sorted(one) == sorted(two) == ["chain", "repair", "twist"]
    assert all(one[w] != two[w] for w in one)


def test_outhash_hashes_the_rounds_it_is_given(capsys):
    root = _TOOLS.parent

    def hashes(*argv):
        out = subprocess.run([sys.executable, str(_TOOLS / "outhash.py"), "--root", str(root), *argv],
                             check=True, capture_output=True, text=True).stdout
        return dict(line.split() for line in out.splitlines())

    default, one, four = hashes(), hashes("--rounds", "1"), hashes("--rounds", "4")
    assert default == four
    assert sorted(one) == ["chain", "repair", "twist"]
    assert all(one[w] != four[w] for w in one)
    for rounds in ("0", "-1"):
        with pytest.raises(SystemExit) as info:
            _load("outhash").main(["--root", str(root), "--rounds", rounds])
        assert info.value.code == 2
        assert "--rounds must be at least 1" in capsys.readouterr().err
