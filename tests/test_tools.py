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
    rows = [line.split() for line in out[2:]]
    assert [row[0] for row in rows] == ["repair-6", "repair-7", "repair-8"]
    for label, base_jobs, head_jobs, *cells in rows:
        assert base_jobs == head_jobs == ("1" if label == "repair-6" else "2")
        for base, head, ratio in zip(cells[::3], cells[1::3], cells[2::3]):
            assert float(base) > 0 and float(head) > 0
            assert float(ratio) == pytest.approx(float(head) / float(base), rel=0.01)


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
