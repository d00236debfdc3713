"""Checks of the scripts in tools/."""

from __future__ import annotations

import importlib.util
import json
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
    spec = {"end_to_end": [{"name": "t_s", "unit": "s", "better": better, "bound": 0.2}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    abpairs = _load("abpairs")
    pairs = [{"base": {"metrics": {"t_s": {"value": x}}}, "head": {"metrics": {"t_s": {"value": y}}}}
             for x, y in zip(base, head)]
    summary = abpairs.summarize(pairs, abpairs.metric_specs(tmp_path))["t_s"]
    assert summary["verdict"] == verdict
    assert (summary["better"], summary["bound"]) == (better, 0.2)
