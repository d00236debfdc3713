"""Command-line checks of the scripts in tools/."""

from __future__ import annotations

import importlib.util
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
