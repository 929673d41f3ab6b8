"""The console scripts that pyproject.toml installs: each names a
callable that parses ``--help`` and exits cleanly."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
COMMANDS = ["prdt-bench", "prdt-kvc", "prdt-kvd", "prdt-sim"]


def console_scripts() -> dict:
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)["project"]["scripts"]


def test_pyproject_installs_the_four_commands():
    assert sorted(console_scripts()) == COMMANDS


@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_imports_and_answers_help(name, capsys):
    module, _, attr = console_scripts()[name].partition(":")
    main = getattr(importlib.import_module(module), attr)
    assert callable(main)
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert "usage:" in capsys.readouterr().out
