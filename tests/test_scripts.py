"""Smoke tests: the experiment scripts run end to end on a short budget."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name: str, args: list[str], monkeypatch) -> None:
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert done.value.code == 0


def test_run_convergence(tmp_path, monkeypatch):
    _run_script("run_convergence.py",
                ["--iterations", "200", "--out-dir", str(tmp_path)], monkeypatch)
    for name in ("convergence_rep0.csv", "convergence.svg"):
        assert (tmp_path / name).stat().st_size > 0


def test_run_rationality(tmp_path, monkeypatch):
    _run_script("run_rationality.py",
                ["--iterations", "200", "--seeds", "1", "--out-dir", str(tmp_path)],
                monkeypatch)
    for name in ("rationality_seed0.csv", "rationality_summary.csv"):
        assert (tmp_path / name).stat().st_size > 0
