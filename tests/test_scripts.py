"""Smoke runs of the experiment scripts, in-process, on small inputs."""

import runpy
import sys
from pathlib import Path

import pytest

from circgnn.graph import DATASET_STATS

SCRIPTS = Path(__file__).parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_compression_sweep_prints_one_row_per_block_size(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "compression_sweep.py",
                       "--dim", "16", "--nodes", "10", "--block-sizes", "2", "4")
    rows = [row for row in map(str.split, lines) if row and row[0].isdigit()]
    assert [row[0] for row in rows] == ["2", "4"]
    assert [row[1] for row in rows] == ["2x", "4x"]


def test_compression_sweep_rejects_a_negative_seed_with_exit_3(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "compression_sweep.py", "--seed", "-1")
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "error: seed -1 must be non-negative" in err
    assert "Traceback" not in err


def test_compression_sweep_rejects_a_block_size_past_the_limit_with_exit_3(
    monkeypatch, capsys, no_projection_counts
):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "compression_sweep.py", "--dim", "16", "--nodes", "10",
                   "--block-sizes", str(2**40))
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert f"error: block size must be at most {2**16}, got {2**40}" in err
    assert "Traceback" not in err


def test_search_datasets_prints_one_row_per_dataset(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "search_datasets.py")
    names = [row[0] for row in map(str.split, lines) if row and row[0] in DATASET_STATS]
    assert names == sorted(DATASET_STATS)
