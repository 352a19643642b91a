"""Frozen CLI reports: each tests/data/golden/<command>--<label>.json is the
input of one `affinegames <command> --input FILE` run, and <same>.out is the
stdout that run printed when the file was written. A change that moves a byte
of any report fails here; one that means to must say so and rewrite the .out
file by running that command on its input. The CI workflow runs the same
comparison on the installed entry point."""

from pathlib import Path

import pytest

from affinegames.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(GOLDEN.glob("*.json"))


def test_every_command_the_reports_cover_is_present():
    commands = {path.stem.split("--")[0] for path in CASES}
    assert commands == {
        "tree-solve", "bsde", "tree-verify", "equilibria", "solve", "naive-counterexample",
        "classify", "wuc", "dummy", "grg", "gen",
    }
    assert all(path.with_suffix(".out").exists() for path in CASES)


@pytest.mark.parametrize("path", CASES, ids=[path.stem for path in CASES])
def test_report_is_byte_identical(path, capsys):
    code = main([path.stem.split("--")[0], "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == path.with_suffix(".out").read_bytes()
