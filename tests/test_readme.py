"""README.md's examples run as written: every ``python`` block, and every
``splitsolve`` line of its ``sh`` blocks against a copy of ``configs/``."""

import contextlib
import io
import re
import shutil
from pathlib import Path

import pytest

from splitsolve.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


PYTHON_BLOCKS = blocks("python")
CLI_LINES = [line.split("#", 1)[0].split()
             for block in blocks("sh") for line in block.splitlines()
             if line.startswith("splitsolve ")]


def test_readme_has_examples():
    assert PYTHON_BLOCKS and len(CLI_LINES) >= 4


@pytest.mark.parametrize("source", PYTHON_BLOCKS, ids=lambda s: f"{len(s.splitlines())}-lines")
def test_python_block_converges(source):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {"__name__": "readme"})
    assert out.getvalue().split()[0] == "converged"


@pytest.mark.parametrize("argv", CLI_LINES, ids=" ".join)
def test_cli_line_exits_zero(argv, tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPLITSOLVE_SEED", raising=False)
    assert argv[0] == "splitsolve"
    assert main(argv[1:]) == 0, capsys.readouterr().err
