"""README.md's examples run as written: every ``python`` block, and every
``splitsolve`` line of its ``sh`` blocks against a copy of ``configs/``."""

import contextlib
import importlib
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


SRC = ROOT / "src" / "splitsolve"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
HEADINGS = set(re.findall(r"^#+ (.+?)\s*$", README, flags=re.M))


def section_pointers():
    """``(file, section)`` for every README section that README names as
    ``see "..."`` and every one a ``src`` docstring or comment names as
    ``README's "...", "..." and "..."``, a name that wraps across lines
    included."""
    found = [("README.md", name)
             for name in re.findall(r'see "([^"]+)"', " ".join(README.split()))]
    for path in sorted(SRC.glob("*.py")):
        # one line, so a quoted name that a docstring or comment wraps reads whole
        text = re.sub(r"\s*\n\s*(?:#\s*)?", " ", path.read_text())
        for names in re.findall(r'README\'s ((?:"[^"]+"(?:,? and |, | or )?)+)', text):
            found += [(path.name, name) for name in re.findall(r'"([^"]+)"', names)]
    return found


def dotted_names():
    """Every backticked ``ss.x``, ``splitsolve.x`` or ``<module>.x`` in README."""
    pattern = rf"(?:ss|splitsolve|{'|'.join(MODULES)})(?:\.\w+)+"
    return sorted({name for name in re.findall(r"`([^`\n]+)`", README)
                   if re.fullmatch(pattern, name)})


def resolve(name):
    """The object that the dotted ``name`` names, imported as a caller would."""
    parts = name.split(".")
    parts[0] = "splitsolve" if parts[0] in ("ss", "splitsolve") else f"splitsolve.{parts[0]}"
    obj = importlib.import_module(parts[0])
    for part in parts[1:]:
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def test_section_pointers_name_headings():
    pointers = section_pointers()
    assert len({name for _, name in pointers}) >= 4
    assert [p for p in pointers if p[1] not in HEADINGS] == []


def test_dotted_names_resolve():
    names = dotted_names()
    assert len(names) >= 10
    unresolved = []
    for name in names:
        try:
            resolve(name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert unresolved == []
