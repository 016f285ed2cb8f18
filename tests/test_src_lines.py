"""tools/src_lines.py, on a git repository of its own made for each test."""
import importlib.util
import pathlib
import subprocess

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

# 16 lines, 6 of them code: the docstrings, the comment-only line and the
# blanks are not code; the string assigned to x is, on both its lines.
FIXTURE = '''"""Module docstring,
over two lines."""
import os  # a comment after code

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        x = """not a
docstring"""
        return x
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A clean git checkout whose package holds the fixture module."""
    package = tmp_path / "src" / "mrsqkd"
    package.mkdir(parents=True)
    (package / "fixture.py").write_text(FIXTURE, encoding="utf-8")

    def git(*args):
        config = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
        subprocess.run(["git", *config, *args], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "fixture")
    monkeypatch.chdir(tmp_path)
    return package


def test_counts_of_the_fixture_module(tool):
    assert tool.counts(FIXTURE) == (16, 6)


def test_a_clean_tree_nets_zero_against_head(tool, checkout, capsys):
    assert tool.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[2:]] == [
        ["fixture.py", "16", "16", "+0", "6", "6", "+0"],
        ["total", "16", "16", "+0", "6", "6", "+0"],
    ]


def test_a_change_nets_its_lines_per_module_and_in_total(tool, checkout, capsys):
    (checkout / "fixture.py").write_text(FIXTURE + "\n\ny = 1\n", encoding="utf-8")
    (checkout / "new.py").write_text('"""New."""\nz = 2\n', encoding="utf-8")
    assert tool.main(["--base", "HEAD"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [
        ["fixture.py", "16", "19", "+3", "6", "7", "+1"],
        ["new.py", "0", "2", "+2", "0", "1", "+1"],
        ["total", "16", "21", "+5", "6", "8", "+2"],
    ]


def test_a_revision_git_cannot_read_is_one_error_line(tool, checkout, capsys):
    assert tool.main(["--base", "no-such-revision"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: git cannot read src/mrsqkd at ")
