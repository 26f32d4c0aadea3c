"""tools/code_lines.py: docstrings, comments and blank lines do not count."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_FIXTURE = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps the line

# a comment line


@staticmethod
def first(x):
    """Function docstring."""
    text = """a multi-line
    string that is data"""
    return math.sqrt(x), text


class Box:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        return (1,
                2)


def second():
    "a one-line docstring in plain quotes"
    "a second string expression is code"
'''


def test_counts_code_lines_only():
    # import; decorator, def, text (2 lines), return; class, def, return
    # (2 lines); def and the second string
    lines = code_lines.code_lines(_FIXTURE)
    assert sorted(lines) == [4, 9, 10, 12, 13, 14, 17, 20, 22, 23, 26, 28]
    assert code_lines.top_level(_FIXTURE, lines) == [("first", 5), ("Box", 4),
                                                     ("second", 2)]


def test_main_prints_modules_functions_and_the_total(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(_FIXTURE, encoding="utf-8")
    (package / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert code_lines.main([str(package)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["12", str(package / "a.py")], ["5", "first"], ["4", "Box"], ["2", "second"],
        ["1", str(package / "b.py")], ["13", str(package), "(total)"]]


def test_main_refuses_a_missing_path(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "missing")]) == 2
    assert "no such file or directory" in capsys.readouterr().err
