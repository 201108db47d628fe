"""``tools/code_lines.py`` on a fixed snippet."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SNIPPET = '''"""A module docstring
over two lines."""

import math  # a comment after code


# a comment line
def f(x):
    """A function docstring."""
    total = (x
             + 1)
    text = """a string that is
    not a docstring"""
    "a bare string statement"
    return total, text


def g(): "a one-line body"
'''
# code: import (line 4), def f (8), the two lines of ``total`` (10, 11), the
# two of ``text`` (12, 13), return (15) and def g (18)
_CODE = 8


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    assert code_lines.code_lines(_SNIPPET) == _CODE
    assert code_lines.code_lines("") == 0


def test_main_prints_each_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "b.py").write_text(_SNIPPET)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("y = 2\n")   # subdirectories are not read
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["physical", "code", "module"], ["2", "1", "a.py"],
                    ["18", str(_CODE), "b.py"], ["20", str(_CODE + 1), "total"]]
