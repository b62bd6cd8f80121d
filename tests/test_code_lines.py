import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" /
    "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""
import os

# a comment-only line


def f(x):
    """A function docstring
    over three
    lines."""
    y = (x +
         1)  # a trailing comment
    return y
'''


def test_code_lines_counts_statements_only():
    # import, def, the two lines of the assignment, return
    assert code_lines.code_lines(SOURCE) == 5


def test_code_lines_counts_a_string_that_is_no_docstring():
    assert code_lines.code_lines(SOURCE + 's = """a\nb"""\n') == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a", "5"], ["b", "1"], ["total", "6"]]
