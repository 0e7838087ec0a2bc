"""``tools/code_lines.py``: code lines leave out docstrings, comments and
blank lines, and keep every line of a statement or of a string that is no
docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment leaves the line in


# a comment line


def f(x):
    """Function docstring."""
    text = """a string
that is no docstring"""
    return (math.sqrt(x)
            + len(text))


class C:
    \'\'\'Class docstring.\'\'\'

    y = 1
'''


def load():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import; def; the string's two lines; the return's two lines; class; y
    assert load().code_lines(FIXTURE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("# only a comment\n\nx = [1,\n     2]\n")
    assert load().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py 2\nb.py 8\ntotal 10\n"
