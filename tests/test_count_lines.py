"""The code-line counter that size comparisons of the source quote."""

from count_lines import count_lines, main

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its line


# a comment line
def f(x):
    """Function docstring."""
    return max(
        x, math.pi,
    )


class C:
    """Class docstring."""

    text = """a string that is
    not a docstring"""
'''


def test_counts_code_lines_only():
    # import, def, the three-line call, class, and the two-line string
    assert count_lines(SOURCE) == 1 + 1 + 3 + 1 + 2


def test_prints_each_file_and_the_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SOURCE, encoding="utf-8")
    b.write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    assert main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == f"8 {a}\n2 {b}\n10 total\n"
