"""The code-line counter of ``benchmarks/codelines.py``."""

import importlib.util

from conftest import REPO

spec = importlib.util.spec_from_file_location("codelines", REPO / "benchmarks" / "codelines.py")
codelines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(codelines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment counts: the line holds a token

# a comment line does not count


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is
        no docstring"""
        return (text,
                os.sep)
'''


def test_counts_lines_with_a_token_other_than_a_comment():
    # import, class, def, the two lines of text = ..., the two of return
    assert codelines.code_lines(SOURCE) == 7


def test_counts_every_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "rollstock"
    package.mkdir()
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").write_text("x = 1\n\n# done\n")
    assert codelines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["a.py", "7"], ["b.py", "1"], ["total", "8"]]
