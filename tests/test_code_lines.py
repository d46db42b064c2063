"""tools/code_lines.py on synthetic modules with known counts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
over two lines."""

# a comment line

x = 1  # a trailing comment


def f():
    """Function docstring."""
    return "a" \\
        "b"


y = """a string""" + "shares its line with code"
z = """a string
over two lines"""
'''


def test_docstrings_comments_and_blank_lines_do_not_count(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    # x = 1; def f; the two lines of return; y; the two lines of z
    assert code_lines.code_lines(path) == 7


def test_a_docstring_alone_counts_nothing(tmp_path):
    path = tmp_path / "doc.py"
    path.write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert code_lines.code_lines(path) == 0


def test_total_is_the_sum_of_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("import os\n\n\nprint(os.sep)\n")
    code_lines.main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["7", "a.py"], ["2", "b.py"], ["9", "total"]]
