"""The README's examples run as documented.

The library example must print what its comments say, and the JSON
document of the CLI section must load and evaluate its stored formula.
"""

import re
from pathlib import Path

from fgml.cli import run_command

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(language):
    blocks = re.findall(rf"```{language}\n(.*?)```", README, re.S)
    assert len(blocks) == 1, f"expected one {language} block in the README"
    return blocks[0]


def test_library_example_prints_its_comments(capsys):
    code = _block("python")
    # one printed line per print call; a trailing comment gives its value
    expected = [m.group(1) for m in re.finditer(r"^print\(.*?\)(?:\s+#\s*(.*))?$",
                                               code, re.M)]
    assert any(expected)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected)
    for line, value in zip(printed, expected):
        if value is not None:
            assert line == value


def test_document_example_validates_and_evaluates(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(_block("json"))
    assert run_command(["validate", "-m", str(path)]) == 0
    assert run_command(["eval", "-m", str(path), "-f", "diap"]) == 0
    assert capsys.readouterr().out
