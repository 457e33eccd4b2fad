"""``scripts/code_lines.py`` on a small package whose count is known."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Thing:
    """A class docstring."""

    size = (1,
            # a comment inside a bracket
            2)

    def name(self):
        """A function docstring."""
        text = """a string that is no docstring
spans two lines"""
        return text
'''
# code: import, class, size's two lines with numbers, def, text's two lines, return
MODULE_CODE_LINES = 8


def test_module_count_leaves_out_docstrings_comments_and_blanks():
    assert code_lines.code_lines(MODULE) == MODULE_CODE_LINES
    assert code_lines.code_lines("") == 0


def test_package_count_prints_each_module_and_the_totals(tmp_path):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.count(tmp_path) == [("a.py", 8, 20), ("b.py", 1, 2)]
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["module", "code", "lines"], ["a.py", "8", "20"], ["b.py", "1", "2"], ["total", "9", "22"]]
