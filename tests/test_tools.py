"""The repository's tools: ``tools/code_lines.py`` counts code lines."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

MODULE = '''\
"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


class Pair:
    """A class docstring."""

    def join(self, x):
        """A function
        docstring."""
        return os.path.join(
            x,
            "y",
        )
'''


def test_counts_code_lines_of_a_synthetic_package(tmp_path):
    # code: the import, the class and def lines and the four lines of the
    # return statement; the docstrings, the comment line and blanks are not
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n')
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "pkg")],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["     0  empty.py", "     7  mod.py", "     7  total"]


def test_rejects_a_missing_directory(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "absent")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:")
