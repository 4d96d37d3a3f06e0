"""tools/code_lines.py counts only the lines that hold code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a comment after code


class Box:
    """Class docstring."""

    # a comment on its own line
    def area(self, w, h):
        """Function docstring,

        on three lines."""
        "a string statement that is not a docstring"
        return math.prod(
            (w, h),
        )
'''


def test_only_code_lines_are_counted(tmp_path, capsys):
    # import, class, def, the string statement and the three lines of the call
    assert code_lines.code_lines(SOURCE) == 7
    (tmp_path / "box.py").write_text(SOURCE)
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["7", str(tmp_path / "box.py"), "7", "total"]
