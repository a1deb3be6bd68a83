"""``tools/src_lines.py`` counts code, docstring and comment lines per module."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools"))
import src_lines  # noqa: E402

MODULE = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment makes a code line


class Thing:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        text = """a string that is
not a docstring"""

        return math.sqrt(x), text  # "# not a comment line"
'''


def write_tree(root, modules):
    pkg = root / "src" / "nmbath"
    pkg.mkdir(parents=True)
    for name, text in modules.items():
        (pkg / name).write_text(text)
    (pkg / "notes.txt").write_text("# not a module\n")
    return str(root)


def test_each_kind_of_line_is_counted():
    assert src_lines.count_lines(MODULE) == {"code": 6, "doc": 4, "comment": 1}


def test_trees_are_compared_per_module(tmp_path, capsys):
    old = write_tree(tmp_path / "old", {"a.py": MODULE, "gone.py": "x = 1\n"})
    new = write_tree(tmp_path / "new", {"a.py": MODULE + "y = 2\n# end\n", "b.py": "z = 3\n"})
    src_lines.main([old, new])
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    assert rows["module"] == ["code", "doc", "comment"]
    assert rows["a.py"] == ["6", "->", "7", "(+1)", "4", "->", "4", "(+0)", "1", "->", "2", "(+1)"]
    assert rows["b.py"][:4] == ["0", "->", "1", "(+1)"]
    assert rows["gone.py"][:4] == ["1", "->", "0", "(-1)"]
    assert rows["total"] == ["7", "->", "8", "(+1)", "4", "->", "4", "(+0)", "1", "->", "2",
                             "(+1)"]
