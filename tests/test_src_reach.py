"""Every definition under ``src/`` has a caller outside ``tests/``.

A ``def`` or ``class`` whose name no file under ``src/``, ``bench/``,
``benchmarks/`` or ``examples/`` mentions, apart from inside its own
definition, is code only the test suite reaches.  Such a feature gets
an engine caller with a reason, or it goes; a test driver lives under
``tests/``.  The few names kept on purpose are listed below, one reason
each, and the list must match exactly: a new unreached name fails, and
so does an entry whose name gained a caller or was deleted.

A mention is the name as a word anywhere in a file's text (code,
comment or docstring).  Dunder methods are called by the language.  The
shard worker dispatches its ``_cmd_<verb>`` handlers by name, so a
handler is reached when its verb is a string literal somewhere.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")
DISPATCH_PREFIX = "_cmd_"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: name -> why it stays although only tests reach it
ALLOWED = {
    "remove_ghosts": "ghost reclamation before a leaf split will be its "
                     "engine caller; until then the B-tree tests drive it",
    "resident_pages": "test oracle: the leftover-pin check walks the "
                      "pool's frames (tests/conftest.assert_no_pins)",
    "point_lsn_count": "test oracle: the recovery index's serialization "
                       "round trip compares its point entries",
    "get_max": "test oracle: the read side of the chaos harness's "
               "note_max gauge",
}


def _definitions(root: Path) -> list[tuple[str, Path, int, int]]:
    """(name, file, first line, last line) of every def and class."""
    found = []
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            found.append((node.name, path, first, node.end_lineno))
    return found


def unreached(root: Path = ROOT) -> set[str]:
    """Names defined under ``root/src`` that no caller directory
    mentions outside their own definition."""
    mentions: dict[str, list[tuple[Path, int]]] = {}
    literals: set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            text = path.read_text()
            for lineno, line in enumerate(text.splitlines(), 1):
                for word in WORD.findall(line):
                    mentions.setdefault(word, []).append((path, lineno))
            literals.update(
                node.value for node in ast.walk(ast.parse(text, str(path)))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str))
    names = set()
    for name, path, first, last in _definitions(root):
        if name.startswith(DISPATCH_PREFIX):
            if name[len(DISPATCH_PREFIX):] not in literals:
                names.add(name)
            continue
        if not any(where != path or not first <= lineno <= last
                   for where, lineno in mentions.get(name, ())):
            names.add(name)
    return names


def test_only_allowed_names_are_reached_from_tests_alone():
    found = unreached()
    assert found - set(ALLOWED) == set(), (
        "reached only from tests: give each an engine caller or delete it")
    assert set(ALLOWED) - found == set(), (
        "allowed but reached (or gone): drop the entry")


def test_a_name_mentioned_only_in_its_own_body_is_unreached(tmp_path):
    """The scan itself: a recursive function nothing else names, and a
    dispatch handler whose verb no literal names, are both found."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(
        "def lonely(n):\n"
        "    return lonely(n - 1) if n else 0\n"
        "\n"
        "def used():\n"
        "    return 1\n"
        "\n"
        "class Worker:\n"
        "    def _cmd_ping(self):\n"
        "        return used()\n"
        "\n"
        "    def _cmd_gone(self):\n"
        "        return 'ok'\n"
        "\n"
        "    def __repr__(self):\n"
        "        return 'Worker'\n"
        "\n"
        "SEND = ('ping',)\n")
    assert unreached(tmp_path) == {"lonely", "_cmd_gone", "Worker"}
