"""The metric catalogue is complete by construction — ``Stats.counter``
refuses a name it does not declare, and there is no other way to count —
so what is left to test is the converse: no dead rows, no duplicates,
and a README table that is the one the module prints.  A static walk
over ``src/``: milliseconds, no campaign.
"""

from __future__ import annotations

import ast
import re
import runpy
import warnings
from pathlib import Path

import pytest

from repro.sim.stats import CATALOGUE, LAYERS, catalogue_markdown, declared

ROOT = Path(__file__).resolve().parent.parent
WILD = "<>"


@pytest.fixture(scope="module")
def asked() -> dict[str, set[str]]:
    """The first argument of every ``counter(...)`` / ``note_max(...)``
    call under ``src/``, by what it asks for; the run-time parts of an
    f-string become ``<>``."""
    found: dict[str, set[str]] = {"counter": set(), "gauge": set()}
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            kind = {"counter": "counter", "note_max": "gauge"}.get(called)
            if kind is None:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                found[kind].add(arg.value)
            elif isinstance(arg, ast.JoinedStr):
                found[kind].add("".join(
                    part.value if isinstance(part, ast.Constant) else WILD
                    for part in arg.values))
    return found


def _shape(name: str) -> str:
    """A declared name as a request would spell it."""
    return re.sub(r"<[^>]*>", WILD, name)


def test_every_declared_metric_is_requested_somewhere(asked):
    dead = [metric.name for metric in CATALOGUE
            if _shape(metric.name) not in asked[metric.kind]]
    assert not dead, f"declared but never requested under src/: {dead}"


def test_every_request_is_declared(asked):
    shapes = {_shape(metric.name) for metric in CATALOGUE}
    for kind, names in asked.items():
        for name in names:
            if WILD in name:
                assert name in shapes, f"{kind} family {name} is not declared"
            else:
                declared(name, kind)  # raises KeyError otherwise


def test_declarations_are_well_formed():
    names = [metric.name for metric in CATALOGUE]
    assert len(names) == len(set(names)), "a name is declared twice"
    shapes = [_shape(name) for name in names]
    assert len(shapes) == len(set(shapes)), "two families collide"
    for metric in CATALOGUE:
        assert metric.layer in LAYERS, metric
        assert metric.kind in ("counter", "gauge"), metric
        assert metric.unit and metric.help, metric
        assert "|" not in metric.help, "help text goes into a Markdown table"


def test_nothing_counts_by_name():
    """The CI ``lint`` job's grep, also where a developer sees it first."""
    offenders = [str(path.relative_to(ROOT))
                 for path in (ROOT / "src").rglob("*.py")
                 if ".bump(" in path.read_text()]
    assert not offenders


def test_prefetch_rows_read_issued_used_wasted_skipped():
    """GrASP's accounting, in that order, as one block of the table."""
    prefetch = [metric.help.split(":")[0] for metric in CATALOGUE
                if metric.help.startswith("prefetch ")]
    assert prefetch[:3] == ["prefetch issued", "prefetch used",
                            "prefetch wasted"]
    assert prefetch[3:7] == ["prefetch skipped"] * 4


def test_readme_table_is_the_one_the_module_prints(capsys: pytest.CaptureFixture):
    with warnings.catch_warnings():
        # ``python -m`` of a module its own package imports
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module("repro.sim.stats", run_name="__main__")
    printed = capsys.readouterr().out
    assert printed == catalogue_markdown() + "\n"
    readme = (ROOT / "README.md").read_text()
    begin, end = "<!-- metrics:begin -->\n", "<!-- metrics:end -->"
    block = readme[readme.index(begin) + len(begin):readme.index(end)]
    assert block == printed, (
        "README's metric table is stale: paste the output of "
        "`PYTHONPATH=src python -m repro.sim.stats` between the markers")
