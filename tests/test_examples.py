"""The three scripts under ``examples/`` run clean and tell the story
their docstrings promise.

Each script is run in-process as ``__main__``; one that raises fails
its case, and each case pins the closing claim of its script's output.
"""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

CLAIMS = {
    "quickstart.py": [
        "txns_aborted                 0",
        "no transaction ever aborted",
    ],
    "crash_recovery_tour.py": [
        "no transaction aborted",
        "rollback < single-page < restart << media recovery",
    ],
    # The SPF node absorbs every worn-out sector; the traditional node
    # stops at its first one.
    "flash_wearout.py": [
        "update waves survived : 40/40\n  outage                : none",
        "outage                : SystemFailure",
    ],
}


def test_every_example_has_a_case():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(CLAIMS)


@pytest.mark.parametrize("script", sorted(CLAIMS))
def test_example_runs_clean(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    for claim in CLAIMS[script]:
        assert claim in out
