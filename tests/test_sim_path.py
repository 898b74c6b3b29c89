"""``benchmarks/sim_path.py`` accounts for all of the bench's simulated time.

At smoke scale, the failure workload (crashes, device losses, full
backups, page faults, drains) split by runner phase and by I/O site:
each split must add up to the runner's own ``sim_seconds`` over the
timed rounds, so no charge is lost or counted twice, and the off-the-
books fault injection and re-reads must be left out as the runner
leaves them out.  Each write site's pages form at most as many device
requests as there are pages.
"""

from __future__ import annotations

import functools

import pytest

from benchmarks.sim_path import measure


@functools.lru_cache(maxsize=None)
def smoke(name: str) -> dict:
    """``name``'s smoke-scale run, measured once for the module."""
    return measure(name, seed=1, smoke=True)


@pytest.mark.parametrize("name", ["failures_embedded", "dblp_cold_embedded"])
def test_phases_and_sites_sum_to_the_runners_sim_seconds(name):
    result = smoke(name)
    sim_seconds = result["sim_seconds"]
    assert sim_seconds > 0
    assert sum(result["phases"].values()) == pytest.approx(sim_seconds,
                                                           rel=1e-9)
    assert sum(result["sites"].values()) == pytest.approx(sim_seconds,
                                                          rel=1e-9)
    assert result["phases"]["unphased"] == 0
    assert result["sites"]["log force"] > 0


def test_the_failure_workload_names_its_sites():
    result = smoke("failures_embedded")
    phases, sites, calls = result["phases"], result["sites"], result["calls"]
    for phase in ("op: get", "op: put", "event: crash", "event: backup"):
        assert phases[phase] > 0, phase
    # Fault injection and the oracle's re-reads are off the books.
    assert calls["event: fault"] and not phases["event: fault"]
    assert calls["event: verify"] and not phases["event: verify"]
    for site in ("miss read", "restore write", "repair write"):
        assert sites[site] > 0, site


def test_write_sites_count_pages_and_requests():
    result = smoke("failures_embedded")
    pages, requests = result["pages"], result["requests"]
    assert set(pages) <= set(result["sites"])
    for site in ("restore write", "repair write", "device write (flush)"):
        assert pages[site] > 0, site
    for site, written in pages.items():
        assert 0 < requests[site] <= written, site
    # The settling flush writes runs of consecutive pages.
    assert requests["device write (flush)"] < pages["device write (flush)"]
