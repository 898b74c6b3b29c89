"""Baselines the paper compares against.

* :mod:`repro.baselines.media_only` — a traditional engine for which
  single-page failures are *not* a supported class: every page failure
  escalates per Figure 1.
* The only automatic page repair the paper found in practice, SQL
  Server's database mirroring (a full mirror kept current by log
  shipping, where repairing one page first applies the *entire* log
  stream to the mirror), is the engine's own hot standby with its
  shipping link held down: :mod:`repro.engine.replication`.
"""

from repro.baselines.media_only import EscalationOutcome, traditional_config

__all__ = [
    "traditional_config",
    "EscalationOutcome",
]
