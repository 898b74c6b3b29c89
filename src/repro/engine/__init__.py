"""The database engine: a thin facade over cohesive components.

:class:`repro.engine.Database` wires every substrate together — the
simulated device, the segmented recovery log, the buffer pool,
transactions, Foster B-trees, heaps, the page recovery index, and the
three recovery procedures (single-page, system/restart, media).  The
engine core is decomposed:

* :mod:`repro.engine.catalog` — metadata-page records and the
  index/heap registries (names → roots/pages/handles);
* :mod:`repro.engine.allocator` — page allocation and the free-space
  pool (crash-consistent via logged metadata updates);
* :mod:`repro.engine.checkpointer` — checkpoints, PRI persistence,
  page backups, and log retention/truncation;
* :mod:`repro.engine.system_recovery` / :mod:`repro.engine.
  media_recovery` — restart and media recovery: analysis, then
  registration with the one :mod:`repro.engine.pending_recovery`
  registry that brings pages current and undoes losers for both.

The facade retains the engine-context protocols (TreeContext,
UndoContext) that the B-tree, heap, and transaction manager program
against, so storage structures stay decoupled from the decomposition.
"""

from repro.engine.allocator import PageAllocator
from repro.engine.catalog import Catalog
from repro.engine.checkpointer import Checkpointer
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.session import Session

__all__ = ["Database", "Session", "EngineConfig", "Catalog",
           "PageAllocator", "Checkpointer"]
