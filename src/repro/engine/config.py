"""Engine configuration.

The configuration axes correspond to the comparisons the paper draws:

* ``spf_enabled`` — whether single-page failures are a supported
  failure class (off = the traditional baseline of Figure 1, where any
  page failure becomes a media failure);
* ``log_completed_writes`` — the Figure-4 restart-redo optimization on
  its own; with ``spf_enabled`` the page-recovery-index update records
  subsume it (Section 5.2.4), so it is forced on;
* ``single_device_node`` — Figure 1's rightmost escalation: on a node
  whose only storage device failed, a media failure is a system
  failure;
* ``backup_policy`` — the Section-6 freshness policy bounding the
  per-page chain length and hence recovery time;
* ``backup_profile`` — direct-access vs archive backup media
  (Section 5.2.1's "less than ideal" remark, quantified).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.backup import BackupPolicy
from repro.errors import ConfigError
from repro.sim.iomodel import HDD_PROFILE, IOProfile
from repro.wal.segments import DEFAULT_SEGMENT_BYTES


@dataclass(kw_only=True)
class EngineConfig:
    """Everything needed to build a :class:`repro.engine.Database`.

    Keyword-only: every field is named at the call site, so adding or
    reordering axes can never silently reinterpret a positional
    argument.  Construction runs :meth:`validate`, which raises a typed
    :class:`repro.errors.ConfigError` on incompatible combinations.
    """

    page_size: int = 4096
    capacity_pages: int = 1024
    buffer_capacity: int = 128

    device_profile: IOProfile = HDD_PROFILE
    log_profile: IOProfile = HDD_PROFILE
    backup_profile: IOProfile = HDD_PROFILE

    #: support single-page failures as a failure class
    spf_enabled: bool = True
    #: log completed writes / PRI updates (Figure 4 optimization)
    log_completed_writes: bool = True
    #: a media failure on this node is a system failure (Figure 1)
    single_device_node: bool = False
    #: partition the PRI for self-coverage (Section 5.2.2)
    pri_partitioned: bool = True
    #: proof-read pages after writing them (Section 2)
    proof_read_writes: bool = False
    #: cross-check the PageLSN of newly read pages against the PRI
    #: (the "Gary Smith" check); disabled only for the detection
    #: ablation — without it, lost writes go unnoticed
    pri_lsn_check: bool = True

    #: restart strategy after a system failure.  Either way log
    #: analysis registers the surviving dirty-page table and the
    #: loser-transaction set as the database's :class:`repro.engine.
    #: pending_recovery.PendingRecovery`: ``"eager"`` drains it before
    #: the database opens (the classic three-pass ARIES restart);
    #: ``"on_demand"`` opens immediately — each pending page is rolled
    #: forward from its per-page chain on first fix (like an incipient
    #: single-page failure) and losers are undone on lock conflict or
    #: by a background drain
    restart_mode: str = "eager"

    #: restore strategy after a media failure, over the same registry
    #: (holding the failed device's pages): ``"eager"`` restores the
    #: whole replacement device from the backup and replays the log
    #: tail before the database reopens (the classic Section-5.1.3
    #: procedure); ``"on_demand"`` reopens immediately — each page is
    #: restored on first fix from its backup image plus its per-page
    #: chain, cold pages are restored by a budgeted background drain,
    #: and a completion watermark gates checkpointing, log truncation,
    #: and backup retirement
    restore_mode: str = "eager"

    #: encoded-byte budget of one in-memory log segment (the unit of
    #: indexed log lookup and truncation)
    log_segment_bytes: int = DEFAULT_SEGMENT_BYTES
    #: cross-thread group commit: *real* seconds a committing group
    #: leader waits for riders to enqueue before forcing.  Only used
    #: once :meth:`repro.engine.database.Database.session` arms the
    #: barrier — the single-threaded engine and the chaos harness
    #: never pay (or observe) this window.
    commit_window_seconds: float = 0.002
    #: group commit: commit-triggered forces harden the whole buffered
    #: tail, and :meth:`TransactionManager.group_commit` batches may
    #: share one force across many commits.  Disabled, every user
    #: commit forces its own prefix (the ablation baseline).
    group_commit: bool = True

    #: commit acknowledgement mode (PR 7):
    #: ``"local_durable"`` — a commit returns once its record is forced
    #: to the local log (the classic contract); ``"replicated_durable"``
    #: — the commit additionally blocks on the log shipper's ship-ack,
    #: riding the group-commit window (the leader's force ships the
    #: whole tail in one batch), so an acknowledged commit survives
    #: primary loss.  Requires an attached standby
    #: (:meth:`repro.engine.database.Database.attach_standby`);
    #: without one — or with the shipping link severed — the commit
    #: completes locally and raises
    #: :class:`repro.errors.ReplicationLagError`.
    commit_ack_mode: str = "local_durable"

    #: kept only as a spelling existing callers pass: ``prefetch_mode``
    #: must be ``"off"``; a demand fix is the engine's only page read
    prefetch_mode: str = "off"

    backup_policy: BackupPolicy = field(
        default_factory=lambda: BackupPolicy(every_n_updates=100))

    #: pages reserved for persisting the PRI (per partition)
    pri_region_pages_per_partition: int = 8

    #: fault-injection seed (all experiments are deterministic)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.spf_enabled:
            # PRI maintenance subsumes logging completed writes.
            self.log_completed_writes = True
        self.validate()

    def validate(self) -> "EngineConfig":
        """Check the combination of axes; raises :class:`ConfigError`.

        Runs at construction, and again by ``repro.connect`` before a
        backend is built (the facade adds its own compatibility checks
        on top, e.g. the ack mode's standby requirement).  Returns
        ``self`` for chaining.
        """
        if self.page_size < 512:
            raise ConfigError(
                f"page_size must be at least 512 bytes, got {self.page_size}")
        if self.buffer_capacity < 4:
            raise ConfigError(
                f"buffer_capacity must be at least 4 frames, "
                f"got {self.buffer_capacity}")
        if self.restart_mode not in ("eager", "on_demand"):
            raise ConfigError(
                f"restart_mode must be 'eager' or 'on_demand', "
                f"got {self.restart_mode!r}")
        if self.restore_mode not in ("eager", "on_demand"):
            raise ConfigError(
                f"restore_mode must be 'eager' or 'on_demand', "
                f"got {self.restore_mode!r}")
        if self.commit_ack_mode not in ("local_durable", "replicated_durable"):
            raise ConfigError(
                f"commit_ack_mode must be 'local_durable' or "
                f"'replicated_durable', got {self.commit_ack_mode!r}")
        if self.prefetch_mode != "off":
            raise ConfigError(
                f"prefetch_mode must be 'off' (predictive prefetch was "
                f"removed), got {self.prefetch_mode!r}")
        if self.capacity_pages < self.data_start + 8:
            raise ConfigError("capacity too small for metadata + PRI region")
        if self.log_segment_bytes < 512:
            raise ConfigError(
                f"log_segment_bytes must be at least 512, "
                f"got {self.log_segment_bytes}")
        return self

    @property
    def pri_region_start(self) -> int:
        return 1  # page 0 is the metadata page

    @property
    def pri_region_end(self) -> int:
        return self.pri_region_start + 2 * self.pri_region_pages_per_partition

    @property
    def data_start(self) -> int:
        """First allocatable data page."""
        return self.pri_region_end
