"""The public facade: connect() dispatch, Client semantics, taxonomy."""

import pytest

import repro
from repro.errors import (
    ClientClosedError,
    ClientError,
    ConfigError,
    ReproError,
    ShardError,
    ShardUnavailableError,
    SystemFailure,
    TwoPhaseCommitError,
)
from tests.record_reference import LogRecord, all_records, encode


class TestConnectDispatch:
    def test_default_is_single_node(self):
        client = repro.connect()
        assert isinstance(client, repro.SingleNodeClient)
        client.close()

    def test_engine_config_builds_single_node(self):
        client = repro.connect(repro.EngineConfig(buffer_capacity=16))
        assert isinstance(client, repro.SingleNodeClient)
        assert client.db.config.buffer_capacity == 16
        client.close()

    def test_shard_config_builds_sharded(self):
        client = repro.connect(repro.ShardConfig(n_shards=2))
        assert isinstance(client, repro.ShardedClient)
        assert client.router.config.n_shards == 2
        client.close()

    def test_wraps_existing_database(self):
        db = repro.Database(repro.EngineConfig())
        tree = db.create_index()
        txn = db.begin()
        tree.insert(txn, b"pre", b"existing")
        db.commit(txn)
        client = repro.connect(db)
        assert client.get(b"pre") == b"existing"
        client.close()
        # The caller keeps ownership: the engine is still usable.
        assert tree.lookup(b"pre") == b"existing"

    def test_replicated_durable_rejected_without_standby_path(self):
        with pytest.raises(ConfigError):
            repro.connect(
                repro.EngineConfig(commit_ack_mode="replicated_durable"))

    def test_unknown_config_type_rejected(self):
        with pytest.raises(ConfigError):
            repro.connect(42)

    def test_config_error_is_also_value_error(self):
        # Call sites that predate the taxonomy catch ValueError.
        with pytest.raises(ValueError):
            repro.connect(object())


class TestClientSemantics:
    @pytest.fixture(params=["single", "sharded"])
    def client(self, request):
        if request.param == "single":
            built = repro.connect()
        else:
            built = repro.connect(repro.ShardConfig(n_shards=3))
        yield built
        built.close()

    def test_txn_commits_on_clean_exit(self, client):
        with client.txn() as t:
            t.put(b"k", b"v")
            assert t.get(b"k") == b"v"
        assert client.get(b"k") == b"v"

    def test_txn_aborts_on_exception(self, client):
        with pytest.raises(RuntimeError):
            with client.txn() as t:
                t.put(b"k", b"v")
                raise RuntimeError("boom")
        assert client.get(b"k") is None

    def test_autocommit_put_get_delete(self, client):
        client.put(b"a", b"1")
        assert client.get(b"a") == b"1"
        assert client.delete(b"a") is True
        assert client.delete(b"a") is False
        assert client.get(b"a") is None

    def test_scan_is_globally_ordered(self, client):
        for i in [5, 1, 9, 3, 7]:
            client.put(b"k%02d" % i, b"v%d" % i)
        keys = [k for k, _ in client.scan()]
        assert keys == sorted(keys)
        assert len(keys) == 5

    def test_scan_range_bounds(self, client):
        for i in range(10):
            client.put(b"k%02d" % i, b"v")
        keys = [k for k, _ in client.scan(b"k03", b"k07")]
        assert keys == [b"k03", b"k04", b"k05", b"k06"]

    def test_delete_inside_txn(self, client):
        client.put(b"gone", b"soon")
        with client.txn() as t:
            assert t.delete(b"gone") is True
        assert client.get(b"gone") is None

    def test_apply_batch(self, client):
        n = client.apply_batch([("put", b"b%02d" % i, b"v%02d" % i)
                                for i in range(8)])
        assert n == 8
        assert client.get(b"b00") == b"v00"
        client.apply_batch([("delete", b"b00")])
        assert client.get(b"b00") is None

    def test_operations_after_close_raise_typed_error(self, client):
        client.put(b"k", b"v")
        block = client.txn()  # held: a dropped block aborts its handle
        handle = block.__enter__()  # a handle the close outlives
        handle.put(b"k", b"w")
        client.close()
        for call in (lambda: client.get(b"k"),
                     lambda: client.put(b"k", b"v"),
                     lambda: client.delete(b"k"),
                     lambda: client.scan(),
                     lambda: client.txn().__enter__(),
                     lambda: handle.get(b"k"),
                     lambda: handle.put(b"k", b"x"),
                     lambda: handle.delete(b"k"),
                     handle.commit):
            with pytest.raises(ClientClosedError):
                call()

    def test_close_is_idempotent(self, client):
        client.close()
        client.close()

    def test_context_manager_closes(self):
        with repro.connect() as client:
            client.put(b"k", b"v")
        with pytest.raises(ClientClosedError):
            client.get(b"k")


class TestHandleOutlivesItsEngine:
    """A ``Client.txn()`` handle opened before ``db.crash()`` refuses
    every operation with :class:`SystemFailure` and logs nothing: its
    transaction died with the crash.  It neither reads the pre-crash
    device image nor logs into the crashed engine, and ``restart()``
    then serves every acknowledged write."""

    @staticmethod
    def _crashed_with_handle(flush: bool):  # noqa: ANN205
        client = repro.connect()
        client.put(b"k", b"old")
        if flush:
            client.db.flush_everything()  # the device image holds "old"
        block = client.txn()  # held: a dropped block aborts its handle
        handle = block.__enter__()
        client.put(b"k", b"new")  # committed and forced
        client.db.crash()
        return client, handle, block

    def test_a_read_refuses_instead_of_serving_the_device_image(self):
        client, handle, _block = self._crashed_with_handle(flush=True)
        with pytest.raises(SystemFailure):
            handle.get(b"k")
        client.db.restart()
        assert client.get(b"k") == b"new"

    def test_writes_and_commit_refuse_and_log_nothing(self):
        client, handle, _block = self._crashed_with_handle(flush=True)
        db = client.db
        end = db.log.end_lsn
        for call in (lambda: handle.put(b"k", b"lost"),
                     lambda: handle.delete(b"k"),
                     handle.commit):
            with pytest.raises(SystemFailure):
                call()
        assert db.log.end_lsn == end
        db.restart()
        assert client.get(b"k") == b"new"

    def test_an_unflushed_catalogue_page_is_never_read(self):
        """Page 0 never reached the device: a read through the dead
        handle used to escalate to a media failure, after which
        ``restart()`` refused to run."""
        client, handle, _block = self._crashed_with_handle(flush=False)
        with pytest.raises(SystemFailure):
            handle.get(b"k")
        client.db.restart()
        assert client.get(b"k") == b"new"

    def test_the_handle_stays_dead_after_restart(self):
        """After the restart its transaction id may belong to a new
        transaction: the dead handle refuses, and its abort leaves the
        new one alone."""
        client, handle, _block = self._crashed_with_handle(flush=True)
        client.db.restart()
        with client.txn() as live:
            for call in (lambda: handle.get(b"k"),
                         lambda: handle.put(b"k", b"lost"),
                         handle.commit):
                with pytest.raises(SystemFailure):
                    call()
            handle.abort()
            live.put(b"k", b"newer")
        assert client.get(b"k") == b"newer"


class TestConfigValidation:
    def test_shard_count_floor(self):
        with pytest.raises(ConfigError):
            repro.ShardConfig(n_shards=0)

    def test_unknown_transport(self):
        with pytest.raises(ConfigError):
            repro.ShardConfig(transport="carrier-pigeon")

    def test_replicated_durable_engine_template_rejected(self):
        with pytest.raises(ConfigError):
            repro.ShardConfig(engine=repro.EngineConfig(
                commit_ack_mode="replicated_durable"))

    def test_engine_config_floors(self):
        with pytest.raises(ConfigError):
            repro.EngineConfig(page_size=128)
        with pytest.raises(ConfigError):
            repro.EngineConfig(buffer_capacity=1)
        with pytest.raises(ConfigError):
            repro.EngineConfig(restart_mode="psychic")
        with pytest.raises(ConfigError):
            repro.EngineConfig(log_segment_bytes=64)

    def test_page_size_is_capped_at_32_kib(self):
        """A larger page would overflow the slotted page's u16 offsets on
        its first full leaf (a raw ``struct.error`` mid-batch); the cap
        fails at construction, and at ``connect`` for a config mutated
        after it."""
        with pytest.raises(ConfigError, match="at most 32768"):
            repro.connect(repro.EngineConfig(page_size=131072))
        config = repro.EngineConfig()
        config.page_size = 65536
        with pytest.raises(ConfigError, match="at most 32768"):
            repro.connect(config)

    def test_a_32_kib_page_round_trips_a_full_leaf(self):
        """The largest page fills, splits and logs whole leaves of
        records; every record round-trips through its encoding (u16
        lengths) and the keys survive a crash."""
        from repro.wal.ops import BULK_INSERT, bulk_rows
        client = repro.connect(repro.EngineConfig(
            page_size=32768, capacity_pages=256, buffer_capacity=16))
        items = [(b"k%06d" % i, bytes([65 + i % 26]) * 90) for i in range(3000)]
        client.apply_batch([("put", key, value) for key, value in items])
        db = client.db
        records = all_records(db.log)
        for record in records:
            decoded = LogRecord.decode(encode(record))
            decoded.lsn = record.lsn  # an LSN is where a record lies
            assert decoded == record
        moved = max(sum(len(key) + len(value) for key, value, _g
                        in bulk_rows(record.op, 0)[1])
                    for record in records
                    if record.op and record.op[0] == BULK_INSERT)
        assert moved > 15_000  # a split moves half a full leaf in one op
        db.crash()
        db.restart()
        assert all(client.get(key) == value for key, value in items)
        client.close()

    def test_prefetch_mode_accepts_only_off(self):
        """The bench still passes ``prefetch_mode="off"``; the predictive
        modes were removed and fail typed, naming why."""
        assert repro.EngineConfig(prefetch_mode="off").prefetch_mode == "off"
        for mode in ("sequential", "semantic"):
            with pytest.raises(ConfigError, match="predictive prefetch was removed"):
                repro.EngineConfig(prefetch_mode=mode)

    def test_group_commit_accepts_only_true(self):
        """The bench still passes ``group_commit=True``; the per-commit
        force ablation was removed and fails typed, naming why."""
        assert repro.EngineConfig(group_commit=True).group_commit is True
        for value in (False, 1, None):
            with pytest.raises(ConfigError, match="ablation was removed"):
                repro.EngineConfig(group_commit=value)

    def test_keyword_only_construction(self):
        with pytest.raises(TypeError):
            repro.EngineConfig(4096)  # noqa - positional must fail
        with pytest.raises(TypeError):
            repro.ShardConfig(4)  # noqa - positional must fail

    def test_per_shard_seeds_differ(self):
        config = repro.ShardConfig(n_shards=3, seed=5)
        seeds = {config.shard_engine_config(i).seed for i in range(3)}
        assert len(seeds) == 3

    def test_fleet_misconfig_is_config_error(self):
        from repro.workloads.fleet import ClientFleet
        with pytest.raises(ConfigError):
            ClientFleet(n_clients=0, seed=1, key_space=10)
        with pytest.raises(ConfigError):
            ClientFleet(n_clients=2, seed=1, key_space=0)


class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(ClientClosedError, ClientError)
        assert issubclass(ClientError, ReproError)
        assert issubclass(ShardUnavailableError, ShardError)
        assert issubclass(TwoPhaseCommitError, ShardError)
        assert issubclass(ConfigError, ReproError)
        assert issubclass(ConfigError, ValueError)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_shard_unavailable_carries_shard_id(self):
        err = ShardUnavailableError(3, "partition")
        assert err.shard == 3
        assert "3" in str(err)
