"""RewriteCache behaviour: LRU eviction, statistics, metadata-versioned keys."""

import pytest

from repro.core.optimizer.levels import OptimizationLevel
from repro.errors import MTSQLError
from repro.gateway import CacheKey, RewriteCache

from tests.conftest import build_paper_example


def make_key(n: int, dataset=(0, 1), version=0) -> CacheKey:
    return CacheKey(
        digest=f"digest-{n}",
        client=0,
        dataset=tuple(dataset),
        level=OptimizationLevel.O4,
        version=version,
    )


def dummy_plan():
    """A CompiledQuery stand-in: the cache stores it and never reads it."""
    return object()


class TestLRU:
    def test_capacity_bound_and_eviction_order(self):
        cache = RewriteCache(capacity=2)
        cache.put(make_key(1), dummy_plan())
        cache.put(make_key(2), dummy_plan())
        cache.put(make_key(3), dummy_plan())
        assert len(cache) == 2
        assert cache.get(make_key(1)) is None  # oldest evicted
        assert cache.get(make_key(2)) is not None
        assert cache.get(make_key(3)) is not None
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = RewriteCache(capacity=2)
        cache.put(make_key(1), dummy_plan())
        cache.put(make_key(2), dummy_plan())
        assert cache.get(make_key(1)) is not None  # 1 becomes most recent
        cache.put(make_key(3), dummy_plan())
        assert cache.get(make_key(1)) is not None
        assert cache.get(make_key(2)) is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RewriteCache(capacity=0)


class TestStats:
    def test_hit_miss_accounting(self):
        cache = RewriteCache(capacity=4)
        key = make_key(1)
        assert cache.get(key) is None
        cache.put(key, dummy_plan())
        assert cache.get(key) is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_key_includes_dataset_level_and_version(self):
        cache = RewriteCache(capacity=8)
        cache.put(make_key(1, dataset=(0, 1)), dummy_plan())
        assert cache.get(make_key(1, dataset=(0,))) is None
        other_level = CacheKey(
            digest="digest-1", client=0, dataset=(0, 1), level=OptimizationLevel.O1, version=0
        )
        assert cache.get(other_level) is None
        # an entry built from older metadata is never looked up again
        assert cache.get(make_key(1, version=1)) is None
        assert cache.get(make_key(1, version=0)) is not None

    def test_info_is_keyed_on_the_version_too(self):
        cache = RewriteCache(capacity=4)
        info = object()
        cache.put_info(("digest", 0), info)
        assert cache.get_info(("digest", 0)) is info
        assert cache.get_info(("digest", 1)) is None

    def test_stale_entries_age_out_by_lru(self):
        cache = RewriteCache(capacity=2)
        cache.put(make_key(1, version=0), dummy_plan())
        cache.put(make_key(1, version=1), dummy_plan())
        cache.put(make_key(2, version=1), dummy_plan())
        assert len(cache) == 2 and cache.stats.evictions == 1
        assert cache.get(make_key(1, version=1)) is not None

    def test_invalidate_clears_and_records_reason(self):
        cache = RewriteCache(capacity=4)
        cache.put(make_key(1), dummy_plan())
        dropped = cache.invalidate(reason="ddl")
        assert dropped == 1
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        assert cache.stats.invalidation_reasons == {"ddl": 1}


SQL = "SELECT E_name FROM Employees ORDER BY E_name"


def direct_rows(mt, session, sql=SQL):
    """What a direct connection with the session's C, D and level returns."""
    connection = mt.connect(session.client, optimization=session.connection.optimization)
    connection.set_scope(session.scope)
    return connection.query(sql).rows


def assert_next_execution_misses(mt, gateway, session, sql=SQL):
    """The next execution compiles afresh and returns current rows."""
    misses = gateway.cache_stats.misses
    rows = session.query(sql).rows
    assert gateway.cache_stats.misses == misses + 1
    assert rows == direct_rows(mt, session, sql)
    return rows


class TestMetadataVersionedKeys:
    """After any metadata change the next execution misses: the session
    reads the middleware's metadata version into both cache keys."""

    @pytest.fixture
    def served(self):
        mt = build_paper_example()
        gateway = mt.gateway(cache_size=32)
        session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
        session.query(SQL)
        assert session.query(SQL).rows == direct_rows(mt, session)
        assert gateway.cache_stats.hits == 1
        return mt, gateway, session

    def test_create_table_misses(self, served):
        mt, gateway, session = served
        mt.execute_ddl("CREATE TABLE Scratch GLOBAL (S_id INTEGER NOT NULL)")
        assert_next_execution_misses(mt, gateway, session)

    def test_drop_table_misses(self, served):
        mt, gateway, session = served
        mt.execute_ddl("CREATE TABLE Scratch GLOBAL (S_id INTEGER NOT NULL)")
        session.query(SQL)
        mt.execute_ddl("DROP TABLE Scratch")
        assert_next_execution_misses(mt, gateway, session)

    def test_grant_and_revoke_miss(self, served):
        mt, gateway, session = served
        grantor = mt.connect(1)
        grantor.set_scope("IN (1)")
        grantor.execute("GRANT READ ON Employees TO 0")
        assert_next_execution_misses(mt, gateway, session)
        grantor.execute("REVOKE READ ON Employees FROM 0")
        assert_next_execution_misses(mt, gateway, session)

    def test_tenant_registration_misses(self, served):
        mt, gateway, session = served
        mt.register_tenant(2, "new-tenant")
        assert_next_execution_misses(mt, gateway, session)

    def test_create_view_through_a_session_misses(self, served):
        mt, gateway, session = served
        session.execute(
            "CREATE VIEW Expensive AS SELECT E_name FROM Employees WHERE E_salary > 100000"
        )
        assert_next_execution_misses(mt, gateway, session)

    def test_closed_session_forgets_its_handles(self, served):
        _, _, session = served
        handle = session.prepare(SQL)
        session.close()
        with pytest.raises(MTSQLError, match="prepared-statement handle"):
            session.execute(handle)
        session.close()  # idempotent

    def test_closed_gateway_still_returns_correct_rows(self, served):
        mt, gateway, session = served
        gateway.close()
        assert len(gateway.cache) == 0  # close drops every entry
        mt.register_tenant(2, "after-close")
        assert_next_execution_misses(mt, gateway, session)
        assert session.query(SQL).rows == direct_rows(mt, session)


def _leak_scenario(mt):
    """Tenant 2 joins with a row everyone may read.  Before, ``IN (0, 1)``
    was *all* tenants, so O1+ dropped the ttid filter from the rewrite; a
    plan built then would now leak tenant 2's rows."""
    mt.register_tenant(2, "interloper")
    mt.connect(2).execute("INSERT INTO Employees VALUES (9, 'Mallory', 0, 1, 1000, 33)")
    mt.allow_cross_tenant_access(privileges=("READ",))


def test_stale_all_tenant_plan_is_keyed_out():
    mt = build_paper_example()
    gateway = mt.gateway()
    session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
    before = session.query(SQL).rows
    _leak_scenario(mt)
    rows = assert_next_execution_misses(mt, gateway, session)
    assert rows == before
    assert all(row[0] != "Mallory" for row in rows)


def test_change_between_version_read_and_put_is_never_served():
    """The metadata changes after the cold statement read the version but
    before its plan is cached: the plan lands under the old version, which
    no later execution reads."""
    mt = build_paper_example()
    gateway = mt.gateway()
    session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
    compile_resolved = session.connection.compile_resolved

    def compile_then_change(*args, **kwargs):
        compiled = compile_resolved(*args, **kwargs)  # built for D = all tenants
        _leak_scenario(mt)
        return compiled

    session.connection.compile_resolved = compile_then_change
    session.query(SQL)  # the racing statement runs its plan once, as a direct one would
    del session.connection.compile_resolved
    assert len(gateway.cache) == 1
    rows = assert_next_execution_misses(mt, gateway, session)
    assert all(row[0] != "Mallory" for row in rows)
