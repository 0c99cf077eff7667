"""Persistent disk-cache semantics: layout, atomicity, eviction,
corruption tolerance, and the two-tier wiring through CompilerSession."""

import os
import pathlib
import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.compiler import BASE, SMALL_DIM_SAFARA, CompileJob, CompilerSession
from repro.pipeline import DiskCache, cache_key
from repro.pipeline.diskcache import FORMAT_VERSION

SRC = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""

KEY = cache_key(SRC, BASE)


class TestLayout:
    def test_entries_shard_by_key_prefix(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(KEY, {"v": 1})
        expected = tmp_path / "shards" / KEY[:2] / f"{KEY}.pkl"
        assert expected.is_file()
        assert len(cache) == 1

    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(KEY, {"answer": 42})
        assert cache.get(KEY) == {"answer": 42}
        assert cache.hits == 1 and cache.misses == 0

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get(KEY) is None
        assert cache.misses == 1

    def test_rejects_non_hash_keys(self, tmp_path):
        cache = DiskCache(tmp_path)
        with pytest.raises(ValueError, match="content-hash"):
            cache.put("../../escape", 1)

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = DiskCache(tmp_path)
        for i in range(5):
            cache.put(KEY, {"v": i})
        leftovers = [
            p for p in (tmp_path / "shards").rglob("*") if ".tmp-" in p.name
        ]
        assert leftovers == []

    def test_persists_across_instances(self, tmp_path):
        DiskCache(tmp_path).put(KEY, "payload")
        assert DiskCache(tmp_path).get(KEY) == "payload"

    def test_put_does_not_count(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert len(cache) == 0
        cache.put(KEY, 1)
        assert len(cache) == 1
        assert cache.hits == 0 and cache.misses == 0


class TestCorruptionTolerance:
    def _entry_path(self, tmp_path):
        return tmp_path / "shards" / KEY[:2] / f"{KEY}.pkl"

    def test_truncated_entry_is_a_miss_and_deleted(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(KEY, {"v": 1})
        path = self._entry_path(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(KEY) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_garbage_entry_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = self._entry_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle at all")
        assert cache.get(KEY) is None
        assert cache.corrupt == 1

    def test_wrong_key_envelope_is_a_miss(self, tmp_path):
        """A copy of another entry under this key must not be served."""
        cache = DiskCache(tmp_path)
        other = cache_key(SRC + "\n", BASE)
        path = self._entry_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_bytes(
            pickle.dumps({"format": FORMAT_VERSION, "key": other, "value": 1})
        )
        assert cache.get(KEY) is None
        assert cache.corrupt == 1

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = self._entry_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_bytes(
            pickle.dumps({"format": FORMAT_VERSION + 1, "key": KEY, "value": 1})
        )
        assert cache.get(KEY) is None
        assert cache.corrupt == 1

    def test_rewrite_after_corruption_serves_again(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(KEY, "good")
        path = self._entry_path(tmp_path)
        path.write_bytes(b"junk")
        assert cache.get(KEY) is None
        cache.put(KEY, "good again")
        assert cache.get(KEY) == "good again"


class TestEviction:
    def _keys(self, n):
        return [cache_key(SRC + "\n" * i, BASE) for i in range(n)]

    def test_size_bound_evicts_oldest(self, tmp_path):
        keys = self._keys(6)
        cache = DiskCache(tmp_path, max_bytes=1)  # every put overflows
        for key in keys:
            cache.put(key, "x" * 64)
        # Only the newest entry survives a 1-byte budget.
        assert len(cache) <= 1
        assert cache.evictions >= 5

    def test_recency_refresh_spares_hot_entries(self, tmp_path):
        keys = self._keys(3)
        cache = DiskCache(tmp_path, max_bytes=10**9)
        for key in keys:
            cache.put(key, "payload")
        # Make the first entry the most recently used despite oldest write.
        first = tmp_path / "shards" / keys[0][:2] / f"{keys[0]}.pkl"
        old = first.stat().st_mtime - 1000
        for key in keys[1:]:
            p = tmp_path / "shards" / key[:2] / f"{key}.pkl"
            os.utime(p, (old, old))
        assert cache.get(keys[0]) == "payload"
        entry_bytes = cache.total_bytes() // 3
        cache.max_bytes = entry_bytes * 2 + entry_bytes // 2  # room for ~2
        cache.put(cache_key(SRC + "tail", BASE), "payload")
        assert first.exists()  # hot entry survived


class TestPutCost:
    """A put keeps a running byte total instead of statting every entry."""

    def test_stat_calls_stay_flat_as_the_cache_fills(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        calls = []
        real_stat = pathlib.Path.stat

        def counting_stat(self, *args, **kwargs):
            calls.append(self)
            return real_stat(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", counting_stat)
        per_put = []
        for i in range(40):
            before = len(calls)
            cache.put(cache_key(SRC + "\n" * i, BASE), "x" * 64)
            per_put.append(len(calls) - before)
        assert len(cache) == 40
        assert max(per_put) <= 2, per_put

    def test_running_total_matches_a_scan(self, tmp_path):
        cache = DiskCache(tmp_path)
        keys = [cache_key(SRC + "\n" * i, BASE) for i in range(6)]
        for key in keys:
            cache.put(key, "x" * 64)
        cache.put(keys[0], "y" * 512)  # a rewrite replaces, not adds
        gauge = cache.metrics.get("cache.disk.bytes")
        assert gauge.value == cache.total_bytes()
        # A reopened cache starts from a scan and agrees.
        assert DiskCache(tmp_path).metrics.get("cache.disk.bytes").value == gauge.value


class TestSessionWiring:
    def test_warm_restart_serves_from_disk_without_backend(self, tmp_path):
        """The acceptance property: a fresh process (modelled by a fresh
        session over the same directory) serves a previously-compiled
        program without a single ptxas feedback iteration."""
        cold = CompilerSession(cache_dir=tmp_path)
        p_cold = cold.compile_source(SRC, SMALL_DIM_SAFARA)
        assert cold.stats.compilations == 1
        cold_ptxas = cold.metrics.get("pipeline.pass.safara.backend_compilations")
        assert cold_ptxas is not None and cold_ptxas.value > 0

        warm = CompilerSession(cache_dir=tmp_path)
        p_warm = warm.compile_source(SRC, SMALL_DIM_SAFARA)
        assert warm.stats.compilations == 0
        assert warm.metrics.get("pipeline.pass.safara.backend_compilations") is None
        assert warm.disk_cache.hits == 1
        # Served bit-identical compilation artifacts.
        assert p_warm.kernels[0].ptxas.registers == p_cold.kernels[0].ptxas.registers
        assert p_warm.kernels[0].vir.dump() == p_cold.kernels[0].vir.dump()

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        CompilerSession(cache_dir=tmp_path).compile_source(SRC, BASE)
        warm = CompilerSession(cache_dir=tmp_path)
        warm.compile_source(SRC, BASE)
        warm.compile_source(SRC, BASE)
        assert warm.disk_cache.hits == 1  # second lookup hit memory
        assert warm.cache.hits == 1

    def test_compile_many_uses_disk_tier(self, tmp_path):
        CompilerSession(cache_dir=tmp_path).compile_many(
            [(SRC, BASE), (SRC, SMALL_DIM_SAFARA)]
        )
        warm = CompilerSession(cache_dir=tmp_path)
        programs = warm.compile_many([(SRC, BASE), (SRC, SMALL_DIM_SAFARA)])
        assert len(programs) == 2
        assert warm.stats.compilations == 0
        assert warm.disk_cache.hits == 2

    def test_corrupted_entry_triggers_recompile(self, tmp_path):
        cold = CompilerSession(cache_dir=tmp_path)
        cold.compile_source(SRC, BASE)
        for p in (tmp_path / "shards").rglob("*.pkl"):
            p.write_bytes(b"corrupted beyond repair")
        warm = CompilerSession(cache_dir=tmp_path)
        program = warm.compile_source(SRC, BASE)
        assert warm.stats.compilations == 1  # recompiled, no crash
        assert warm.disk_cache.corrupt == 1
        assert program.kernels[0].ptxas.registers > 0
        # ... and the rewrite makes the next restart warm again.
        again = CompilerSession(cache_dir=tmp_path)
        again.compile_source(SRC, BASE)
        assert again.stats.compilations == 0

    def test_stats_dict_reports_disk_tier(self, tmp_path):
        session = CompilerSession(cache_dir=tmp_path)
        session.compile_source(SRC, BASE)
        d = session.stats_dict()
        assert d["cache"]["disk"]["writes"] == 1

    def test_no_disk_cache_by_default(self):
        assert CompilerSession().disk_cache is None


class TestEnvelopeV2:
    """Envelopes older writers left behind (v1, and v2 whose programs
    carried the kernel function) are counted misses until the next put
    rewrites them in the current format."""

    def _write(self, tmp_path, envelope):
        path = tmp_path / "shards" / KEY[:2] / f"{KEY}.pkl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(envelope))
        return path

    def test_v1_entry_upgrades_on_next_write(self, tmp_path):
        cache = DiskCache(tmp_path)
        for old in (
            {"format": 1, "key": KEY, "value": 1},
            {"format": 2, "key": KEY, "value": 1, "codegen": "# generated"},
        ):
            path = self._write(tmp_path, old)
            misses = cache.misses
            assert cache.get(KEY) is None
            assert cache.misses == misses + 1
            cache.put(KEY, 1)
            envelope = pickle.loads(path.read_bytes())
            assert envelope == {"format": FORMAT_VERSION, "key": KEY, "value": 1}
            assert cache.get(KEY) == 1

    def test_session_envelope_carries_program_only(self, tmp_path):
        session = CompilerSession(cache_dir=tmp_path)
        session.compile_source(SRC, BASE)
        path = tmp_path / "shards" / KEY[:2] / f"{KEY}.pkl"
        assert set(pickle.loads(path.read_bytes())) == {"format", "key", "value"}


class TestParseCount:
    """A cold compile parses its source once; a disk hit never parses."""

    @pytest.fixture
    def parses(self, monkeypatch):
        from repro.compiler import session as session_mod

        calls = []
        real = session_mod.parse_program

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(session_mod, "parse_program", counting)
        return calls

    def test_cold_compile_parses_once(self, tmp_path, parses):
        CompilerSession(cache_dir=tmp_path).compile_source(SRC, BASE)
        assert len(parses) == 1

    def test_disk_hit_parses_zero_times(self, tmp_path, parses):
        CompilerSession(cache_dir=tmp_path).compile_source(SRC, BASE)
        parses.clear()
        warm = CompilerSession(cache_dir=tmp_path)
        warm.compile_source(SRC, BASE)
        assert warm.disk_cache.hits == 1
        assert parses == []

    def test_threaded_batch_parses_each_job_once(self, tmp_path, parses):
        jobs = [CompileJob(SRC + "\n" * n, BASE) for n in range(6)]
        session = CompilerSession(cache_dir=tmp_path)
        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(session.compile_job, jobs))
        assert session.stats.compilations == len(jobs)
        assert len(parses) == len(jobs)
