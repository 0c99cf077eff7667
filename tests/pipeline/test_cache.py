"""Content-addressed compile-cache semantics: key stability, hit/miss
discrimination on every key component (and none on the env, which a
compile does not read), LRU eviction, counters."""

import pickle
from dataclasses import replace

import pytest

from repro.compiler import BASE, SMALL_DIM_SAFARA, CompileJob, CompilerSession
from repro.gpu.arch import FERMI_LIKE, KEPLER_K20XM
from repro.pipeline import CompileCache, cache_key
from repro.pipeline.cache import config_token, env_token

SRC = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""


class TestCacheKey:
    def test_identical_inputs_identical_keys(self):
        assert cache_key(SRC, BASE) == cache_key(SRC, BASE)

    def test_value_equal_configs_share_a_key(self):
        clone = replace(BASE)
        assert clone is not BASE
        assert cache_key(SRC, clone) == cache_key(SRC, BASE)

    def test_changed_source_changes_key(self):
        assert cache_key(SRC, BASE) != cache_key(SRC + "\n", BASE)

    def test_changed_config_changes_key(self):
        assert cache_key(SRC, BASE) != cache_key(SRC, SMALL_DIM_SAFARA)
        assert cache_key(SRC, BASE) != cache_key(
            SRC, BASE.derive(register_limit=32)
        )

    def test_changed_arch_changes_key(self):
        assert cache_key(SRC, BASE.with_arch(KEPLER_K20XM)) != cache_key(
            SRC, BASE.with_arch(FERMI_LIKE)
        )

    def test_env_does_not_change_key(self):
        keys = {
            CompileJob(SRC, BASE, env=env).key()
            for env in ({"n": 512}, {"n": 1024}, {"n": 512.0}, None)
        }
        assert keys == {cache_key(SRC, BASE)}

    def test_env_order_does_not_matter(self):
        assert env_token({"a": 1, "b": 2}) == env_token({"b": 2, "a": 1})
        assert env_token({"n": 64}) != env_token({"n": 64.0})

    def test_kernel_name_in_key(self):
        assert cache_key(SRC, BASE, kernel_name="axpy") != cache_key(SRC, BASE)

    def test_stock_keys_are_pinned(self):
        """Keys name envelopes on disk: deriving the config token once per
        config object must not change a byte of them."""
        assert cache_key(SRC, BASE) == (
            "0979c7db8aea0dd68d8ab84ade95924cf21769c5b215e495c5d2d82eaf682628"
        )
        assert cache_key(SRC, SMALL_DIM_SAFARA, kernel_name="axpy") == (
            "07a8cacfa0cb932157de7386a876d64e878182502b5af217e735a08e5ae3c15c"
        )

    def test_config_token_derived_once_per_config(self):
        config = BASE.derive(register_limit=40)
        token = config_token(config)
        assert token == repr(config)
        assert config_token(config) is token
        # Not a field: out of equality, repr and pickled state.
        assert config == BASE.derive(register_limit=40)
        again = pickle.loads(pickle.dumps(config))
        assert config_token(again) == token and config_token(again) is not token


class TestCompileCache:
    def test_miss_then_hit(self):
        cache = CompileCache(maxsize=4)
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_counts(self):
        cache = CompileCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a → b is now LRU
        cache.put("c", 3)
        assert cache.evictions == 1
        assert cache.get("b") is None  # evicted
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_reset_zeroes_counters(self):
        cache = CompileCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.reset()
        assert (cache.hits, cache.misses, cache.evictions, len(cache)) == (0, 0, 0, 0)

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            CompileCache(maxsize=0)

    def test_as_dict_and_summary(self):
        cache = CompileCache(maxsize=8)
        cache.put("a", 1)
        cache.get("a")
        d = cache.as_dict()
        assert d["hits"] == 1 and d["entries"] == 1 and d["maxsize"] == 8
        assert "1 hits" in cache.summary()


class TestSessionCaching:
    def test_identical_compile_hits(self):
        session = CompilerSession()
        p1 = session.compile_source(SRC, SMALL_DIM_SAFARA)
        p2 = session.compile_source(SRC, SMALL_DIM_SAFARA)
        assert p1 is p2
        assert session.cache.hits == 1 and session.cache.misses == 1
        assert session.stats.compilations == 1  # compiled once

    def test_config_change_misses(self):
        session = CompilerSession()
        session.compile_source(SRC, BASE)
        session.compile_source(SRC, SMALL_DIM_SAFARA)
        assert session.cache.misses == 2 and session.cache.hits == 0

    def test_arch_change_misses(self):
        session = CompilerSession()
        session.compile_source(SRC, BASE)
        session.compile_source(SRC, BASE.with_arch(FERMI_LIKE))
        assert session.cache.misses == 2 and session.cache.hits == 0

    def test_env_change_is_a_memory_hit(self):
        session = CompilerSession()
        first = session.compile_source(SRC, BASE, env={"n": 512})
        assert session.compile_source(SRC, BASE, env={"n": 1024}) is first
        assert session.compile_source(SRC, BASE) is first
        assert session.cache.misses == 1 and session.cache.hits == 2
        assert session.stats.compilations == 1
        # The verdict stays stored under the env of the compile that made it.
        assert first.timing_env == env_token({"n": 512})

    def test_cached_hit_is_bit_identical_to_fresh_compile(self):
        warm = CompilerSession()
        warm.compile_source(SRC, SMALL_DIM_SAFARA)
        hit = warm.compile_source(SRC, SMALL_DIM_SAFARA)
        fresh = CompilerSession().compile_source(SRC, SMALL_DIM_SAFARA)
        assert [k.vir.dump() for k in hit.kernels] == [
            k.vir.dump() for k in fresh.kernels
        ]
        assert [k.registers for k in hit.kernels] == [
            k.registers for k in fresh.kernels
        ]

    def test_session_reset(self):
        session = CompilerSession()
        session.compile_source(SRC, BASE)
        session.reset()
        assert len(session.cache) == 0
        assert session.stats.compilations == 0
        assert session.cache.misses == 0
