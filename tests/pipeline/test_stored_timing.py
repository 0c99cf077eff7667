"""The timing verdict stored at compile, and the detail section a disk hit
leaves unread.

A compile evaluates the timing model once per kernel under the job's env
and stores the launch-independent verdict; ``time_program`` under that
env scales it, under any other env it walks the VIR.  A program loaded
from disk unpickles its VIR and pass reports (one bytes section per
program) only when one of them is first read.
"""

import gc
import json
import pathlib
import pickle

import pytest

from repro.bench import NAS, SPEC, load_all
from repro.codegen.vir import Instr
from repro.compiler import CompilerSession
from repro.compiler.driver import DETAIL_FIELDS
from repro.compiler.options import ALL_CONFIGS, SMALL_DIM_SAFARA
from repro.errors import CacheError, TimingUnavailable
from repro.gpu.timing import estimate_time
from repro.ir.expr import Expr
from repro.pipeline.diskcache import FORMAT_VERSION

ROOT = pathlib.Path(__file__).resolve().parents[2]


def bench_jobs():
    """The 16 benchmarks x 4 configurations of ``BENCH_obs.json``."""
    load_all()
    specs = {s.name: s for s in [*SPEC.all(), *NAS.all()]}
    entries = json.loads((ROOT / "BENCH_obs.json").read_text())["entries"]
    jobs = []
    for key in sorted(entries):
        name, config = key.split("|")
        jobs.append((specs[name], ALL_CONFIGS[config]))
    assert len(jobs) == 64 and len({s.name for s, _ in jobs}) == 16
    return jobs


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A disk cache holding the 64 BENCH programs, and the fresh programs."""
    cache_dir = tmp_path_factory.mktemp("bench-cache")
    session = CompilerSession(cache_dir=cache_dir)
    jobs = bench_jobs()
    fresh = [
        session.compile_source(spec.source, config, env=dict(spec.env))
        for spec, config in jobs
    ]
    return cache_dir, jobs, fresh


def launch_forms(spec, program):
    n = len(program.kernels)
    return [
        spec.launches,
        7,
        [3 + i for i in range(n)],
        {k.name: 2 * i + 1 for i, k in enumerate(program.kernels)},
    ]


def walk(program, env, launches):
    """The timing model over the VIR, as ``time_program`` did before
    verdicts were stored."""
    out = []
    for idx, ck in enumerate(program.kernels):
        if isinstance(launches, int):
            n = launches
        elif isinstance(launches, list):
            n = launches[idx] if idx < len(launches) else 1
        else:
            n = launches.get(ck.name, 1)
        out.append(
            estimate_time(
                ck.vir, ck.ptxas, env, arch=program.config.arch,
                launches=n, issue_scale=program.config.issue_efficiency,
            )
        )
    return out


def live(kinds) -> int:
    gc.collect()
    return sum(isinstance(o, kinds) for o in gc.get_objects())


class TestStoredVerdict:
    def test_bit_identical_across_fresh_disk_and_walk(self, filled):
        """Registers and every KernelTiming field agree between a fresh
        compile, a disk hit in a fresh session and the VIR walk, for each
        way of giving ``launches``."""
        cache_dir, jobs, fresh = filled
        warm = CompilerSession(cache_dir=cache_dir)
        other = CompilerSession()
        for (spec, config), program in zip(jobs, fresh):
            env = dict(spec.env)
            loaded = warm.compile_source(spec.source, config, env=env)
            assert [k.registers for k in loaded.kernels] == [
                k.registers for k in program.kernels
            ]
            for launches in launch_forms(spec, program):
                from_fresh = other.time_program(program, env, launches=launches)
                from_disk = warm.time_program(loaded, env, launches=launches)
                assert from_fresh.kernels == walk(program, env, launches), spec.name
                assert from_disk.kernels == from_fresh.kernels, spec.name
        assert warm.stats.compilations == 0
        assert warm.disk_cache.hits == 64
        assert warm.stats.as_dict()["timing_kernels"]["walked"] == 0
        assert warm.disk_cache.detail_loads == 0

    def test_bench_model_ms_unchanged(self, filled):
        cache_dir, jobs, _fresh = filled
        entries = json.loads((ROOT / "BENCH_obs.json").read_text())["entries"]
        warm = CompilerSession(cache_dir=cache_dir)
        for spec, config in jobs:
            program = warm.compile_source(spec.source, config, env=dict(spec.env))
            timing = warm.time_program(program, dict(spec.env), launches=spec.launches)
            entry = entries[f"{spec.name}|{config.name}"]
            assert round(timing.total_ms, 6) == entry["model_ms"]
            assert program.max_registers == entry["max_registers"]

    def test_result_does_not_share_the_stored_profile(self, filled):
        _cache_dir, jobs, fresh = filled
        spec, _config = jobs[0]
        program = fresh[0]
        before = [k.timing.profile.issue_cycles for k in program.kernels]
        timing = CompilerSession().time_program(program, dict(spec.env))
        for kt, ck in zip(timing.kernels, program.kernels):
            assert kt.profile is not ck.timing.profile
            kt.profile.issue_cycles = -1.0
        assert [k.timing.profile.issue_cycles for k in program.kernels] == before

    def test_other_env_walks_the_vir(self, filled):
        """An env equal in value but not in kind (``64.0`` for ``64``) is a
        different key, and is timed by walking the VIR."""
        cache_dir, jobs, _fresh = filled
        spec, config = jobs[0]
        env = dict(spec.env)
        warm = CompilerSession(cache_dir=cache_dir)
        program = warm.compile_source(spec.source, config, env=env)
        floats = {k: float(v) for k, v in env.items()}
        warm.time_program(program, floats)
        counts = warm.stats.as_dict()["timing_kernels"]
        assert counts == {"stored": 0, "walked": len(program.kernels)}
        assert warm.disk_cache.detail_loads == 1

    def test_env_without_trip_count_stores_no_verdict(self):
        """A data-dependent loop needs ``__trips_<var>``: without it the
        compile still succeeds, stores no verdict for that kernel, and
        timing under that env raises the walk's error."""
        load_all()
        spec = SPEC.get("354.cg")
        env = {k: v for k, v in spec.env.items() if not k.startswith("__trips_")}
        session = CompilerSession()
        program = session.compile_source(spec.source, SMALL_DIM_SAFARA, env=env)
        assert any(k.timing is None for k in program.kernels)
        with pytest.raises(TimingUnavailable) as info:
            session.time_program(program, env)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == "trip count of loop k not evaluable; missing env entries?"


class TestLazyDetail:
    def test_disk_hit_materialises_no_ir_until_read(self, filled):
        cache_dir, jobs, _fresh = filled
        before = live((Instr, Expr))
        warm = CompilerSession(cache_dir=cache_dir)
        programs, timings = [], []
        for spec, config in jobs:
            program = warm.compile_source(spec.source, config, env=dict(spec.env))
            programs.append(program)
            timings.append(
                warm.time_program(program, dict(spec.env), launches=spec.launches)
            )
        assert live((Instr, Expr)) == before
        assert warm.disk_cache.detail_loads == 0

        vir = programs[0].kernels[0].vir
        assert vir.instrs and isinstance(vir.instrs[0], Instr)
        assert warm.disk_cache.detail_loads == 1
        assert live((Instr, Expr)) > before
        # One section per program: its other kernels' detail came with it.
        for kernel in programs[0].kernels:
            for name in DETAIL_FIELDS:
                getattr(kernel, name)
        assert warm.disk_cache.detail_loads == 1

    def test_fresh_program_keeps_its_objects(self, filled):
        _cache_dir, _jobs, fresh = filled
        for program in fresh:
            assert program._detail is None
            for kernel in program.kernels:
                assert kernel._detail is None
                assert kernel.vir is not None

    def test_kernels_of_one_program_share_symbols(self, filled):
        cache_dir, jobs, fresh = filled
        index = next(i for i, p in enumerate(fresh) if len(p.kernels) > 1)
        spec, config = jobs[index]
        program = CompilerSession(cache_dir=cache_dir).compile_source(
            spec.source, config, env=dict(spec.env)
        )

        def params(kernel):
            return {id(i.array) for i in kernel.vir.instrs if i.array is not None}

        first, second = program.kernels[:2]
        assert params(first) & params(second)


class TestEnvelopeV4:
    def _path(self, cache_dir, key):
        return pathlib.Path(cache_dir) / "shards" / key[:2] / f"{key}.pkl"

    def test_v3_envelope_is_a_counted_miss_rewritten_as_v4(self, tmp_path):
        load_all()
        spec = SPEC.get("303.ostencil")
        env = dict(spec.env)
        cold = CompilerSession(cache_dir=tmp_path)
        program = cold.compile_source(spec.source, SMALL_DIM_SAFARA, env=env)
        key = cold.stats.traces[-1].cache_key
        path = self._path(tmp_path, key)
        path.write_bytes(pickle.dumps({"format": 3, "key": key, "value": program}))

        warm = CompilerSession(cache_dir=tmp_path)
        warm.compile_source(spec.source, SMALL_DIM_SAFARA, env=env)
        assert warm.disk_cache.misses == 1 and warm.disk_cache.corrupt == 1
        assert warm.stats.compilations == 1
        assert pickle.loads(path.read_bytes())["format"] == FORMAT_VERSION

        again = CompilerSession(cache_dir=tmp_path)
        again.compile_source(spec.source, SMALL_DIM_SAFARA, env=env)
        assert again.stats.compilations == 0 and again.disk_cache.hits == 1

    def test_flipped_byte_in_detail_raises_naming_the_kernel(self, tmp_path):
        load_all()
        spec = SPEC.get("303.ostencil")
        env = dict(spec.env)
        cold = CompilerSession(cache_dir=tmp_path)
        cold.compile_source(spec.source, SMALL_DIM_SAFARA, env=env)
        key = cold.stats.traces[-1].cache_key
        path = self._path(tmp_path, key)
        data = bytearray(path.read_bytes())
        blob = pickle.loads(bytes(data))["value"]._detail._blob
        offset = bytes(data).find(blob)
        assert offset > 0
        data[offset + len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(data))

        warm = CompilerSession(cache_dir=tmp_path)
        program = warm.compile_source(spec.source, SMALL_DIM_SAFARA, env=env)
        assert warm.disk_cache.hits == 1
        name = program.kernels[0].name
        with pytest.raises(CacheError, match=f"kernel '{name}'.*{key}"):
            program.kernels[0].vir
        # The stored verdict needs no detail, so timing still answers.
        warm.time_program(program, env)
        # The damaged entry is gone: the next session recompiles it.
        assert warm.disk_cache.corrupt == 1 and not path.exists()
        again = CompilerSession(cache_dir=tmp_path)
        again.compile_source(spec.source, SMALL_DIM_SAFARA, env=env)
        assert again.stats.compilations == 1
