"""Batch compilation: `compile_many` must deduplicate within a batch and
return programs aligned with its jobs, and jobs compiled concurrently on
one session must be bit-identical to a serial loop over the same jobs —
for every benchmark under every configuration."""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.suites.registry import load_all
from repro.compiler import (
    ALL_CONFIGS,
    BASE,
    SAFARA_ONLY,
    CompileJob,
    CompilerSession,
)
from repro.bench.runner import benchmark_job
from repro.feedback import FeedbackTimeout, deadline_scope
from repro.pipeline.cache import env_token

SRC = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""


def _fingerprint(program):
    """Everything observable about a compiled program, as comparable data."""
    return [
        (
            k.name,
            k.region_id is not None,
            k.registers,
            k.ptxas.summary(),
            k.vir.dump(),
            k.backend_compilations,
        )
        for k in program.kernels
    ]


def _all_jobs():
    spec, nas = load_all()
    return [
        benchmark_job(s, cfg)
        for s in spec.all() + nas.all()
        for cfg in ALL_CONFIGS.values()
    ]


@pytest.fixture(scope="module")
def serial():
    """Every benchmark under every configuration, compiled by a
    ``compile_source`` loop."""
    jobs = _all_jobs()
    assert len(jobs) == 16 * len(ALL_CONFIGS)
    session = CompilerSession()
    programs = [
        session.compile_source(
            j.source, j.config, kernel_name=j.kernel_name, env=j.env
        )
        for j in jobs
    ]
    return jobs, programs


class TestParallelSerialParity:
    def test_parallel_bit_identical_to_serial_all_benchmarks_all_configs(
        self, serial
    ):
        jobs, serial_programs = serial
        parallel_session = CompilerSession()
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = [
                program
                for program, _tier in pool.map(parallel_session.compile_job, jobs)
            ]

        assert len(parallel) == len(serial_programs)
        for s, p in zip(serial_programs, parallel):
            assert _fingerprint(s) == _fingerprint(p)
        # every job is unique → the threads compiled each exactly once
        assert parallel_session.cache.misses == len(jobs)
        assert parallel_session.stats.compilations == len(jobs)

    def test_batch_bit_identical_to_serial_all_benchmarks_all_configs(
        self, serial
    ):
        jobs, serial_programs = serial
        batch_session = CompilerSession()
        batch = batch_session.compile_many(jobs)
        assert [_fingerprint(p) for p in batch] == [
            _fingerprint(s) for s in serial_programs
        ]
        assert batch_session.stats.compilations == len(jobs)


class TestBatchSemantics:
    def test_results_align_with_jobs(self):
        spec, _ = load_all()
        specs = spec.all()[:3]
        session = CompilerSession()
        jobs = [benchmark_job(s, BASE) for s in specs]
        programs = session.compile_many(jobs)
        for s, p in zip(specs, programs):
            assert p.kernels[0].name.rsplit("_k", 1)[0] in s.source

    def test_duplicate_jobs_compile_once(self):
        session = CompilerSession()
        job = CompileJob(source=SRC, config=BASE)
        programs = session.compile_many([job] * 5)
        assert all(p is programs[0] for p in programs)
        assert session.stats.compilations == 1
        assert session.cache.misses == 1

    def test_jobs_differing_only_in_env_compile_once(self):
        session = CompilerSession()
        envs = [{"n": 1 << 20}, {"n": 1 << 22}, None, {"n": 1 << 20}]
        jobs = [CompileJob(source=SRC, config=BASE, env=env) for env in envs]
        programs = session.compile_many(jobs)
        assert all(p is programs[0] for p in programs)
        assert session.stats.compilations == 1
        assert session.cache.misses == 1
        # The verdict is stored under the first job's env; timing under
        # any other env walks the VIR and matches a fresh compile's.
        assert programs[0].timing_env == env_token(envs[0])
        for env in envs[:2]:
            fresh = CompilerSession()
            own = fresh.compile_source(SRC, BASE, env=env)
            assert (
                session.time_program(programs[0], env).total_ms
                == fresh.time_program(own, env).total_ms
            )
        assert session.metrics.get("gpu.timing.walked").value == 1

    def test_warm_batch_is_all_hits(self):
        session = CompilerSession()
        jobs = [
            CompileJob(source=SRC, config=cfg) for cfg in ALL_CONFIGS.values()
        ]
        cold = session.compile_many(jobs)
        hits_before = session.cache.hits
        warm = session.compile_many(jobs)
        assert session.cache.hits == hits_before + len(jobs)
        for c, w in zip(cold, warm):
            assert c is w

    def test_tuple_jobs_accepted(self):
        session = CompilerSession()
        (program,) = session.compile_many([(SRC, BASE)])
        assert program.kernels

    def test_empty_batch(self):
        assert CompilerSession().compile_many([]) == []

    def test_serial_worker_path(self):
        session = CompilerSession()
        jobs = [CompileJob(source=SRC, config=BASE)]
        (program,) = session.compile_many(jobs)
        assert program.kernels
        assert session.stats.compilations == 1

    def test_expired_deadline_raises_on_the_callers_thread(self):
        """The batch runs on the caller's thread, so the caller's
        thread-local deadline reaches SAFARA's feedback loop."""
        session = CompilerSession()
        with deadline_scope(time.monotonic() - 1.0):
            with pytest.raises(FeedbackTimeout):
                session.compile_many([CompileJob(source=SRC, config=SAFARA_ONLY)])
        assert session.stats.compilations == 0

    def test_module_level_compile_many_uses_default_session(self):
        import repro

        before = repro.default_session().cache.misses
        repro.compile_many([CompileJob(source=SRC.replace("axpy", "axpy_dflt"), config=BASE)])
        assert repro.default_session().cache.misses == before + 1
