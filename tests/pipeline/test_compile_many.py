"""Batch compilation: parallel `compile_many` must be bit-identical to a
serial loop over the same jobs — for every benchmark under every
configuration — and must deduplicate within a batch."""

from repro.bench.suites.registry import load_all
from repro.compiler import ALL_CONFIGS, BASE, CompileJob, CompilerSession
from repro.bench.runner import benchmark_job
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


class TestParallelSerialParity:
    def test_parallel_bit_identical_to_serial_all_benchmarks_all_configs(self):
        jobs = _all_jobs()
        assert len(jobs) == 16 * len(ALL_CONFIGS)

        serial_session = CompilerSession()
        serial = [
            serial_session.compile_source(
                j.source, j.config, kernel_name=j.kernel_name, env=j.env
            )
            for j in jobs
        ]
        parallel_session = CompilerSession()
        parallel = parallel_session.compile_many(jobs, max_workers=8)

        assert len(parallel) == len(serial)
        for s, p in zip(serial, parallel):
            assert _fingerprint(s) == _fingerprint(p)
        # every job is unique → the parallel batch compiled each exactly once
        assert parallel_session.cache.misses == len(jobs)
        assert parallel_session.stats.compilations == len(jobs)


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
        programs = session.compile_many(jobs, max_workers=4)
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
        (program,) = session.compile_many(jobs, max_workers=1)
        assert program.kernels

    def test_thread_mode_overlaps_backend_latency(self):
        """With injected backend latency, 4 workers over 8 distinct jobs
        must beat the serial wall-clock — the scaling the hotpath
        regression row gates at 1.5x."""
        import time as _time

        from repro.feedback import latency_scope

        jobs = [
            CompileJob(source=SRC.replace("axpy", f"axpy{i}"), config=BASE)
            for i in range(8)
        ]
        with latency_scope(0.02):
            t0 = _time.perf_counter()
            CompilerSession().compile_many(jobs, max_workers=1)
            serial_s = _time.perf_counter() - t0
            t0 = _time.perf_counter()
            CompilerSession().compile_many(jobs, max_workers=4)
            parallel_s = _time.perf_counter() - t0
        assert parallel_s < serial_s * 0.7, (serial_s, parallel_s)

    def test_module_level_compile_many_uses_default_session(self):
        import repro

        before = repro.default_session().cache.misses
        repro.compile_many([CompileJob(source=SRC.replace("axpy", "axpy_dflt"), config=BASE)])
        assert repro.default_session().cache.misses == before + 1
