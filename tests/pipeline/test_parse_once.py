"""Parse once per session: a session parses and builds each source once
and compiles a clone of the built function per job.

A clone must compile to exactly what a fresh parse compiles to — the same
envelope bytes, profile, fresh-name suffixes and backend-compile counts —
and a job's envelope must not depend on what the process compiled before.
"""

import json
import pathlib
import pickle
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.compiler.session as session_module
from repro.bench import NAS, SPEC, load_all
from repro.compiler import (
    BASE,
    SAFARA_ONLY,
    SMALL_DIM_SAFARA,
    CompileJob,
    CompilerSession,
)
from repro.compiler.options import ALL_CONFIGS
from repro.ir import build_module
from repro.ir.stmt import loops_in
from repro.lang import parse_program
from repro.obs.profiler import profile_program, profile_source

ROOT = pathlib.Path(__file__).resolve().parents[2]


def bench_jobs_by_name() -> dict[str, CompileJob]:
    """The 16 benchmarks x 4 configurations of ``BENCH_obs.json``, by
    entry name (``benchmark|config``)."""
    load_all()
    specs = {s.name: s for s in [*SPEC.all(), *NAS.all()]}
    entries = json.loads((ROOT / "BENCH_obs.json").read_text())["entries"]
    jobs = {}
    for key in sorted(entries):
        name, config = key.split("|")
        spec = specs[name]
        jobs[key] = CompileJob(spec.source, ALL_CONFIGS[config], env=dict(spec.env))
    assert len(jobs) == 64 and len({j.source for j in jobs.values()}) == 16
    return jobs


def bench_jobs() -> list[CompileJob]:
    return list(bench_jobs_by_name().values())


@pytest.fixture
def parse_count(monkeypatch):
    """Counts the session's calls to the parser."""
    calls = []
    real = session_module.parse_program

    def counting(source, filename="<string>"):
        calls.append(source)
        return real(source, filename)

    monkeypatch.setattr(session_module, "parse_program", counting)
    return calls


def compile_job(session: CompilerSession, job: CompileJob):
    program, _tier = session.compile_job(job)
    return program


@pytest.fixture(scope="module")
def sweep():
    """The 64 jobs compiled in one session, and each in a fresh session."""
    jobs = bench_jobs()
    shared = CompilerSession()
    one_session = [compile_job(shared, j) for j in jobs]
    fresh = [compile_job(CompilerSession(), j) for j in jobs]
    return jobs, shared, one_session, fresh


def envelope(program) -> bytes:
    return pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)


class TestEquivalence:
    def test_envelopes_identical_to_fresh_parses(self, sweep):
        jobs, _shared, one_session, fresh = sweep
        differ = [
            f"{j.config.name}: {i}"
            for i, (j, a, b) in enumerate(zip(jobs, one_session, fresh))
            if envelope(a) != envelope(b)
        ]
        assert differ == []

    def test_vir_and_backend_counts_identical(self, sweep):
        """Fresh-name suffixes (``b_r1_5``) show in the VIR dump: a clone's
        symbol table continues the counter where a fresh parse's would."""
        _jobs, _shared, one_session, fresh = sweep
        for a, b in zip(one_session, fresh):
            assert [k.vir.dump() for k in a.kernels] == [k.vir.dump() for k in b.kernels]
            assert [k.backend_compilations for k in a.kernels] == [
                k.backend_compilations for k in b.kernels
            ]
        assert sum(k.backend_compilations for p in one_session for k in p.kernels) == sum(
            k.backend_compilations for p in fresh for k in p.kernels
        )

    def test_profiles_identical_to_fresh_parses(self, sweep):
        """``repro profile --json`` of a clone the session handed out, after
        it compiled the whole sweep from the same parse, equals the profile
        of a fresh parse."""
        jobs, shared, _one_session, _fresh = sweep
        for job in jobs:
            fn = shared._parse_job(job)
            cloned = profile_program(shared.compile_function(fn, job.config), fn)
            fresh = profile_source(job.source, job.config, session=CompilerSession())
            assert json.dumps(cloned.as_dict()) == json.dumps(fresh.as_dict())

    def test_session_parses_each_source_once(self, parse_count):
        jobs = bench_jobs()
        session = CompilerSession()
        for job in jobs:
            compile_job(session, job)
        assert len(parse_count) == 16
        assert sorted(parse_count) == sorted({j.source for j in jobs})

    def test_compile_many_parallel_equals_serial(self):
        jobs = bench_jobs()
        serial = [compile_job(CompilerSession(), j) for j in jobs]
        session = CompilerSession()
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda j: compile_job(session, j), jobs))
        assert [envelope(p) for p in parallel] == [envelope(s) for s in serial]


class TestBackendCount:
    def test_reported_count_equals_generate_kernel_calls(self, monkeypatch):
        """A kernel's ``backend_compilations`` is the number of times its
        compile ran the code generator: SAFARA's feedback runs, the last of
        which is the final lowering, or one final lowering without SAFARA;
        258 over the 64 jobs."""
        import repro.feedback.driver as feedback_driver

        calls: Counter = Counter()
        for module in (session_module, feedback_driver):

            def counting(*args, real=module.generate_kernel, **kwargs):
                calls[kwargs["name"]] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "generate_kernel", counting)
        session = CompilerSession()
        total = 0
        for job in bench_jobs():
            calls.clear()
            program = compile_job(session, job)
            reported = {k.name: k.backend_compilations for k in program.kernels}
            assert dict(calls) == reported, job.config.name
            total += sum(reported.values())
        assert total == 258


class TestRunAndCompileShareOneParse:
    """A run executes the session's parse itself; a compile afterwards
    clones that same parse and must still compile as a fresh parse."""

    @pytest.fixture(scope="class")
    def runnable(self):
        from repro.bench.args import build_test_args

        load_all()
        specs = [*SPEC.all(), *NAS.all()]
        assert len(specs) == 16
        return [(spec, build_test_args(spec)[1]) for spec in specs]

    @pytest.mark.parametrize("executor", ["auto", "scalar"])
    def test_run_then_compile_parses_once(self, runnable, parse_count, executor):
        from repro.bench.args import copy_args

        session = CompilerSession()
        compiled = []
        for spec, args in runnable:
            session.run(spec.source, copy_args(args), executor=executor)
            job = CompileJob(spec.source, SMALL_DIM_SAFARA, env=dict(spec.env))
            compiled.append((job, compile_job(session, job)))
        assert sorted(parse_count) == sorted(spec.source for spec, _ in runnable)
        for job, after_run in compiled:
            assert envelope(after_run) == envelope(compile_job(CompilerSession(), job))


class TestHistoryIndependence:
    """Loops and regions are numbered per function, not per process."""

    def test_envelope_same_alone_and_after_other_compiles(self):
        jobs = bench_jobs()
        seismic = bench_jobs_by_name()["355.seismic|OpenUH(SAFARA+small+dim)"]
        alone = envelope(compile_job(CompilerSession(), seismic))
        busy = CompilerSession()
        for job in jobs[:10]:
            compile_job(busy, job)
        for job in jobs[:10]:
            build_module(parse_program(job.source))
        after = envelope(compile_job(CompilerSession(), seismic))
        assert alone == after

    def test_ids_count_from_one_per_function(self):
        for job in bench_jobs()[::4]:
            fn = build_module(parse_program(job.source)).functions[0]
            assert [r.region_id for r in fn.regions()] == list(
                range(1, len(fn.regions()) + 1)
            )
            ids = sorted(l.loop_id for l in loops_in(fn.body))
            assert ids == list(range(1, len(ids) + 1))


SRC = """
kernel k{n}(double a[n], const double b[n], int n) {{
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n - 1; i++) {{ a[i] = b[i - 1] + b[i] + b[i + 1]; }}
}}
"""


class TestFunctionCache:
    def test_evicts_least_recently_used_at_cache_size(self, parse_count):
        session = CompilerSession(cache_size=2)
        a, b, c = (SRC.format(n=i) for i in range(3))
        for src in (a, b, c):
            session.compile_source(src, BASE)
        assert len(session._functions) == 2
        session.compile_source(c, SMALL_DIM_SAFARA)  # still held
        assert parse_count == [a, b, c]
        session.compile_source(a, SMALL_DIM_SAFARA)  # evicted: parsed again
        assert parse_count == [a, b, c, a]
        session.compile_source(b, SMALL_DIM_SAFARA)  # a and c were used since
        assert parse_count == [a, b, c, a, b]

    def test_compiling_a_clone_leaves_the_parse_intact(self):
        session = CompilerSession()
        job = CompileJob(SRC.format(n=0), SMALL_DIM_SAFARA)
        compile_job(session, job)
        (held,) = session._functions.values()
        fresh = build_module(parse_program(job.source)).functions[0]
        assert [s.name for s in held.symtab] == [s.name for s in fresh.symtab]
        assert repr(held.body) == repr(fresh.body)

    def test_reset_drops_parsed_functions(self):
        session = CompilerSession()
        session.compile_source(SRC.format(n=0), BASE)
        session.reset()
        assert len(session._functions) == 0

    def test_filename_and_kernel_name_are_part_of_the_key(self, parse_count):
        session = CompilerSession()
        src = SRC.format(n=0)
        # Three configs, so no job is a compile-cache hit (the filename is
        # not in the compile key).
        session.compile_source(src, BASE)
        session.compile_source(src, SMALL_DIM_SAFARA, filename="k.acc")
        session.compile_source(src, SAFARA_ONLY, kernel_name="k0")
        assert len(parse_count) == 3
        session.compile_source(src, SAFARA_ONLY, filename="k.acc")
        assert len(parse_count) == 3

    def test_concurrent_jobs_share_parses_under_eviction(self):
        """More workers than cores, a tiny LRU and a short switch interval:
        racing parses, hits and evictions must leave every program equal
        to a serial compile and the LRU within its bound."""
        configs = [BASE, SAFARA_ONLY, SMALL_DIM_SAFARA]
        jobs = [CompileJob(SRC.format(n=i % 5), c) for i in range(5) for c in configs]
        serial = [compile_job(CompilerSession(), j) for j in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            session = CompilerSession(cache_size=2)
            with ThreadPoolExecutor(max_workers=8) as pool:
                parallel = list(pool.map(lambda j: compile_job(session, j), jobs))
        finally:
            sys.setswitchinterval(interval)
        assert [envelope(p) for p in parallel] == [envelope(s) for s in serial]
        assert len(session._functions) <= 2
