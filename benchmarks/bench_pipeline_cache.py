"""Compile-cache / batch-compilation sweep (the compilation-service bench).

Compiles every modelled benchmark under every configuration three ways:

* **cold serial** — a fresh session, one `compile_source` per job;
* **cold batch** — a fresh session, one `compile_many` batch (used for
  the bit-identity check against the serial results);
* **warm batch** — the same batch again on the now-populated session.

Asserts the acceptance properties: the warm-cache batch is >= 3x faster
than the cold serial baseline, and batch results are bit-identical to
the serial loop.  Writes ``benchmarks/results/pipeline.txt``.
"""

import time

from repro.bench.experiments import ExperimentResult
from repro.bench.runner import benchmark_job
from repro.bench.suites.registry import load_all
from repro.compiler import ALL_CONFIGS, CompilerSession


def _fingerprint(program):
    return [
        (k.name, k.registers, k.ptxas.summary(), k.vir.dump())
        for k in program.kernels
    ]


def _run_pipeline_cache() -> ExperimentResult:
    spec, nas = load_all()
    jobs = [
        benchmark_job(s, cfg)
        for s in spec.all() + nas.all()
        for cfg in ALL_CONFIGS.values()
    ]

    serial_session = CompilerSession()
    t0 = time.perf_counter()
    serial = [
        serial_session.compile_source(
            j.source, j.config, kernel_name=j.kernel_name, env=j.env
        )
        for j in jobs
    ]
    cold_serial_s = time.perf_counter() - t0

    batch_session = CompilerSession()
    t0 = time.perf_counter()
    cold = batch_session.compile_many(jobs)
    cold_batch_s = time.perf_counter() - t0

    identical = all(
        _fingerprint(s) == _fingerprint(c) for s, c in zip(serial, cold)
    )

    t0 = time.perf_counter()
    warm = batch_session.compile_many(jobs)
    warm_batch_s = time.perf_counter() - t0
    warm_identity = all(w is c for w, c in zip(warm, cold))

    speedup = cold_serial_s / warm_batch_s if warm_batch_s else float("inf")
    result = ExperimentResult(
        experiment="pipeline",
        title="compile cache + batch compilation sweep "
        f"({len(jobs)} jobs = {len(spec.all() + nas.all())} benchmarks x "
        f"{len(ALL_CONFIGS)} configs)",
        columns=["phase", "seconds", "hits", "misses", "speedup_vs_cold_serial"],
    )
    result.rows.append(
        {
            "phase": "cold-serial",
            "seconds": cold_serial_s,
            "hits": serial_session.cache.hits,
            "misses": serial_session.cache.misses,
            "speedup_vs_cold_serial": 1.0,
        }
    )
    result.rows.append(
        {
            "phase": "cold-batch",
            "seconds": cold_batch_s,
            "hits": 0,
            "misses": batch_session.cache.misses,
            "speedup_vs_cold_serial": cold_serial_s / cold_batch_s,
        }
    )
    result.rows.append(
        {
            "phase": "warm-batch",
            "seconds": warm_batch_s,
            "hits": batch_session.cache.hits,
            "misses": batch_session.cache.misses,
            "speedup_vs_cold_serial": speedup,
        }
    )
    result.notes.append(
        f"batch bit-identical to serial: {'yes' if identical else 'NO'}"
    )
    result.notes.append(
        "warm batch returns the cached objects "
        f"({'yes' if warm_identity else 'NO'}); acceptance: warm >= 3x cold serial"
    )
    # stash the assertions' raw facts for the test below
    result.rows[-1]["_identical"] = identical
    return result


def test_pipeline_cache(record_experiment):
    result = record_experiment(_run_pipeline_cache)
    warm = result.row("phase", "warm-batch")
    cold = result.row("phase", "cold-serial")
    assert warm["_identical"], "batch diverged from serial loop"
    assert warm["hits"] >= warm["misses"], "warm batch should be all cache hits"
    assert warm["speedup_vs_cold_serial"] >= 3.0, (
        f"warm-cache batch only {warm['speedup_vs_cold_serial']:.1f}x faster "
        f"than cold serial ({cold['seconds']:.2f}s -> {warm['seconds']:.2f}s)"
    )
