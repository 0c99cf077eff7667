"""Benchmark-regression ledger over the analytic performance model.

Compiles every modelled SPEC ACCEL / NAS benchmark under a set of compiler
configurations, evaluates the timing model at the paper's problem sizes,
and writes one ledger entry per (benchmark, configuration) cell to
``BENCH_obs.json`` at the repository root:

* ``model_ms`` — the analytic timing-model estimate (deterministic);
* ``max_registers`` — peak per-kernel register usage (deterministic);
* ``speedup_over_base`` — model speedup vs the ``OpenUH(base)`` config.

Before writing, the run is compared against the previous ledger over the
intersection of keys and **fails (exit 1) on a >20% regression** in any
gated metric: model time up, speedup down, or registers up.  The gated
metrics come from the deterministic compile pipeline and analytic model —
not wall clock — so the gate is machine-independent and a failure means a
*code* change moved the model, never scheduler noise.  Wall-clock compile
time and cache counters are recorded informationally in ``meta``.

The ledger also carries a ``serve`` row measuring the warm-restart
property of the persistent compile cache (``docs/serving.md``): the
quick benchmark set is compiled (each spec under its env) and timed
cold through a disk-backed session, then again through a *fresh* session
over the same cache directory.  The gate is on deterministic counters,
consistent with the rest of the ledger: the warm pass must perform
**zero** backend (ptxas) compilations, hit the disk cache once per job,
time every kernel from the verdict stored at compile (zero VIR walks),
unpickle no detail section, and model the same ``model_ms`` as the cold
pass; cold/warm wall times are informational.

A ``tune`` row exercises the ``repro.tune`` autotuner on 355.seismic
(``docs/tuning.md``): the tuned configuration's modeled time must not be
worse than the ``OpenUH(SAFARA+small+dim)`` default, and a warm re-tune
in a fresh session over the cold run's cache directory must compile
nothing, answer every trial from the disk cache and score every trial
exactly as the cold run did.

An ``esat`` row gates the equality-saturation pass end to end
(``docs/optimizer.md``): every benchmark compiled with ``saturate`` on
must model no slower than ``OpenUH(base)`` — the dual-compile pressure
guard's never-worse contract — the geomean model speedup must be at
least 1.0 with register pressure strictly reduced on three or more
kernels, and a warm re-tune over the widened knob space
(``saturate=(False, True)``) must pass the same warm gates as the
``tune`` row.

A ``hotpath`` row gates the generated-code serving hot path
(``docs/execution.md``, ``docs/serving.md``): warm in-process compiles
through the two-tier cache must answer in under a millisecond at p50,
the generated-NumPy executor must be at least break-even with the scalar
interpreter on every benchmark it covers (and so in the geomean).

An ``slo`` row gates the serving tier under open-loop load
(``docs/observability.md``): the quick loadgen profile (fixed-rate
arrivals, compile/run mix, prewarmed shared disk cache) must finish with
zero errors, a >= 0.9 warm compile hit rate and a warm p99 under a
generous absolute bound — latencies are measured from each request's
*scheduled* arrival, so a backlog cannot hide behind coordinated
omission.

A ``cluster`` row gates the sharded serving tier
(``docs/sharding.md``): the open-loop profile against a two-shard
consistent-hash router must finish with zero errors, balanced per-shard
routing (busiest shard within 20% of fair), and a p99 under the ``slo``
bound; a drain + restart of one shard *mid-run* must also finish with
zero errors and a >= 0.9 warm hit rate after the shard rejoins (the
shared disk tier carries its keys).

A ``fleet`` row gates the multi-arch serving layer
(``docs/serving.md``): the CDNA2 profile's waves-per-SIMD table must
match the published MI200 occupancy limits at every tier, and fleet
placement over the full benchmark suite must never route a benchmark to
an arch whose modeled time is worse than the single-arch default.

Usage::

    PYTHONPATH=src python benchmarks/regress.py            # full sweep
    PYTHONPATH=src python benchmarks/regress.py --quick    # CI subset
    PYTHONPATH=src python benchmarks/regress.py --trace t.json

``--quick`` restricts the benchmark and configuration set; entries are
deterministic, so quick-run cells agree with full-run cells and the
key-intersection comparison stays sound across modes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.bench import NAS, SPEC, load_all
from repro.bench.runner import run_configs
from repro.compiler.options import (
    BASE,
    CARR_KENNEDY,
    SAFARA_ONLY,
    SMALL_DIM_SAFARA,
)
from repro.compiler.session import CompilerSession

LEDGER = pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs.json"

#: Relative regression tolerance on every gated metric.
THRESHOLD = 0.20

QUICK_BENCHMARKS = ("303.ostencil", "304.olbm", "354.cg", "BT", "SP")
QUICK_CONFIGS = (BASE, SMALL_DIM_SAFARA)
FULL_CONFIGS = (BASE, CARR_KENNEDY, SAFARA_ONLY, SMALL_DIM_SAFARA)


def collect(quick: bool) -> dict:
    """Run the sweep and build the ledger document."""
    load_all()
    specs = list(SPEC.all()) + list(NAS.all())
    configs = list(QUICK_CONFIGS if quick else FULL_CONFIGS)
    if quick:
        specs = [s for s in specs if s.name in QUICK_BENCHMARKS]

    session = CompilerSession()
    entries: dict[str, dict] = {}
    t0 = time.perf_counter()
    for spec in specs:
        results = run_configs(spec, configs, session=session)
        base_ms = results[BASE.name].total_ms
        for cfg in configs:
            r = results[cfg.name]
            entries[f"{spec.name}|{cfg.name}"] = {
                "model_ms": round(r.total_ms, 6),
                "max_registers": r.max_registers,
                "speedup_over_base": round(base_ms / r.total_ms, 6),
            }
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return {
        "version": 1,
        "quick": quick,
        "entries": entries,
        "meta": {
            "benchmarks": len(specs),
            "configs": [c.name for c in configs],
            "wall_ms": round(wall_ms, 3),
            "cache": session.cache.as_dict(),
            "compilations": session.stats.compilations,
        },
    }


def collect_serve() -> dict:
    """The warm-restart serving row (cold compile vs disk-cache restart).

    Models a ``repro serve`` daemon kill/restart: the second session is a
    fresh process stand-in sharing only the cache directory.  Both
    sessions compile each spec under its env and time the program.
    Returns the ledger row; :func:`check_serve` gates its deterministic
    counters.
    """
    import tempfile

    load_all()
    specs = list(SPEC.all()) + list(NAS.all())
    specs = [s for s in specs if s.name in QUICK_BENCHMARKS]
    backend_metric = "pipeline.pass.safara.backend_compilations"

    def sweep(session: CompilerSession) -> tuple[float, dict[str, float]]:
        model_ms = {}
        t0 = time.perf_counter()
        for spec in specs:
            env = dict(spec.env)
            program = session.compile_source(spec.source, SMALL_DIM_SAFARA, env=env)
            timing = session.time_program(program, env, launches=spec.launches)
            model_ms[spec.name] = timing.total_ms
        return (time.perf_counter() - t0) * 1000.0, model_ms

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        cold = CompilerSession(cache_dir=tmp)
        cold_ms, cold_model = sweep(cold)
        cold_backend = cold.metrics.get(backend_metric)

        warm = CompilerSession(cache_dir=tmp)
        warm_ms, warm_model = sweep(warm)
        warm_backend = warm.metrics.get(backend_metric)

        return {
            "benchmarks": [s.name for s in specs],
            "config": SMALL_DIM_SAFARA.name,
            # gated (deterministic counters):
            "cold_backend_compilations": int(cold_backend.value)
            if cold_backend
            else 0,
            "warm_backend_compilations": int(warm_backend.value)
            if warm_backend
            else 0,
            "disk_hits": warm.disk_cache.hits,
            "warm_timing_walks": warm.stats_dict()["timing_kernels"]["walked"],
            "warm_detail_loads": warm.disk_cache.detail_loads,
            "cold_model_ms": cold_model,
            "warm_model_ms": warm_model,
            # informational (wall clock):
            "cold_compile_ms": round(cold_ms, 3),
            "warm_compile_ms": round(warm_ms, 3),
        }


def _warm_retune(cold, warm, warm_session) -> dict:
    """The gated counters of a warm re-tune: ``warm`` ran in
    ``warm_session``, a fresh session over the directory ``cold`` filled.
    """

    def scores(result) -> list[tuple]:
        return [
            (t.point.key(), t.model_ms, t.max_registers, t.min_occupancy)
            for t in result.trials
        ]

    backend = warm_session.metrics.get(
        "pipeline.pass.safara.backend_compilations"
    )
    return {
        "warm_compilations": warm_session.stats.compilations,
        "warm_backend_compilations": int(backend.value) if backend else 0,
        "warm_disk_hits": warm_session.disk_cache.hits,
        "warm_scores_match": scores(warm) == scores(cold),
    }


def _check_warm_retune(name: str, row: dict, trials: int) -> list[str]:
    """A warm re-tune compiles nothing, answers each of the cold run's
    ``trials`` from the disk cache and scores every trial as it did."""
    problems: list[str] = []
    if row["warm_compilations"] != 0:
        problems.append(
            f"{name}: warm re-tune compiled {row['warm_compilations']} "
            f"programs (expected 0) — the disk cache did not answer"
        )
    if row["warm_backend_compilations"] != 0:
        problems.append(
            f"{name}: warm re-tune performed "
            f"{row['warm_backend_compilations']} backend compilations "
            f"(expected 0)"
        )
    if row["warm_disk_hits"] != trials:
        problems.append(
            f"{name}: warm re-tune hit the disk cache "
            f"{row['warm_disk_hits']} times for {trials} cold trials"
        )
    if not row["warm_scores_match"]:
        problems.append(
            f"{name}: warm re-tune trials differ from the cold run's "
            f"(point, model_ms, max_registers, min_occupancy)"
        )
    return problems


def collect_tune() -> dict:
    """The autotuning row: ``repro.tune`` on the paper's seismic kernel.

    Cold-tunes 355.seismic (beam search over the default knob space,
    through a session over a fresh cache directory), then re-tunes
    through a *fresh* session over the same directory — the warm pass
    must pass :func:`_warm_retune`'s gates.  The tuned configuration is
    gated against the paper's default (``OpenUH(SAFARA+small+dim)``): its
    modeled time must not be worse.
    """
    import tempfile

    from repro.bench.runner import run_benchmark
    from repro.tune import tune

    load_all()
    spec = SPEC.get("355.seismic")

    with tempfile.TemporaryDirectory(prefix="repro-tune-bench-") as tmp:
        default_ms = run_benchmark(
            spec, SMALL_DIM_SAFARA, session=CompilerSession(cache_dir=tmp)
        ).timing.total_ms

        cold_session = CompilerSession(cache_dir=tmp)
        t0 = time.perf_counter()
        cold = tune(
            spec.source,
            env=dict(spec.env),
            launches=spec.launches,
            strategy="beam",
            budget=12,
            session=cold_session,
        )
        cold_ms = (time.perf_counter() - t0) * 1000.0

        warm_session = CompilerSession(cache_dir=tmp)
        t0 = time.perf_counter()
        warm = tune(
            spec.source,
            env=dict(spec.env),
            launches=spec.launches,
            strategy="beam",
            budget=12,
            session=warm_session,
        )
        warm_ms = (time.perf_counter() - t0) * 1000.0

        return {
            "benchmark": spec.name,
            "strategy": "beam",
            "budget": 12,
            # gated (deterministic model times and counters):
            "default_ms": round(default_ms, 6),
            "tuned_ms": round(cold.best.model_ms, 6),
            "speedup_over_default": round(default_ms / cold.best.model_ms, 6),
            **_warm_retune(cold, warm, warm_session),
            # informational:
            "best_point": cold.best.point.as_dict(),
            "trials": len(cold.trials),
            "cold_tune_ms": round(cold_ms, 3),
            "warm_tune_ms": round(warm_ms, 3),
        }


def collect_esat() -> dict:
    """The equality-saturation row (``docs/optimizer.md``).

    Compiles every benchmark under ``OpenUH(base)`` and the same config
    with ``saturate`` on.  The dual-compile pressure guard makes the
    pass fail-safe *per kernel* by construction, so the gates are
    absolute: the saturated model time must never be worse on any
    benchmark, the geomean model speedup must be >= 1.0 with at least
    three kernels reducing peak register pressure, and a warm re-tune
    over the widened knob space (``saturate=(False, True)``) must pass
    :func:`_warm_retune`'s gates.
    """
    import dataclasses
    import math
    import tempfile

    from repro.tune import tune
    from repro.tune.space import default_space

    load_all()
    specs = list(SPEC.all()) + list(NAS.all())
    sat_cfg = BASE.derive(name="OpenUH(base+esat)", saturate=True)

    session = CompilerSession()
    kernels: dict[str, dict] = {}
    for spec in specs:
        results = run_configs(spec, [BASE, sat_cfg], session=session)
        base_r = results[BASE.name]
        sat_r = results[sat_cfg.name]
        kernels[spec.name] = {
            "base_ms": round(base_r.total_ms, 6),
            "saturated_ms": round(sat_r.total_ms, 6),
            "base_registers": base_r.max_registers,
            "saturated_registers": sat_r.max_registers,
            "speedup": round(base_r.total_ms / sat_r.total_ms, 6),
        }
    geomean = math.exp(
        sum(math.log(cell["base_ms"] / cell["saturated_ms"])
            for cell in kernels.values())
        / len(kernels)
    )
    register_wins = sorted(
        name
        for name, cell in kernels.items()
        if cell["saturated_registers"] < cell["base_registers"]
    )

    # Warm re-tune over the widened space: every saturated trial's
    # program is in the disk cache like any other.
    tune_spec = SPEC.get("356.sp")
    space = dataclasses.replace(
        default_space(tune_spec.source), saturate=(False, True)
    )
    with tempfile.TemporaryDirectory(prefix="repro-esat-bench-") as tmp:
        cold_session = CompilerSession(cache_dir=tmp)
        cold = tune(
            tune_spec.source,
            env=dict(tune_spec.env),
            launches=tune_spec.launches,
            strategy="beam",
            budget=12,
            space=space,
            session=cold_session,
        )
        warm_session = CompilerSession(cache_dir=tmp)
        warm = tune(
            tune_spec.source,
            env=dict(tune_spec.env),
            launches=tune_spec.launches,
            strategy="beam",
            budget=12,
            space=space,
            session=warm_session,
        )

    return {
        "base_config": BASE.name,
        "saturated_config": sat_cfg.name,
        # gated (deterministic model times and counters):
        "kernels": kernels,
        "geomean_speedup": round(geomean, 6),
        "register_wins": register_wins,
        "tune_benchmark": tune_spec.name,
        "tune_trials": len(cold.trials),
        **_warm_retune(cold, warm, warm_session),
        # informational:
        "tuned_best_point": cold.best.point.as_dict(),
        "tuned_ms": round(cold.best.model_ms, 6),
    }


def check_esat(row: dict) -> list[str]:
    """Absolute gates on the equality-saturation row."""
    problems: list[str] = []
    for name, cell in row["kernels"].items():
        if cell["saturated_ms"] > cell["base_ms"]:
            problems.append(
                f"esat: {name} modeled slower with saturation "
                f"({cell['saturated_ms']} ms vs {cell['base_ms']} ms) — "
                f"the dual-compile guard should have rejected the rewrite"
            )
        if cell["saturated_registers"] > cell["base_registers"]:
            problems.append(
                f"esat: {name} register pressure rose under saturation "
                f"({cell['base_registers']} -> "
                f"{cell['saturated_registers']})"
            )
    if row["geomean_speedup"] < 1.0:
        problems.append(
            f"esat: geomean model speedup {row['geomean_speedup']} < 1.0"
        )
    if len(row["register_wins"]) < 3:
        problems.append(
            f"esat: only {len(row['register_wins'])} kernel(s) reduced "
            f"register pressure (expected >= 3): {row['register_wins']}"
        )
    problems += _check_warm_retune("esat", row, row["tune_trials"])
    return problems


def collect_hotpath() -> dict:
    """The generated-code hot-path row (``docs/execution.md``).

    Two measurements, two gates:

    * **warm compile p50** — repeat ``compile_source`` of an
      already-compiled benchmark through a disk-backed session; the
      memory tier must answer in under a millisecond at the median;
    * **codegen speedup** — min-of-5 warm launches of every benchmark
      the generated-NumPy tier covers, against min-of-5 runs of the
      scalar interpreter; the geomean and every kernel's own ratio
      (``per_benchmark_speedup``) must be at least break-even.
    """
    import math
    import statistics
    import tempfile

    from repro.bench.args import build_test_args, copy_args
    from repro.gpu.vector_exec import execute_kernel

    load_all()
    specs = list(SPEC.all()) + list(NAS.all())

    # Warm-compile latency through the two-tier cache.
    with tempfile.TemporaryDirectory(prefix="repro-hotpath-") as tmp:
        spec = SPEC.get("303.ostencil")
        session = CompilerSession(cache_dir=tmp)
        session.compile_source(spec.source, SMALL_DIM_SAFARA)  # cold
        samples = []
        for _ in range(21):
            t0 = time.perf_counter()
            session.compile_source(spec.source, SMALL_DIM_SAFARA)
            samples.append((time.perf_counter() - t0) * 1000.0)
        warm_p50 = statistics.median(samples)

    # Generated code vs the scalar oracle, warm launches.
    speedups: dict[str, float] = {}
    for spec in specs:
        fn, args = build_test_args(spec)
        key = f"hotpath:{spec.name}"
        _, _, info = execute_kernel(fn, copy_args(args), content_key=key)
        if info.used != "codegen":
            continue  # EP-family kernels fall back by design

        def best(executor: str, **kw) -> float:
            times = []
            for _ in range(5):
                run_args = copy_args(args)
                t0 = time.perf_counter()
                execute_kernel(fn, run_args, executor=executor, **kw)
                times.append(time.perf_counter() - t0)
            return min(times)

        c = best("codegen", content_key=key)
        s = best("scalar")
        speedups[spec.name] = round(s / c, 4)
    geomean = math.exp(
        sum(math.log(s) for s in speedups.values()) / len(speedups)
    )

    return {
        "benchmarks": sorted(speedups),
        # gated:
        "warm_compile_p50_ms": round(warm_p50, 4),
        "codegen_speedup_x": round(geomean, 4),
        # informational (wall clock):
        "per_benchmark_speedup": speedups,
    }


def check_hotpath(row: dict) -> list[str]:
    """Absolute gates on the generated-code hot-path row."""
    problems: list[str] = []
    if row["warm_compile_p50_ms"] >= 1.0:
        problems.append(
            f"hotpath: warm compile p50 is {row['warm_compile_p50_ms']} ms "
            f"(gate: < 1 ms) — the memory tier is not answering"
        )
    if row["codegen_speedup_x"] < 1.0:
        problems.append(
            f"hotpath: generated code is {row['codegen_speedup_x']}x the "
            f"scalar interpreter (gate: >= 1.0x geomean)"
        )
    slow = {
        name: x for name, x in row["per_benchmark_speedup"].items() if x < 1.0
    }
    if slow:
        problems.append(
            f"hotpath: generated code is slower than the scalar interpreter "
            f"on {', '.join(f'{n} ({x}x)' for n, x in sorted(slow.items()))} "
            f"(gate: >= 1.0x on every generated-code kernel)"
        )
    if len(row["benchmarks"]) < 14:
        problems.append(
            f"hotpath: only {len(row['benchmarks'])} benchmarks ran on "
            f"generated code (expected >= 14)"
        )
    return problems


#: Generous absolute bound on warm-path p99 under the quick open-loop
#: profile.  The point is catching a serving collapse (a stalled queue,
#: a lost worker pool), not micro-benchmarking the scheduler: a warm
#: seismic ``run`` costs ~80 ms of service time by itself, so typical
#: p99 lands around 150-200 ms and a real backlog blows far past this.
#: Cache regressions are gated separately by ``warm_hit_rate``.
SLO_P99_MS = 500.0


def collect_slo(attempts: int = 3) -> dict:
    """The open-loop serving SLO row (``docs/observability.md``).

    Runs the CI quick profile (fixed-rate arrivals over the two small
    runnable benchmarks, compile/run mix) against an in-process broker
    backed by a shared disk cache, prewarming every distinct source so
    the measured window is the warm path.  Latency is charged from each
    request's scheduled arrival (coordinated-omission safe); the report's
    quantiles come from log-spaced HDR histograms.

    The row measures wall clock, so a transient machine-load spike can
    push the tail past the gate on a healthy build: a failing attempt is
    re-measured (up to ``attempts`` total) and the first passing row —
    or the last failing one — is returned.  A genuine serving collapse
    fails every attempt.
    """
    row: dict = {}
    for _ in range(max(1, attempts)):
        row = _measure_slo()
        if not check_slo(row):
            return row
    return row


def _measure_slo() -> dict:
    import tempfile

    from repro.loadgen import quick_profile, run_load
    from repro.serve.broker import Broker, BrokerConfig

    profile = quick_profile(rate_rps=25.0, duration_s=1.2)
    with tempfile.TemporaryDirectory(prefix="repro-slo-bench-") as tmp:
        with Broker(BrokerConfig(workers=4, cache_dir=tmp)) as broker:
            # Warm the *run* path too: loadgen's prewarm covers compiles,
            # but the first run on each worker still pays the one-time
            # executor build.  The SLO is a steady-state property.
            run_load(
                quick_profile(rate_rps=20.0, duration_s=0.5), broker=broker
            )
            report = run_load(profile, broker=broker)
    overall = report["latency_ms"]["overall"]
    return {
        "profile": report["profile"],
        # gated:
        "error_rate": report["error_rate"],
        "warm_hit_rate": report["warm_hit_rate"],
        "p99_ms": overall["p99"],
        "coordinated_omission_safe": report["arrival"][
            "coordinated_omission_safe"
        ],
        "latency_basis": report["arrival"]["latency_basis"],
        # informational (wall clock):
        "scheduled": report["requests"]["scheduled"],
        "completed": report["requests"]["completed"],
        "offered_rps": report["offered_rps"],
        "throughput_rps": report["throughput_rps"],
        "p50_ms": overall["p50"],
        "p999_ms": overall["p999"],
        "degradation_rate": report["degradation_rate"],
    }


def check_slo(row: dict) -> list[str]:
    """Absolute gates on the open-loop serving row."""
    problems: list[str] = []
    if row["completed"] != row["scheduled"]:
        problems.append(
            f"slo: only {row['completed']} of {row['scheduled']} scheduled "
            f"requests completed"
        )
    if row["error_rate"] != 0.0:
        problems.append(
            f"slo: error rate {row['error_rate']} under the quick profile "
            f"(gate: 0) — the warm serving path is failing requests"
        )
    if row["warm_hit_rate"] is None or row["warm_hit_rate"] < 0.9:
        problems.append(
            f"slo: warm compile hit rate {row['warm_hit_rate']} "
            f"(gate: >= 0.9) — prewarmed sources are missing the cache"
        )
    if row["p99_ms"] >= SLO_P99_MS:
        problems.append(
            f"slo: warm p99 is {row['p99_ms']} ms (gate: < {SLO_P99_MS} ms) "
            f"— the serving hot path collapsed under open-loop load"
        )
    if row["latency_basis"] != "scheduled_arrival":
        problems.append(
            "slo: latency is not charged from scheduled arrivals — the "
            "row is vulnerable to coordinated omission and gates nothing"
        )
    return problems


#: Benchmark set for the ``cluster`` row: a five-benchmark mix whose
#: compile *and* run paths are healthy (EP/352.ep are compile-only in
#: the loadgen workload), wide enough that the rendezvous hash spreads
#: keys over both shards.
CLUSTER_BENCHMARKS = (
    "303.ostencil",
    "304.olbm",
    "314.omriq",
    "355.seismic",
    "BT",
)


def collect_cluster() -> dict:
    """The sharded-serving row (``docs/sharding.md``).

    Two sub-measurements against a two-shard consistent-hash router
    over one shared disk-cache namespace:

    * **steady** — the fixed-rate open-loop profile must finish with
      zero errors, a warm hit rate >= 0.9, a router p99 under the
      ``slo`` row's absolute bound, and per-shard balance within 20% of
      fair (``balance_coefficient <= 1.2``);
    * **churn** — the same load with a drain + restart of shard 1 fired
      mid-run must still complete every request with zero errors, and a
      post-restart compile probe over every distinct source must answer
      from a cache tier (>= 0.9 — the shared disk tier carries the
      restarted shard's keys, so a rolling restart loses no warm state).

    The row is measured once: every key is pinned to its rendezvous
    owner, so the steady balance is deterministic.
    """
    import tempfile
    import threading

    from repro.loadgen import LoadProfile, run_load, workload_specs
    from repro.serve.broker import BrokerConfig
    from repro.serve.cluster import ClusterConfig, Router

    profile = LoadProfile(
        rate_rps=25.0,
        duration_s=1.2,
        arrival="fixed",
        benchmarks=CLUSTER_BENCHMARKS,
        seed=0,
    )
    specs, _runnable = workload_specs(profile)
    row: dict = {"shards": 2, "profile": None}
    with tempfile.TemporaryDirectory(prefix="repro-cluster-bench-") as tmp:
        config = ClusterConfig(
            shards=2, broker=BrokerConfig(workers=2, cache_dir=tmp)
        )

        # 1. Steady state: balance and tail latency on the warm path.
        with Router(config) as router:
            # Warm the run path too (first run pays the executor build).
            run_load(
                LoadProfile(
                    rate_rps=20.0,
                    duration_s=0.5,
                    arrival="fixed",
                    benchmarks=CLUSTER_BENCHMARKS,
                    seed=1,
                ),
                broker=router,
            )
            report = run_load(profile, broker=router)
        balance = report["shard_balance"] or {}
        row["profile"] = report["profile"]
        row["steady"] = {
            "scheduled": report["requests"]["scheduled"],
            "completed": report["requests"]["completed"],
            "error_rate": report["error_rate"],
            "warm_hit_rate": report["warm_hit_rate"],
            "p99_ms": report["latency_ms"]["overall"]["p99"],
            "per_shard": report["per_shard"],
            "shards_seen": balance.get("shards_seen", 0),
            "balance_coefficient": balance.get("balance_coefficient"),
        }

        # 2. Churn: drain + restart shard 1 mid-run, same cache dir.
        with Router(config) as router:
            drain_result: dict = {}
            timer = threading.Timer(
                0.45,
                lambda: drain_result.update(
                    router.drain_shard(1, restart=True)
                ),
            )
            timer.start()
            report = run_load(profile, broker=router)
            timer.join()
            # Post-restart probe: shard 1 lost its memory tier, so a
            # cache answer here means the shared disk tier carried it.
            # The env must match loadgen's compile requests — the compile
            # cache keys on it (the routing key does not).
            warm = 0
            for spec in specs:
                env = {k: int(v) for k, v in spec.interpreter_args().items()}
                resp = router.handle(
                    {"op": "compile", "source": spec.source, "env": env}
                )
                if resp.get("ok") and resp["result"].get("cached") in (
                    "memory",
                    "disk",
                ):
                    warm += 1
            stanza = router.telemetry_snapshot()["cluster"]
        row["churn"] = {
            "scheduled": report["requests"]["scheduled"],
            "completed": report["requests"]["completed"],
            "error_rate": report["error_rate"],
            "drains": stanza["drains"],
            "restarts": stanza["restarts"],
            "drain_ms": drain_result.get("drain_ms"),
            "warm_after_restart": warm / len(specs),
        }
    return row


def check_cluster(row: dict) -> list[str]:
    """Absolute gates on the sharded-serving row."""
    problems: list[str] = []
    steady, churn = row["steady"], row["churn"]
    for name, part in (("steady", steady), ("churn", churn)):
        if part["completed"] != part["scheduled"]:
            problems.append(
                f"cluster: {name} run completed {part['completed']} of "
                f"{part['scheduled']} scheduled requests"
            )
        if part["error_rate"] != 0.0:
            problems.append(
                f"cluster: {name} run error rate {part['error_rate']} "
                f"(gate: 0) — the router is failing requests"
            )
    if steady["warm_hit_rate"] is None or steady["warm_hit_rate"] < 0.9:
        problems.append(
            f"cluster: steady warm hit rate {steady['warm_hit_rate']} "
            f"(gate: >= 0.9) — sharded routing is missing the cache"
        )
    if steady["p99_ms"] >= SLO_P99_MS:
        problems.append(
            f"cluster: router p99 is {steady['p99_ms']} ms "
            f"(gate: < {SLO_P99_MS} ms)"
        )
    if steady["shards_seen"] != row["shards"]:
        problems.append(
            f"cluster: load reached {steady['shards_seen']} of "
            f"{row['shards']} shards — routing is not spreading keys"
        )
    coefficient = steady["balance_coefficient"]
    if coefficient is None or coefficient > 1.2:
        problems.append(
            f"cluster: balance coefficient {coefficient} (gate: <= 1.2, "
            f"i.e. the busiest shard within 20% of its fair 1/N share)"
        )
    if churn["drains"] < 1 or churn["restarts"] < 1:
        problems.append(
            f"cluster: mid-run churn recorded {churn['drains']} drains / "
            f"{churn['restarts']} restarts (expected >= 1 each) — the "
            f"drain never happened, the run gated nothing"
        )
    if churn["warm_after_restart"] < 0.9:
        problems.append(
            f"cluster: warm hit rate after drain+restart is "
            f"{churn['warm_after_restart']} (gate: >= 0.9) — the shared "
            f"disk tier did not carry the restarted shard's keys"
        )
    return problems


#: Published MI200-series occupancy ladder: architected VGPRs per lane
#: -> resident wavefronts per SIMD (the CDNA2 rule the `fleet` row
#: gates; the same table is unit-tested in tests/gpu/test_arch_registry.py).
CDNA2_EXPECTED_WAVES = {
    64: 8, 72: 7, 84: 6, 102: 5, 128: 4, 170: 3, 256: 2,
}


def collect_fleet() -> dict:
    """The multi-arch fleet row (``docs/serving.md``): the CDNA2
    occupancy table, and the placement guarantee over the full benchmark
    suite — routing each benchmark across a two-arch fleet must never
    model slower than the single-arch (Kepler) default.
    """
    from repro.gpu.arch import CDNA2_MI250
    from repro.serve.placement import choose_placement

    load_all()
    specs = list(SPEC.all()) + list(NAS.all())
    fleet = ("kepler-k20xm", "cdna2-mi250")

    session = CompilerSession()
    placements: dict[str, dict] = {}
    for spec in specs:
        decision = choose_placement(
            session,
            spec.source,
            SMALL_DIM_SAFARA,
            fleet,
            dict(spec.env),
            launches=spec.launches,
        )
        default_ms = next(
            c.model_ms for c in decision.candidates if c.arch == fleet[0]
        )
        placements[spec.name] = {
            "arch": decision.arch,
            "model_ms": round(decision.model_ms, 6),
            "single_arch_default_ms": round(default_ms, 6),
        }
    return {
        "fleet": list(fleet),
        "config": SMALL_DIM_SAFARA.name,
        # gated (deterministic):
        "cdna2_waves_per_simd": {
            str(vgprs): CDNA2_MI250.waves_per_simd(vgprs)
            for vgprs in CDNA2_EXPECTED_WAVES
        },
        "placements": placements,
    }


def check_fleet(row: dict) -> list[str]:
    """Absolute gates on the fleet row."""
    problems: list[str] = []
    for vgprs, expected in CDNA2_EXPECTED_WAVES.items():
        got = row["cdna2_waves_per_simd"][str(vgprs)]
        if got != expected:
            problems.append(
                f"fleet: CDNA2 occupancy at {vgprs} VGPRs is {got} "
                f"waves/SIMD (published limit: {expected})"
            )
    for name, cell in row["placements"].items():
        if cell["model_ms"] > cell["single_arch_default_ms"]:
            problems.append(
                f"fleet: {name} routed to {cell['arch']} at "
                f"{cell['model_ms']} ms — worse than the single-arch "
                f"default ({cell['single_arch_default_ms']} ms)"
            )
    return problems


def check_tune(row: dict) -> list[str]:
    """Absolute gates on the autotuning row."""
    problems: list[str] = []
    if row["tuned_ms"] > row["default_ms"]:
        problems.append(
            f"tune: tuned config is slower than the default "
            f"({row['tuned_ms']} ms vs {row['default_ms']} ms) — the "
            f"reference-first guarantee is broken"
        )
    problems += _check_warm_retune("tune", row, row["trials"])
    return problems


def check_serve(serve: dict) -> list[str]:
    """Absolute (not baseline-relative) gates on the serve row."""
    problems: list[str] = []
    if serve["cold_backend_compilations"] <= 0:
        problems.append(
            "serve: cold pass performed no backend compilations — the "
            "SAFARA feedback loop did not run, the row measures nothing"
        )
    if serve["warm_backend_compilations"] > 0:
        problems.append(
            f"serve: warm restart re-ran the feedback loop "
            f"({serve['warm_backend_compilations']} backend compilations; "
            f"expected 0) — the disk cache did not serve the programs"
        )
    expected_hits = len(serve["benchmarks"])
    if serve["disk_hits"] != expected_hits:
        problems.append(
            f"serve: warm restart hit the disk cache {serve['disk_hits']} "
            f"times (expected {expected_hits})"
        )
    if serve["warm_timing_walks"] != 0:
        problems.append(
            f"serve: warm restart walked the VIR to time "
            f"{serve['warm_timing_walks']} kernels (expected 0) — the "
            f"timing verdicts stored at compile were not used"
        )
    if serve["warm_detail_loads"] != 0:
        problems.append(
            f"serve: warm restart unpickled {serve['warm_detail_loads']} "
            f"detail sections (expected 0) — a disk hit read more than it needs"
        )
    differ = sorted(
        name
        for name, ms in serve["cold_model_ms"].items()
        if serve["warm_model_ms"].get(name) != ms
    )
    if differ:
        problems.append(
            f"serve: warm restart modeled a different model_ms than the "
            f"cold pass for {', '.join(differ)}"
        )
    return problems


def compare(old: dict, new: dict) -> list[str]:
    """Regression messages over the key intersection of two ledgers."""
    problems: list[str] = []
    old_entries = old.get("entries", {})
    for key, entry in new["entries"].items():
        prev = old_entries.get(key)
        if prev is None:
            continue
        checks = (
            # (metric, regression == new value worse when larger?)
            ("model_ms", True),
            ("speedup_over_base", False),
            ("max_registers", True),
        )
        for metric, larger_is_worse in checks:
            was, now = prev.get(metric), entry.get(metric)
            if not was or now is None:
                continue
            ratio = now / was if larger_is_worse else was / now
            if ratio > 1.0 + THRESHOLD:
                problems.append(
                    f"{key}: {metric} regressed {was} -> {now} "
                    f"({(ratio - 1.0) * 100.0:.1f}% past the "
                    f"{THRESHOLD * 100.0:.0f}% gate)"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI subset of benchmarks/configs"
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=LEDGER,
        help=f"ledger path (default: {LEDGER})",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        help="write a Chrome trace_event file of the whole sweep",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="compare only; leave the ledger untouched",
    )
    opts = parser.parse_args(argv)

    if opts.trace:
        from repro.obs.chrome import write_chrome_trace
        from repro.obs.tracer import Tracer

        tracer = Tracer(enabled=True)
        with tracer.activate():
            doc = collect(opts.quick)
        write_chrome_trace(opts.trace, tracer)
        print(f"trace: {len(tracer.spans)} spans -> {opts.trace}")
    else:
        doc = collect(opts.quick)

    meta = doc["meta"]
    print(
        f"{len(doc['entries'])} cells over {meta['benchmarks']} benchmarks x "
        f"{len(meta['configs'])} configs in {meta['wall_ms']:.0f} ms "
        f"({meta['cache']['hits']} cache hits)"
    )

    doc["serve"] = collect_serve()
    serve_problems = check_serve(doc["serve"])
    if serve_problems:
        print(f"\nFAIL: serve warm-restart gate:", file=sys.stderr)
        for p in serve_problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(
        f"serve: warm restart {doc['serve']['warm_compile_ms']:.0f} ms vs "
        f"{doc['serve']['cold_compile_ms']:.0f} ms cold, "
        f"0 backend compilations over {doc['serve']['disk_hits']} disk hits"
    )

    doc["tune"] = collect_tune()
    tune_problems = check_tune(doc["tune"])
    if tune_problems:
        print(f"\nFAIL: tune gate:", file=sys.stderr)
        for p in tune_problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(
        f"tune: {doc['tune']['benchmark']} best "
        f"{doc['tune']['tuned_ms']:.3f} ms vs default "
        f"{doc['tune']['default_ms']:.3f} ms "
        f"({doc['tune']['speedup_over_default']:.3f}x, "
        f"{doc['tune']['trials']} trials; warm re-tune "
        f"{doc['tune']['warm_disk_hits']} disk hits, 0 compilations)"
    )

    doc["esat"] = collect_esat()
    esat_problems = check_esat(doc["esat"])
    if esat_problems:
        print(f"\nFAIL: esat gate:", file=sys.stderr)
        for p in esat_problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    wins = doc["esat"]["register_wins"]
    print(
        f"esat: {len(doc['esat']['kernels'])} benchmarks never worse, "
        f"geomean {doc['esat']['geomean_speedup']:.4f}x, register "
        f"pressure down on {len(wins)} ({', '.join(wins)}); widened-space "
        f"warm re-tune {doc['esat']['warm_disk_hits']} disk hits, "
        f"0 compilations"
    )

    doc["hotpath"] = collect_hotpath()
    hotpath_problems = check_hotpath(doc["hotpath"])
    if hotpath_problems:
        print(f"\nFAIL: hotpath gate:", file=sys.stderr)
        for p in hotpath_problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(
        f"hotpath: warm compile p50 "
        f"{doc['hotpath']['warm_compile_p50_ms']:.3f} ms, codegen "
        f"{doc['hotpath']['codegen_speedup_x']:.3f}x over the scalar "
        f"interpreter ({len(doc['hotpath']['benchmarks'])} benchmarks)"
    )

    doc["slo"] = collect_slo()
    slo_problems = check_slo(doc["slo"])
    if slo_problems:
        print(f"\nFAIL: slo gate:", file=sys.stderr)
        for p in slo_problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(
        f"slo: {doc['slo']['completed']} requests at "
        f"{doc['slo']['offered_rps']:.0f} rps open-loop, 0 errors, warm hit "
        f"rate {doc['slo']['warm_hit_rate']:.2f}, p99 "
        f"{doc['slo']['p99_ms']:.1f} ms (gate < {SLO_P99_MS:.0f} ms)"
    )

    doc["fleet"] = collect_fleet()
    fleet_problems = check_fleet(doc["fleet"])
    if fleet_problems:
        print(f"\nFAIL: fleet gate:", file=sys.stderr)
        for p in fleet_problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    routed = doc["fleet"]["placements"]
    by_arch: dict[str, int] = {}
    for cell in routed.values():
        by_arch[cell["arch"]] = by_arch.get(cell["arch"], 0) + 1
    chosen = ", ".join(f"{n} -> {a}" for a, n in sorted(by_arch.items()))
    print(
        f"fleet: CDNA2 occupancy table matches the published limits; "
        f"{len(routed)} benchmarks routed ({chosen}), none worse than "
        f"the single-arch default"
    )

    doc["cluster"] = collect_cluster()
    cluster_problems = check_cluster(doc["cluster"])
    if cluster_problems:
        print(f"\nFAIL: cluster gate:", file=sys.stderr)
        for p in cluster_problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    steady = doc["cluster"]["steady"]
    churn = doc["cluster"]["churn"]
    print(
        f"cluster: {steady['completed']} requests over 2 shards, 0 errors, "
        f"balance {steady['balance_coefficient']:.2f}, p99 "
        f"{steady['p99_ms']:.1f} ms; mid-run drain+restart kept 0 errors "
        f"with warm hit rate {churn['warm_after_restart']:.2f} after "
        f"rejoin"
    )

    if opts.output.exists():
        old = json.loads(opts.output.read_text())
        problems = compare(old, doc)
        if problems:
            print(f"\nFAIL: {len(problems)} regression(s) vs {opts.output}:",
                  file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            return 1
        shared = len(set(old.get("entries", {})) & set(doc["entries"]))
        print(f"no regressions over {shared} shared cells")
        # A quick run only covers a subset of cells: keep the cells it did
        # not re-measure so the full baseline survives partial updates.
        doc["entries"] = {**old.get("entries", {}), **doc["entries"]}
    else:
        print(f"no previous ledger at {opts.output}; writing a baseline")

    if not opts.no_write:
        opts.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {opts.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
