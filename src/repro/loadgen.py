"""Open-loop load generation and SLO reporting for the serving tier.

The point of an *open-loop* generator is that arrivals follow a schedule
fixed **before** the run — a Poisson process or a fixed-rate pulse at
``rate_rps`` — and a slow server does not slow the schedule down.  The
classic alternative (send, wait, send again — a closed loop) suffers
*coordinated omission*: every stall in the server also pauses the load,
so exactly the latencies that matter never get measured.  Here:

* the full arrival schedule (time offset + concrete request) is built up
  front from a seeded RNG — deterministic per ``(profile, registry)``;
* each request's latency is measured from its **scheduled** arrival
  time, not from the moment the sender managed to write it — if the
  sender falls behind, the backlog is charged to the requests that
  suffered it;
* latencies land in :class:`~repro.obs.hist.LogHistogram` (per op and
  overall), so the report's p50/p99/p999 are quantile-exact.

Workloads mix ``compile`` / ``run`` / ``tune`` ops over the benchmark
suite (:mod:`repro.bench`) at test scale.  Targets are either a live
in-process :class:`~repro.serve.broker.Broker` (anything with a
``submit(request) -> Future`` method works) or a unix-socket daemon
(``repro serve --socket``) via :mod:`repro.serve.client`.

``repro loadgen`` drives this from the CLI and writes the SLO report
JSON; ``benchmarks/regress.py`` gates the ``slo`` ledger row on it.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from random import Random

from .obs.hist import LogHistogram

#: Ops a profile mix may name, with their default weights.
DEFAULT_MIX = {"compile": 0.5, "run": 0.5}


@dataclass(frozen=True, slots=True)
class LoadProfile:
    """One load experiment: arrival process, rate, mix, duration."""

    #: Offered arrival rate (requests per second).
    rate_rps: float = 50.0
    #: Experiment length in seconds — ``floor(rate·duration)`` arrivals.
    duration_s: float = 2.0
    #: ``"poisson"`` (exponential gaps) or ``"fixed"`` (uniform gaps).
    arrival: str = "poisson"
    #: Op mix, weights normalised internally (``compile``/``run``/``tune``).
    mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    #: Benchmark names to draw from (``None`` → every suite benchmark
    #: usable for the op; see :func:`workload_specs`).
    benchmarks: tuple[str, ...] | None = None
    #: Per-request deadline passed through to the broker (``None`` →
    #: broker default).
    deadline_ms: float | None = None
    #: Compile every distinct source once before the clock starts, so
    #: the measured run exercises the warm path (the SLO of a serving
    #: tier is a warm-cache property; cold compiles are a separate row).
    prewarm: bool = True
    #: Tune budget when the mix includes ``tune`` (kept tiny: tuning is
    #: minutes at default budgets).
    tune_budget: int = 2
    #: ``tenant`` protocol field stamped on every request (``None`` →
    #: anonymous) — lets a run exercise the cluster router's per-tenant
    #: admission quotas.
    tenant: str | None = None
    #: Schedule RNG seed — same seed, same arrivals, same request bodies.
    seed: int = 0

    def as_dict(self) -> dict:
        return {
            "rate_rps": self.rate_rps,
            "duration_s": self.duration_s,
            "arrival": self.arrival,
            "mix": dict(self.mix),
            "benchmarks": list(self.benchmarks) if self.benchmarks else None,
            "deadline_ms": self.deadline_ms,
            "prewarm": self.prewarm,
            "tune_budget": self.tune_budget,
            "tenant": self.tenant,
            "seed": self.seed,
        }


def quick_profile(**overrides) -> LoadProfile:
    """The CI smoke profile: short, fixed-rate, compile/run mix over two
    small benchmarks — finishes in seconds on a cold container."""
    defaults = dict(
        rate_rps=40.0,
        duration_s=1.5,
        arrival="fixed",
        benchmarks=("303.ostencil", "355.seismic"),
        seed=0,
    )
    defaults.update(overrides)
    return LoadProfile(**defaults)


# -- workload construction ---------------------------------------------------


def workload_specs(profile: LoadProfile):
    """The benchmark specs this profile draws requests from.

    ``run``/``tune`` requests execute the kernel functionally with
    generic random arrays, so specs that need hand-built arguments
    (index arrays) are compile-only; pointer-parameter specs are fine —
    their ``__len_*`` sizes are derived from the spec's length
    expressions in :func:`_request_for`.
    """
    from .bench import NAS, SPEC, load_all

    load_all()
    specs = list(SPEC.all()) + list(NAS.all())
    if profile.benchmarks is not None:
        wanted = set(profile.benchmarks)
        specs = [s for s in specs if s.name in wanted]
        missing = wanted - {s.name for s in specs}
        if missing:
            raise ValueError(f"unknown benchmarks: {sorted(missing)}")
    if not specs:
        raise ValueError("profile selects no benchmarks")
    runnable = [s for s in specs if s.make_test_args is None]
    return specs, runnable


def _request_for(op: str, spec, profile: LoadProfile) -> dict:
    # Scalar arguments keep their type (EP's float ``ainv`` must not
    # truncate to 0); only the sizes behind ``__len_*`` are integers.
    env = spec.interpreter_args()
    if op in ("run", "tune") and spec.pointer_lens:
        sizes = {k: int(v) for k, v in env.items() if v == int(v)}
        env.update(
            {f"__len_{k}": v for k, v in spec.pointer_sizes(sizes).items()}
        )
    request: dict = {"op": op, "source": spec.source, "env": env}
    if profile.deadline_ms is not None:
        request["deadline_ms"] = profile.deadline_ms
    if op == "tune":
        request["budget"] = profile.tune_budget
        request["strategy"] = "beam"
    if profile.tenant is not None:
        request["tenant"] = profile.tenant
    request["_benchmark"] = spec.qualified_name  # stripped before sending
    return request


def build_schedule(profile: LoadProfile) -> list[tuple[float, dict]]:
    """The deterministic arrival schedule: ``(offset_s, request)`` pairs,
    sorted by offset.  Everything random — gaps, op choice, benchmark
    choice — comes from one ``Random(profile.seed)``."""
    if profile.arrival not in ("poisson", "fixed"):
        raise ValueError(
            f"arrival must be 'poisson' or 'fixed', got {profile.arrival!r}"
        )
    if profile.rate_rps <= 0 or profile.duration_s <= 0:
        raise ValueError("rate_rps and duration_s must be positive")
    ops = sorted(profile.mix)
    weights = [profile.mix[op] for op in ops]
    if not ops or min(weights) < 0 or sum(weights) <= 0:
        raise ValueError("mix must contain non-negative weights summing > 0")
    specs, runnable = workload_specs(profile)
    if not runnable and any(op != "compile" for op in ops):
        raise ValueError(
            "mix includes run/tune but no selected benchmark is "
            "functionally runnable (they all need hand-built arguments)"
        )
    rng = Random(profile.seed)
    n = int(profile.rate_rps * profile.duration_s)
    schedule: list[tuple[float, dict]] = []
    t = 0.0
    for i in range(n):
        if profile.arrival == "fixed":
            offset = i / profile.rate_rps
        else:
            t += rng.expovariate(profile.rate_rps)
            offset = t
        op = rng.choices(ops, weights=weights)[0]
        spec = rng.choice(specs if op == "compile" else runnable)
        request = _request_for(op, spec, profile)
        request["id"] = i
        schedule.append((offset, request))
    return schedule


# -- recording ---------------------------------------------------------------


class _Recorder:
    """Thread-safe accumulation of one run's outcomes."""

    def __init__(self, ops):
        self.overall = LogHistogram("loadgen.latency_ms")
        self.per_op = {op: LogHistogram(f"loadgen.latency_ms.{op}") for op in ops}
        self.errors_by_code: dict[str, int] = {}
        self.completed = 0
        self.ok = 0
        self.degraded = 0
        self.warm_hits = 0
        self.compile_ok = 0
        #: Shard index → answered requests, when the target annotates
        #: responses with ``shard`` (the cluster router does; a plain
        #: broker leaves the map empty).
        self.per_shard: dict[int, int] = {}
        self._lock = threading.Lock()

    def record(self, op: str, latency_ms: float, response: dict) -> None:
        with self._lock:
            self.completed += 1
            self.overall.observe(latency_ms)
            hist = self.per_op.get(op)
            if hist is not None:
                hist.observe(latency_ms)
            shard = response.get("shard")
            if isinstance(shard, int):
                self.per_shard[shard] = self.per_shard.get(shard, 0) + 1
            if response.get("ok"):
                self.ok += 1
                result = response.get("result") or {}
                executor = result.get("executor") or {}
                if executor.get("degraded") or executor.get("fallback_reason"):
                    self.degraded += 1
                if op == "compile":
                    self.compile_ok += 1
                    if result.get("cached") in ("memory", "disk"):
                        self.warm_hits += 1
            else:
                code = (response.get("error") or {}).get("code", "unknown")
                self.errors_by_code[code] = self.errors_by_code.get(code, 0) + 1


# -- execution ---------------------------------------------------------------


def _prewarm(send, schedule) -> int:
    """Compile every distinct source once, synchronously; returns the
    number of distinct sources warmed."""
    seen: dict[str, dict] = {}
    for _, request in schedule:
        src = request["source"]
        if src not in seen:
            # Strip the run-only ``__len_*`` pointer sizes: the compile
            # cache key includes the env, and compile requests carry the
            # bare problem sizes.
            env = {
                k: v
                for k, v in request["env"].items()
                if not k.startswith("__len_")
            }
            seen[src] = {
                "id": f"prewarm-{len(seen)}",
                "op": "compile",
                "source": src,
                "env": env,
            }
            if "tenant" in request:
                seen[src]["tenant"] = request["tenant"]
    for request in seen.values():
        send(request)
    return len(seen)


def run_load(
    profile: LoadProfile,
    *,
    broker=None,
    socket_path: str | None = None,
    on_progress=None,
) -> dict:
    """Run ``profile`` against a target and return the SLO report dict.

    Exactly one of ``broker`` (an in-process
    :class:`~repro.serve.broker.Broker`, or any object with a
    compatible ``submit``) and ``socket_path`` (a ``repro serve
    --socket`` daemon) must be given.
    """
    if (broker is None) == (socket_path is None):
        raise ValueError("pass exactly one of broker= or socket_path=")
    schedule = build_schedule(profile)
    recorder = _Recorder(sorted(profile.mix))

    if broker is not None:
        report = _run_inprocess(profile, schedule, recorder, broker, on_progress)
    else:
        report = _run_socket(profile, schedule, recorder, socket_path, on_progress)
    return report


def _strip(request: dict) -> tuple[str, dict]:
    """(op, wire-ready request) — drops generator-internal fields."""
    wire = {k: v for k, v in request.items() if not k.startswith("_")}
    return request["op"], wire


def _shard_balance(per_shard: dict[int, int]) -> dict | None:
    """The per-shard balance stanza: fractions plus a single balance
    coefficient — the busiest shard's load relative to the uniform
    ``1/N`` share (1.0 = perfectly balanced, 2.0 = one shard carries
    double its share).  ``None`` when the target reported no shards."""
    if not per_shard:
        return None
    total = sum(per_shard.values())
    n = len(per_shard)
    counts = list(per_shard.values())
    return {
        "shards_seen": n,
        "fractions": {
            str(k): round(v / total, 4) for k, v in sorted(per_shard.items())
        },
        "balance_coefficient": round(max(counts) * n / total, 4),
        "max_abs_deviation": round(
            max(abs(v / total - 1.0 / n) for v in counts), 4
        ),
    }


def _report(
    profile: LoadProfile,
    schedule,
    recorder: _Recorder,
    wall_s: float,
    prewarmed: int,
) -> dict:
    scheduled = len(schedule)
    errors = sum(recorder.errors_by_code.values())
    queue_full = recorder.errors_by_code.get("queue_full", 0)
    report = {
        "profile": profile.as_dict(),
        "requests": {
            "scheduled": scheduled,
            "completed": recorder.completed,
            "ok": recorder.ok,
            "errors": errors,
        },
        "prewarmed_sources": prewarmed,
        "wall_s": round(wall_s, 4),
        "offered_rps": round(scheduled / profile.duration_s, 3),
        "throughput_rps": round(recorder.completed / wall_s, 3) if wall_s else 0.0,
        "latency_ms": {
            "overall": recorder.overall.as_dict(),
            "per_op": {
                op: hist.as_dict()
                for op, hist in recorder.per_op.items()
                if hist.count
            },
        },
        "errors_by_code": dict(sorted(recorder.errors_by_code.items())),
        "error_rate": round(errors / scheduled, 4) if scheduled else 0.0,
        "queue_full_rate": round(queue_full / scheduled, 4) if scheduled else 0.0,
        "degradation_rate": (
            round(recorder.degraded / recorder.completed, 4)
            if recorder.completed
            else 0.0
        ),
        #: Fraction of ok compile responses answered from a warm tier
        #: (memory or disk); ``None`` when the mix sent no compiles.
        "warm_hit_rate": (
            round(recorder.warm_hits / recorder.compile_ok, 4)
            if recorder.compile_ok
            else None
        ),
        #: Answered-request counts by shard index, and the balance
        #: stanza derived from them — populated when the target is a
        #: cluster router (responses carry ``shard``), absent counts /
        #: ``None`` against a single broker.
        "per_shard": {
            str(k): v for k, v in sorted(recorder.per_shard.items())
        },
        "shard_balance": _shard_balance(recorder.per_shard),
        "arrival": {
            "kind": profile.arrival,
            "latency_basis": "scheduled_arrival",
            "coordinated_omission_safe": True,
        },
    }
    return report


def _run_inprocess(profile, schedule, recorder, broker, on_progress) -> dict:
    prewarmed = 0
    if profile.prewarm:
        prewarmed = _prewarm(
            lambda request: broker.submit(request).result(), schedule
        )
    done = threading.Event()
    outstanding = [len(schedule)]
    lock = threading.Lock()
    t0 = time.monotonic()

    def finish(op: str, offset: float, future) -> None:
        latency_ms = ((time.monotonic() - t0) - offset) * 1000.0
        recorder.record(op, latency_ms, future.result())
        with lock:
            outstanding[0] -= 1
            remaining = outstanding[0]
        if on_progress is not None:
            on_progress(len(schedule) - remaining, len(schedule))
        if remaining == 0:
            done.set()

    for offset, request in schedule:
        op, wire = _strip(request)
        delay = offset - (time.monotonic() - t0)
        if delay > 0:
            time.sleep(delay)
        future = broker.submit(wire)
        future.add_done_callback(
            lambda f, op=op, offset=offset: finish(op, offset, f)
        )
    done.wait()
    return _report(profile, schedule, recorder, time.monotonic() - t0, prewarmed)


def _run_socket(profile, schedule, recorder, socket_path, on_progress) -> dict:
    from .serve.client import SocketClient

    client = SocketClient(socket_path, timeout=None)
    try:
        prewarmed = 0
        if profile.prewarm:
            prewarmed = _prewarm(client.request, schedule)
        by_id = {
            request["id"]: (request["op"], offset)
            for offset, request in schedule
        }
        t0 = time.monotonic()
        failure: list[BaseException] = []

        def reader() -> None:
            received = 0
            try:
                while received < len(schedule):
                    response = client.recv()
                    meta = by_id.get(response.get("id"))
                    if meta is None:
                        continue  # not ours (e.g. stray watch frame)
                    op, offset = meta
                    latency_ms = ((time.monotonic() - t0) - offset) * 1000.0
                    recorder.record(op, latency_ms, response)
                    received += 1
                    if on_progress is not None:
                        on_progress(received, len(schedule))
            except BaseException as exc:  # surfaced to the caller below
                failure.append(exc)

        thread = threading.Thread(target=reader, name="loadgen-reader")
        thread.start()
        for offset, request in schedule:
            _, wire = _strip(request)
            delay = offset - (time.monotonic() - t0)
            if delay > 0:
                time.sleep(delay)
            client.send(wire)
        thread.join()
        if failure:
            raise failure[0]
        return _report(
            profile, schedule, recorder, time.monotonic() - t0, prewarmed
        )
    finally:
        client.close()


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
