"""The three benchmark workloads.  NOTES.md says why each exists.

Every workload is a closed loop driven by one client, takes its order
from ``random.Random(seed)``, checks every op it times, and returns a
:class:`Outcome`.  With ``trace`` set, the same loop runs inside a
:class:`~ledger.Ledger` and the outcome carries per-layer numbers instead
of end-to-end ones.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from host import HostSpeed
from ledger import Ledger

ROOT = Path(__file__).resolve().parent.parent

#: Each workload builds its starting state this many times per run and
#: reports the median as ``setup_s``.
SETUP_REPEATS = 3
#: The configuration every ``serve-warm`` request compiles under (the
#: daemon's default).
SERVE_CONFIG = "OpenUH(SAFARA+small+dim)"
#: Worker threads of the ``serve-warm`` daemon.
SERVE_WORKERS = 2


@dataclass
class Tally:
    """Attempted and failed ops; a failed correctness check is a failed op."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    #: Exact-count guards that did not hold (any one fails the run).
    guards: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)
        return ok

    def guard(self, ok: bool, what: str) -> None:
        if not ok:
            self.guards.append(what)


@dataclass
class Outcome:
    #: End-to-end metrics (untraced run) or per-layer metrics (traced run).
    metrics: dict[str, tuple[float, str]]
    #: Traced run only: ``(layer, calls, median ms, total ms, share)`` rows.
    table: list[tuple] = field(default_factory=list)


def ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def latency_metrics(prefix: str, values: list[float]) -> dict:
    return {
        f"{prefix}.p50": (statistics.median(values), "ms"),
        f"{prefix}.p90": (p90(values), "ms"),
    }


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- the 64 compile jobs -----------------------------------------------------


@dataclass(frozen=True)
class Job:
    spec: object
    config: object
    #: The job's ``BENCH_obs.json`` entry: the paper's analytic result.
    expected: dict

    @property
    def name(self) -> str:
        return f"{self.spec.name}|{self.config.name}"


def load_jobs() -> list[Job]:
    """The (benchmark, configuration) jobs of ``BENCH_obs.json`` entries."""
    from repro.bench import NAS, SPEC, load_all
    from repro.compiler.options import ALL_CONFIGS

    load_all()
    specs = {s.name: s for s in [*SPEC.all(), *NAS.all()]}
    entries = json.loads((ROOT / "BENCH_obs.json").read_text())["entries"]
    jobs = []
    for key in sorted(entries):
        name, config = key.split("|")
        jobs.append(Job(specs[name], ALL_CONFIGS[config], entries[key]))
    if len(jobs) != 64 or len({j.spec.name for j in jobs}) != 16:
        raise RuntimeError(f"expected 16 benchmarks x 4 configs, got {len(jobs)} jobs")
    return jobs


def compile_job(session, job: Job, tally: Tally) -> list:
    """One compile op: ``compile_source`` then ``time_program``, checked
    against the job's recorded register count and model time."""
    spec = job.spec
    try:
        program = session.compile_source(spec.source, job.config, env=dict(spec.env))
        timing = session.time_program(program, dict(spec.env), launches=spec.launches)
    except Exception as exc:  # noqa: BLE001 — a failed op, counted and reported
        tally.check(False, f"{job.name}: {type(exc).__name__}: {exc}")
        return []
    registers = max(k.ptxas.registers for k in program.kernels)
    model_ms = round(timing.total_ms, 6)
    tally.check(
        registers == job.expected["max_registers"]
        and model_ms == job.expected["model_ms"],
        f"{job.name}: {registers} registers, {model_ms} ms; expected "
        f"{job.expected['max_registers']} registers, {job.expected['model_ms']} ms",
    )
    return program.kernels


#: Fewest timed rounds per run: ``run_ms`` percentiles need a few.
MIN_ROUNDS = 3


class CompileLoop:
    """Rounds of all 64 jobs in seed-shuffled order, each round in a fresh
    :class:`~repro.compiler.session.CompilerSession`.  Shared by
    ``sweep-cold`` (fresh empty cache directory per round) and
    ``restart-disk`` (a filled directory, so every compile is a disk hit)."""

    def __init__(self, jobs: list[Job], seed: int, tally: Tally, trace: bool):
        self.jobs = jobs
        self.rng = random.Random(seed)
        self.tally = tally
        self.host = HostSpeed()
        self.ledger = Ledger() if trace else None
        #: Timed op latencies and round times, scaled to the nominal host
        #: (raw wall times in a traced run, to match the layer times).
        self.latencies: list[float] = []
        self.rounds: list[float] = []
        #: Backend compilations of every round, the warm-up included.
        self.backends: list[int] = []

    def run(self, seconds: float, next_dir, check_round) -> None:
        """A dropped warm-up round, then whole rounds until ``seconds``
        pass.  ``check_round(stats)`` guards each round's session stats."""
        with self.ledger or contextlib.nullcontext():
            check_round(self.round(next_dir(), timed=False))
            if self.ledger is not None:
                self.ledger.clear()
            t0 = time.perf_counter()
            while len(self.rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
                check_round(self.round(next_dir(), timed=True))

    def round(self, cache_dir: Path, *, timed: bool) -> dict:
        """Run one round; returns its session's stats."""
        from repro.compiler.session import CompilerSession

        session = CompilerSession(cache_dir=str(cache_dir))
        disk_bytes = session.metrics.gauge("cache.disk.bytes")
        backend = 0
        latencies = []
        self.host.start()
        for job in self.rng.sample(self.jobs, len(self.jobs)):
            self.host.tick()
            bytes_before = disk_bytes.value
            compiled_before = session.stats.compilations
            t0 = time.perf_counter()
            kernels = compile_job(session, job, self.tally)
            latencies.append(ms_since(t0))
            compiled = session.stats.compilations > compiled_before
            if compiled:
                backend += sum(k.backend_compilations for k in kernels)
            if self.ledger is not None and timed:
                # Pass times come from the session's own compile trace,
                # the envelope size from the disk tier's byte gauge.
                if compiled:
                    for region in session.stats.traces[-1].regions:
                        for p in region.passes:
                            if p.ran:
                                self.ledger.add(f"pipeline.pass.{p.name}", p.wall_ms)
                if disk_bytes.value > bytes_before:
                    self.ledger.count("cache.envelope_bytes", disk_bytes.value - bytes_before)
        factor = self.host.scale() if self.ledger is None else 1.0
        if timed:
            self.latencies += [ms * factor for ms in latencies]
            self.rounds.append(sum(latencies) * factor)
        self.backends.append(backend)
        stats = session.stats_dict()
        if timed and self.ledger is not None:
            self.ledger.count("pipeline.backend_compilations", backend)
            self.ledger.count("cache.memory_hits", stats["cache"]["hits"])
            self.ledger.count("cache.disk_hits", stats["cache"]["disk"]["hits"])
        return stats

    def outcome(self, setup_s: float) -> Outcome:
        if self.ledger is not None:
            return traced_outcome(self.ledger, sum(self.latencies), {})
        return Outcome({
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(self.latencies) / (sum(self.rounds) / 1000.0), "1/s"),
            **latency_metrics("compile_ms", self.latencies),
            # On the compile workloads one "run" is one whole round: the
            # time a user waits for all 64 jobs.
            **latency_metrics("run_ms", self.rounds),
            "peak_rss_mb": (vmhwm_mb(), "MB"),
        })


# -- sweep-cold ----------------------------------------------------------------

#: A fresh compiler process up to the point where it can sweep: the
#: interpreter, the package, the suite registry and an empty session.
_COLD_PROCESS = """
import sys
sys.path.insert(0, "src")
from repro.bench import load_all
from repro.compiler.session import CompilerSession
load_all()
CompilerSession(cache_dir=sys.argv[1])
"""


def cold_process_setup(host: HostSpeed, work: Path) -> float:
    return statistics.median(
        host.seconds(
            lambda i=i: subprocess.run(
                [sys.executable, "-c", _COLD_PROCESS, str(work / f"setup{i}")],
                cwd=ROOT,
                check=True,
            )
        )
        for i in range(SETUP_REPEATS)
    )


def sweep_cold(seed: int, seconds: float, work: Path, tally: Tally, trace: bool) -> Outcome:
    loop = CompileLoop(load_jobs(), seed, tally, trace)
    setup_s = 0.0 if trace else cold_process_setup(loop.host, work)
    dirs = (work / f"sweep{i}" for i in itertools.count())

    def check_round(stats: dict) -> None:
        tally.guard(stats["compilations"] == 64, f"sweep round compiled {stats['compilations']}, not 64")
        tally.guard(stats["cache"]["hits"] == 0, "sweep round hit the memory cache")
        tally.guard(stats["cache"]["disk"]["hits"] == 0, "sweep round read the disk cache")

    loop.run(seconds, lambda: next(dirs), check_round)
    tally.guard(
        len(set(loop.backends)) == 1,
        f"backend compilations differ between rounds: {loop.backends}",
    )
    return loop.outcome(setup_s)


# -- restart-disk --------------------------------------------------------------


def restart_disk(seed: int, seconds: float, work: Path, tally: Tally, trace: bool) -> Outcome:
    from repro.codegen.numpy_source import function_cache
    from repro.compiler.session import CompilerSession

    loop = CompileLoop(load_jobs(), seed, tally, trace)
    dirs = [work / f"disk{i}" for i in range(1 if trace else SETUP_REPEATS)]

    def fill(cache_dir: Path) -> None:
        session = CompilerSession(cache_dir=str(cache_dir))
        for job in loop.jobs:
            loop.host.tick()
            compile_job(session, job, tally)

    setups = [loop.host.seconds(lambda d=d: fill(d)) for d in dirs]
    rotation = itertools.cycle(dirs)

    def next_dir() -> Path:
        # A restarted process has an empty generated-function cache, so
        # every round binds the persisted generated source again.
        function_cache().clear()
        return next(rotation)

    def check_round(stats: dict) -> None:
        tally.guard(stats["compilations"] == 0, f"restart round compiled {stats['compilations']} programs")
        tally.guard(not stats["pass_totals"], "restart round ran the pass pipeline")
        hits = stats["cache"]["disk"]["hits"]
        tally.guard(hits == 64, f"restart round had {hits} disk hits, not 64")

    loop.run(seconds, next_dir, check_round)
    tally.guard(not any(loop.backends), "restart rounds ran the backend")
    return loop.outcome(statistics.median(setups))


# -- serve-warm ----------------------------------------------------------------


def run_env(spec) -> dict:
    """A ``run`` request's env: test-scale sizes, the real (float) scalar
    arguments, and ``__len_*`` sizes for pointer parameters.  NOTES.md
    explains why this does not reuse the load generator's requests."""
    sizes = dict(spec.test_env or spec.env)
    env = {**sizes, **spec.scalar_args}
    env.update({f"__len_{k}": v for k, v in spec.pointer_sizes(sizes).items()})
    return env


@dataclass
class ServeJobs:
    compiles: dict  # spec name -> (request, expected max registers)
    runs: dict  # spec name -> (request, oracle stats)

    @classmethod
    def build(cls) -> "ServeJobs":
        from repro.gpu.interpreter import build_run_args, run_kernel
        from repro.ir.builder import build_module
        from repro.lang.parser import parse_program

        jobs = [j for j in load_jobs() if j.config.name == SERVE_CONFIG]
        compiles, runs = {}, {}
        for job in jobs:
            spec = job.spec
            compiles[spec.name] = (
                {"op": "compile", "source": spec.source, "env": dict(spec.env)},
                job.expected["max_registers"],
            )
            if spec.make_test_args is not None:
                continue  # needs hand-built index arrays; not runnable by request
            # The daemon sees the env after a JSON round trip; so does the oracle.
            env = json.loads(json.dumps(run_env(spec)))
            fn = build_module(parse_program(spec.source)).functions[0]
            _arrays, stats = run_kernel(fn, build_run_args(fn, env, seed=0))
            runs[spec.name] = (
                {"op": "run", "source": spec.source, "env": env},
                {
                    "loads": stats.loads,
                    "stores": stats.stores,
                    "flops": stats.flops,
                    "iterations": stats.iterations,
                },
            )
        return cls(compiles, runs)

    def stream_round(self, rng: random.Random, index: int) -> list[tuple[str, str]]:
        """Round ``index``: every spec compiled once and every runnable spec
        run once, plus extra runs (taken in turn, so every kernel gets the
        same share over a run) to make it 50/50, in seeded order."""
        ops = [("compile", n) for n in sorted(self.compiles)]
        runnable = sorted(self.runs)
        extra = len(self.compiles) - len(runnable)
        ops += [("run", n) for n in runnable]
        ops += [("run", runnable[(index * extra + k) % len(runnable)]) for k in range(extra)]
        rng.shuffle(ops)
        return ops

    def request(self, op: str, name: str) -> dict:
        table = self.compiles if op == "compile" else self.runs
        return dict(table[name][0])

    def check(self, op: str, name: str, response: dict, tally: Tally, *, timed: bool) -> None:
        if not response.get("ok"):
            tally.check(False, f"{op} {name}: {response.get('error')}")
            return
        result = response["result"]
        if op == "compile":
            registers = max(k["registers"] for k in result["kernels"])
            expected = self.compiles[name][1]
            tally.check(registers == expected, f"compile {name}: {registers} registers, expected {expected}")
            if timed:
                tally.guard(result["cached"] == "memory", f"timed compile {name} answered from {result['cached']!r}")
        else:
            expected = self.runs[name][1]
            tally.check(result["stats"] == expected, f"run {name}: stats {result['stats']} != oracle {expected}")


class Daemon:
    """``repro serve --socket`` as a subprocess, with one client connection."""

    def __init__(self, work: Path, index: int):
        from repro.serve.client import SocketClient

        self.dir = work / f"serve{index}"
        self.dir.mkdir(parents=True)
        # Relative to ROOT (the daemon's and our working directory): unix
        # socket paths are limited to about 100 bytes.
        self.socket = os.path.relpath(self.dir / "d.sock", ROOT)
        self.log = open(self.dir / "daemon.log", "w")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", self.socket,
                "--workers", str(SERVE_WORKERS),
                "--cache-dir", str(self.dir / "cache"),
            ],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self.log,
        )
        self.client = None
        try:
            deadline = time.monotonic() + 60.0
            while not os.path.exists(self.socket):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    log = Path(self.log.name).read_text()[-2000:]
                    raise RuntimeError(f"daemon did not start:\n{log}")
                time.sleep(0.01)
            self.client = SocketClient(self.socket, timeout=120.0)
        except BaseException:
            self.close()
            raise

    def metrics(self) -> dict:
        return self.client.stats()["result"]["metrics"]

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.shutdown()
                self.client.close()
                self.proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 — whatever went wrong, it is killed below
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.log.close()


def warm_compiles(submit_burst, jobs: ServeJobs, tally: Tally, tick=lambda: None) -> None:
    """Bring every compile into the memory tier of *both* worker sessions.

    Each worker thread owns a session, and one connection's sequential
    requests may be answered by either.  A session answers a key from
    somewhere other than memory exactly once (its first time), so when a
    key has had ``SERVE_WORKERS`` such answers, every session holds it.
    Bursts of pipelined copies make both workers take part.
    """
    fresh: Counter = Counter()
    for _attempt in range(20):
        pending = [n for n in sorted(jobs.compiles) if fresh[n] < SERVE_WORKERS]
        if not pending:
            return
        for name in pending:
            tick()
            for response in submit_burst(jobs.request("compile", name), 4):
                jobs.check("compile", name, response, tally, timed=False)
                if response.get("ok") and response["result"]["cached"] != "memory":
                    fresh[name] += 1
    raise RuntimeError(f"could not warm both worker sessions: {dict(fresh)}")


def warm_daemon(daemon: Daemon, jobs: ServeJobs, tally: Tally, host: HostSpeed) -> None:
    client = daemon.client

    def burst(request: dict, copies: int) -> list[dict]:
        for _ in range(copies):
            client.send(request)
        return [client.recv() for _ in range(copies)]

    warm_compiles(burst, jobs, tally, host.tick)
    for name in sorted(jobs.runs):
        host.tick()
        jobs.check("run", name, client.request(jobs.request("run", name)), tally, timed=False)


def warm_broker(broker, jobs: ServeJobs, tally: Tally) -> None:
    def burst(request: dict, copies: int) -> list[dict]:
        futures = [broker.submit(dict(request, id=i)) for i in range(copies)]
        return [f.result() for f in futures]

    warm_compiles(burst, jobs, tally)
    for name in sorted(jobs.runs):
        jobs.check("run", name, broker.handle(jobs.request("run", name)), tally, timed=False)


def _counter(metrics: dict, name: str) -> float:
    return metrics.get(name, {}).get("value", 0)


def _backend_work(metrics: dict) -> float:
    return _counter(metrics, "session.compilations") + sum(
        m.get("value", 0) for n, m in metrics.items() if n.endswith("backend_compilations")
    )


def serve_warm(seed: int, seconds: float, work: Path, tally: Tally, trace: bool) -> Outcome:
    jobs = ServeJobs.build()
    rng = random.Random(seed)
    host = HostSpeed()
    daemons: list[Daemon] = []
    broker = None

    def start_daemon(index: int) -> None:
        daemons.append(Daemon(work, index))
        warm_daemon(daemons[-1], jobs, tally, host)

    try:
        setups = []
        for i in range(1 if trace else SETUP_REPEATS):
            if daemons:
                daemons.pop().close()
            setups.append(host.seconds(lambda: start_daemon(i)))
        daemon = daemons[-1]
        client = daemon.client
        rounds = itertools.count()
        for op, name in jobs.stream_round(rng, next(rounds)):  # warm-up, not timed
            jobs.check(op, name, client.request(jobs.request(op, name)), tally, timed=False)

        if trace:
            from repro.serve.broker import Broker, BrokerConfig

            broker = Broker(BrokerConfig(workers=SERVE_WORKERS, cache_dir=str(daemon.dir / "cache")))
            warm_broker(broker, jobs, tally)
            return _serve_traced(daemon, broker, jobs, rng, rounds, seconds, tally)

        before = daemon.metrics()
        latencies: dict[str, list[float]] = {"compile": [], "run": []}
        t_start = time.perf_counter()
        while not latencies["run"] or time.perf_counter() - t_start < seconds:
            round_ms: list[tuple[str, float]] = []
            host.start()
            for op, name in jobs.stream_round(rng, next(rounds)):
                host.tick()
                request = jobs.request(op, name)
                t0 = time.perf_counter()
                response = client.request(request)
                round_ms.append((op, ms_since(t0)))
                jobs.check(op, name, response, tally, timed=True)
            factor = host.scale()
            for op, ms in round_ms:
                latencies[op].append(ms * factor)
        after = daemon.metrics()
        tally.guard(
            _backend_work(after) == _backend_work(before),
            "the daemon compiled during the timed phase",
        )
        op_ms = latencies["compile"] + latencies["run"]
        return Outcome({
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(op_ms) / (sum(op_ms) / 1000.0), "1/s"),
            **latency_metrics("compile_ms", latencies["compile"]),
            **latency_metrics("run_ms", latencies["run"]),
            "peak_rss_mb": (vmhwm_mb(daemon.proc.pid), "MB"),
        })
    finally:
        if broker is not None:
            broker.drain()
        for daemon in daemons:
            daemon.close()


def _serve_traced(daemon: Daemon, broker, jobs: ServeJobs, rng, rounds, seconds, tally) -> Outcome:
    """Each request goes over the socket to the daemon, then through an
    in-process broker over the same disk cache with the layers wrapped.
    The socket time minus the broker time is the hop: JSON framing, the
    socket and the daemon's connection thread."""
    client = daemon.client
    socket_ms, broker_ms, json_ms = [], [], []
    ledger = Ledger()
    before = daemon.metrics()
    local_before = broker.metrics.as_dict()
    timed_rounds = 0
    with ledger:
        t_start = time.perf_counter()
        while not timed_rounds or time.perf_counter() - t_start < seconds:
            timed_rounds += 1
            for op, name in jobs.stream_round(rng, next(rounds)):
                request = jobs.request(op, name)
                t0 = time.perf_counter()
                response = client.request(request)
                socket_ms.append(ms_since(t0))
                jobs.check(op, name, response, tally, timed=True)
                json_ms.append(_json_round_trip_ms(dict(request, id=1), response))
                t0 = time.perf_counter()
                local = broker.handle(dict(request, id=1))
                broker_ms.append(ms_since(t0))
                jobs.check(op, name, local, tally, timed=True)
    after = daemon.metrics()
    local_after = broker.metrics.as_dict()
    tally.guard(_backend_work(after) == _backend_work(before), "the daemon compiled during the timed phase")
    tally.guard(
        _backend_work(local_after) == _backend_work(local_before),
        "the in-process broker compiled during the timed phase",
    )

    def per_round(name: str) -> float:
        return (_counter(local_after, name) - _counter(local_before, name)) / timed_rounds

    waits = [after["serve.wait_ms"][k] - before["serve.wait_ms"][k] for k in ("sum", "count")]
    for socket_time, broker_time in zip(socket_ms, broker_ms):
        ledger.add("serve.hop", socket_time - broker_time)
    ledger.count("cache.memory_hits", per_round("cache.hits"))
    ledger.count("cache.disk_hits", per_round("cache.disk.hits"))
    ledger.count("exec.scalar_fallbacks", per_round("session.executions.scalar_fallback"))
    ledger.count(
        "pipeline.backend_compilations",
        (_backend_work(local_after) - _backend_work(local_before)) / timed_rounds,
    )
    extra = {
        "serve.broker_ms": (statistics.median(broker_ms), "ms"),
        "serve.socket_ms": (statistics.median(socket_ms), "ms"),
        "serve.json_ms": (statistics.median(json_ms), "ms"),
        "serve.wait_ms": (waits[0] / waits[1], "ms"),
    }
    return traced_outcome(ledger, sum(socket_ms), extra)


def _json_round_trip_ms(request: dict, response: dict) -> float:
    """Encode and decode one request and its response, as client and
    daemon each do once per request."""
    t0 = time.perf_counter()
    line = json.dumps(request)
    json.loads(line)
    out = json.dumps(response, sort_keys=True)
    json.loads(out)
    return ms_since(t0)


# -- traced-run report -------------------------------------------------------------

def traced_outcome(ledger: Ledger, op_total_ms: float, extra: dict) -> Outcome:
    """Every per-layer metric ``BENCHMARK.json`` names.  Time metrics are
    medians per call of a layer's self time; a layer the workload never
    crossed reads 0."""
    metrics = {}
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        if name in extra:
            metrics[name] = extra[name]
        elif unit == "ms":
            metrics[name] = (ledger.median(name.removesuffix("_ms")), unit)
        else:
            metrics[name] = (statistics.median(ledger.counts.get(name, [0])), unit)
    metrics["trace.coverage"] = (ledger.total_ms() / op_total_ms, "ratio")
    return Outcome(metrics, ledger.table(op_total_ms))
