"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile FILE``
    Compile a MiniACC file under one or more configurations; print the
    PTXAS reports and (given ``--env``) the timing-model verdicts.
    ``--dump-vir`` shows the virtual ISA, ``--cuda`` the CUDA-like source,
    ``--run`` executes the kernel functionally on deterministic inputs
    (``--executor`` picks the engine), ``--stats`` the per-pass pipeline
    trace, cache counters and execution records as JSON, ``--trace OUT``
    a Chrome ``trace_event`` file of every span the invocation produced.

``profile FILE``
    Per-kernel execution profile: registers and spills, occupancy, static
    memory traffic by space and coalescing class, the vector planner's
    per-loop verdicts; ``--run`` attaches dynamic counts, ``--json``
    machine-readable output.

``stats FILE``
    Compile the file and render the session's metrics registry (counters,
    gauges, histograms) as text or ``--json``.

``tune FILE``
    Autotune the file's optimization configuration: search register cap,
    SAFARA (+candidate budget), ``dim``/``small`` honoring and unroll
    factor for the best modeled runtime at ``--env``.  ``--strategy``
    picks the search (exhaustive/greedy/beam), ``--fleet`` widens it
    across arch profiles (per-arch best table), ``--budget`` caps the
    trials, ``--cache-dir`` makes re-tunes resumable (a re-tune over the
    same directory answers every trial from the compile disk cache),
    ``--json`` emits the machine-readable result, ``--trace`` a Chrome
    trace with one ``tune.trial`` span per scored point (see
    ``docs/tuning.md``).

``serve``
    Run the long-running compile-and-run daemon: JSON-lines requests on
    stdin, responses on stdout (``compile`` / ``run`` / ``tune`` /
    ``stats`` / ``shutdown`` — see ``docs/serving.md``), backed by a
    worker pool and, with ``--cache-dir``, a persistent compile cache
    that survives restarts.

``submit FILE``
    One-shot client: compile (or ``--run``) a file through the same
    broker/protocol path as ``serve`` and print the JSON response.

``experiments [NAME ...]``
    Regenerate the paper's tables/figures (default: all).

``bench``
    List the modelled SPEC ACCEL / NAS benchmarks.

``microbench``
    Run the Wong-style latency survey on the simulated device.
"""

from __future__ import annotations

import argparse
import sys

from .bench.experiments import ALL_EXPERIMENTS
from .bench.suites.registry import load_all
from .compiler.options import ALL_CONFIGS, BASE, SMALL_DIM_SAFARA
from .compiler.session import CompilerSession, default_session
from .executors import EXECUTOR_NAMES


def _parse_env(pairs: list[str]) -> dict[str, int | float]:
    env: dict[str, int | float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--env expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        try:
            env[name] = int(value)
        except ValueError:
            try:
                env[name] = float(value)
            except ValueError:
                raise SystemExit(
                    f"--env expects a numeric value, got {pair!r}"
                ) from None
    return env


def _build_run_args(fn, env: dict[str, int], seed: int = 0) -> dict[str, object]:
    """Deterministic functional-run arguments for ``repro compile --run``
    (see :func:`repro.gpu.interpreter.build_run_args`); missing bindings
    become the CLI's usage errors."""
    from .gpu.interpreter import build_run_args

    try:
        return build_run_args(fn, env, seed)
    except ValueError as exc:
        raise SystemExit(
            str(exc).replace("run needs env", "--run needs --env")
        ) from None


def _run(session: CompilerSession, source: str, filename: str, env: dict):
    """``--run``: execute the file's first kernel on deterministic inputs
    (see :func:`_build_run_args`)."""
    fn = session.function(source, filename=filename)
    return session.run(source, _build_run_args(fn, env), filename=filename)


def _read_source(path: str) -> str:
    """A command's MiniACC source: the file at ``path``, stdin for ``-``.
    An unreadable file is a usage error, not a traceback."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SystemExit(f"cannot read {path}: {exc}") from None


def _config_named(name: str):
    """The named configuration; an unknown name is a usage error listing
    the known ones."""
    config = ALL_CONFIGS.get(name)
    if config is None:
        known = ", ".join(sorted(ALL_CONFIGS))
        raise SystemExit(f"unknown config {name!r}; known: {known}")
    return config


def _traced(command, args: argparse.Namespace) -> int:
    """Run ``command(args)``; with ``--trace OUT``, under an enabled
    tracer whose spans are written to OUT as a Chrome trace."""
    if not args.trace:
        return command(args)
    from .obs.chrome import write_chrome_trace
    from .obs.tracer import Tracer

    tracer = Tracer(enabled=True)
    with tracer.activate():
        rc = command(args)
    write_chrome_trace(args.trace, tracer)
    print(f"trace: {len(tracer.spans)} spans -> {args.trace}")
    return rc


def _derive_arch(config, arch_name: str):
    """``config`` retargeted to a named arch profile; unknown names are
    CLI usage errors listing the registry."""
    from .errors import ConfigError

    try:
        return config.derive(arch=arch_name)
    except ConfigError as exc:
        raise SystemExit(str(exc)) from None


def cmd_compile(args: argparse.Namespace) -> int:
    return _traced(_cmd_compile, args)


def _cmd_compile(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    config_names = args.config or [BASE.name, SMALL_DIM_SAFARA.name]
    env = _parse_env(args.env)
    # A private session so --stats reports exactly this invocation.
    session = CompilerSession(executor=args.executor)
    for name in config_names:
        config = _config_named(name)
        if args.arch:
            config = _derive_arch(config, args.arch)
        if args.saturate is not None:
            config = config.derive(saturate=args.saturate)
        program = session.compile_source(source, config, filename=args.file)
        print(f"== {config.name} ==")
        for kernel in program.kernels:
            line = f"  {kernel.ptxas.summary()}"
            if kernel.safara is not None:
                line += (
                    f"  [SAFARA: {kernel.safara.groups_replaced} groups, "
                    f"{kernel.backend_compilations} backend compiles]"
                )
            if kernel.esat is not None:
                line += (
                    f"  [esat: {kernel.esat.rewritten} rewritten, "
                    f"{kernel.esat.unified_spellings} unified"
                    f"{', guarded out' if not kernel.esat.applied else ''}]"
                )
            print(line)
            if args.dump_vir:
                print(kernel.vir.dump())
        if env:
            timing = session.time_program(program, env, launches=args.launches)
            for kt in timing.kernels:
                print(
                    f"    {kt.name}: {kt.time_ms:.3f} ms "
                    f"(occupancy {kt.occupancy.occupancy:.2f}, {kt.bound}-bound)"
                )
            print(f"  total: {timing.total_ms:.3f} ms")
        if args.cuda:
            from .codegen.cuda_text import render_cuda

            fn = session.function(source, filename=args.file)
            for index, region in enumerate(fn.regions(), start=1):
                print(render_cuda(region, fn.symtab, config.codegen_options(),
                                  name=f"{fn.name}_k{index}"))
        print()
    if args.run:
        _arrays, stats, info = _run(session, source, args.file, env)
        line = f"run: executor={info.used}"
        if info.fallback_reason:
            line += f" (fallback: {info.fallback_reason})"
        print(line)
        print(
            f"  loads={stats.loads} stores={stats.stores} "
            f"flops={stats.flops} iterations={stats.iterations}"
        )
        if info.region_elements:
            for region, count in sorted(info.region_elements.items()):
                print(f"  {region}: {count} batched elements")
        print()
    if args.stats:
        import json

        print(json.dumps(session.stats_dict(), indent=2))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    config = _config_named(args.config)
    from .obs.profiler import profile_source

    session = CompilerSession()
    profile = profile_source(source, config, session=session, filename=args.file)
    if args.run:
        _arrays, stats, info = _run(session, source, args.file, _parse_env(args.env))
        profile.execution = {
            **info.as_dict(),
            "loads": stats.loads,
            "stores": stats.stores,
            "flops": stats.flops,
            "iterations": stats.iterations,
        }
    if args.json:
        import json

        print(json.dumps(profile.as_dict(), indent=2))
    else:
        print(profile.render())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Compile a file in-process and render the session's metrics registry
    (`repro stats FILE`): every counter, gauge, and histogram the compile
    touched, as text or JSON."""
    source = _read_source(args.file)
    config_names = args.config or [BASE.name, SMALL_DIM_SAFARA.name]
    session = CompilerSession()
    for name in config_names:
        config = _config_named(name)
        session.compile_source(source, config, filename=args.file)
    if args.json:
        import json

        print(json.dumps(session.metrics.as_dict(), indent=2))
    else:
        print(session.metrics.render_text())
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    return _traced(_cmd_tune, args)


def _cmd_tune(args: argparse.Namespace) -> int:
    from .errors import ConfigError, TuneError
    from .tune import tune

    source = _read_source(args.file)
    base = _config_named(args.config)
    env = _parse_env(args.env)
    if not env:
        raise SystemExit("tune needs --env (the problem sizes the model scores)")
    archs = [a for a in (args.fleet or "").split(",") if a] or None
    session = CompilerSession(cache_dir=args.cache_dir)
    try:
        result = tune(
            source,
            env=env,
            launches=args.launches,
            base=base,
            strategy=args.strategy,
            budget=args.budget,
            session=session,
            filename=args.file,
            archs=archs,
        )
    except (TuneError, ConfigError) as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        import json

        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        return 0

    def count(name: str) -> int:
        metric = session.metrics.get(name)
        return int(metric.value) if metric is not None else 0

    print(
        f"tune: {result.strategy} searched {len(result.trials)} of "
        f"{result.unique_points} points ({result.pruned} pruned from "
        f"{result.space_size}; {session.stats.compilations} compiled, "
        f"{count('cache.hits')} memory hits, "
        f"{count('cache.disk.hits')} disk hits)"
    )
    print(
        f"  reference {result.reference.config_name}: "
        f"{result.reference.model_ms:.3f} ms "
        f"({result.reference.max_registers} regs)"
    )
    print(
        f"  best      {result.best.config_name}: "
        f"{result.best.model_ms:.3f} ms "
        f"({result.best.max_registers} regs, "
        f"occupancy {result.best.min_occupancy:.2f})"
    )
    print(f"  speedup over reference: {result.speedup_over_reference:.3f}x")
    if len(result.per_arch_best) > 1:
        print("  per-arch best:")
        for key, trial in sorted(result.per_arch_best.items()):
            print(
                f"    {key:16s} {trial.model_ms:.3f} ms "
                f"({trial.max_registers} regs, "
                f"occupancy {trial.min_occupancy:.2f})"
            )
    return 0


def _broker_config(args: argparse.Namespace) -> "BrokerConfig":
    from .serve.broker import BrokerConfig

    kwargs: dict = {}
    if args.workers is not None:
        kwargs["workers"] = args.workers
    if args.queue_limit is not None:
        kwargs["queue_limit"] = args.queue_limit
    if args.deadline_ms is not None:
        kwargs["default_deadline_ms"] = args.deadline_ms
    if args.cache_dir is not None:
        kwargs["cache_dir"] = args.cache_dir
    if getattr(args, "fleet", None):
        from .errors import ConfigError
        from .gpu.arch import get_arch

        fleet = tuple(a for a in args.fleet.split(",") if a)
        try:
            for name in fleet:
                get_arch(name)
        except ConfigError as exc:
            raise SystemExit(str(exc)) from None
        kwargs["fleet"] = fleet
    return BrokerConfig(**kwargs)


def cmd_serve(args: argparse.Namespace) -> int:
    if getattr(args, "shards", None) and args.shards > 1:
        from .serve.cluster import ClusterConfig, run_cluster

        kwargs: dict = {
            "shards": args.shards,
            "broker": _broker_config(args),
            "process_shards": True,
        }
        if args.replication is not None:
            kwargs["replication"] = args.replication
        if args.hedge_after_ms is not None:
            kwargs["hedge_after_ms"] = args.hedge_after_ms
        if args.tenant_rate is not None:
            kwargs["tenant_rate"] = args.tenant_rate
        if args.tenant_burst is not None:
            kwargs["tenant_burst"] = args.tenant_burst
        try:
            config = ClusterConfig(**kwargs)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        return run_cluster(config, socket_path=args.socket)
    from .serve.daemon import run_daemon

    return run_daemon(_broker_config(args), socket_path=args.socket)


def cmd_cluster_drain(args: argparse.Namespace) -> int:
    """Drain (and optionally restart) one shard of a live cluster router
    over its unix socket.  Exit 0 iff the drain completed."""
    import json

    from .serve.client import SocketClient

    request = {"op": "drain", "shard": args.shard, "restart": args.restart}
    try:
        with SocketClient(args.socket, timeout=args.timeout) as client:
            response = client.request(request)
    except (ConnectionError, TimeoutError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def _render_span_tree(nodes: list, indent: int = 0) -> list[str]:
    lines = []
    for node in nodes:
        args_bits = {
            k: v
            for k, v in node.get("args", {}).items()
            if k not in ("trace_id",) and v is not None
        }
        suffix = (
            "  " + " ".join(f"{k}={v}" for k, v in sorted(args_bits.items()))
            if args_bits
            else ""
        )
        lines.append(
            f"{'  ' * indent}{node['name']:<{max(28 - 2 * indent, 8)}} "
            f"{node['dur_us'] / 1000.0:9.3f} ms{suffix}"
        )
        lines.extend(_render_span_tree(node.get("children", []), indent + 1))
    return lines


def _render_record(record: dict) -> str:
    status = "ok" if record["ok"] else f"ERROR ({record['error_code']})"
    lines = [
        f"trace {record['trace_id']}  op={record['op']}  {status}  "
        f"{record['duration_ms']:.3f} ms"
    ]
    if record.get("degradations"):
        for event in record["degradations"]:
            detail = {k: v for k, v in event.items() if k != "trace_id"}
            lines.append(f"  degradation: {detail}")
    if record.get("dropped_spans"):
        lines.append(f"  (collector dropped {record['dropped_spans']} spans)")
    lines.extend(_render_span_tree(record.get("span_tree", []), indent=1))
    return "\n".join(lines)


def cmd_serve_trace(args: argparse.Namespace) -> int:
    """Inspect the daemon's flight recorder: the retained slowest /
    errored request traces, one trace's span tree, or a Perfetto-loadable
    export of it."""
    import json

    from .serve.client import SocketClient

    with SocketClient(args.socket) as client:
        response = client.trace(args.trace_id, perfetto=bool(args.perfetto))
    if not response.get("ok"):
        print(json.dumps(response, indent=2, sort_keys=True), file=sys.stderr)
        return 1
    result = response["result"]
    if args.perfetto:
        chrome = result.get("chrome")
        if chrome is None:
            print("no retained trace to export", file=sys.stderr)
            return 1
        doc = json.dumps(chrome, indent=2, sort_keys=True)
        if args.perfetto == "-":
            print(doc)
        else:
            with open(args.perfetto, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
            print(
                f"wrote Perfetto trace {chrome['otherData']['trace_id']} "
                f"to {args.perfetto}",
                file=sys.stderr,
            )
        return 0
    if args.trace_id:
        if not result.get("found"):
            print(
                f"trace {args.trace_id!r} not retained (recorder keeps the "
                "slowest and errored requests only)",
                file=sys.stderr,
            )
            return 1
        print(_render_record(result["record"]))
        return 0
    print(
        f"flight recorder: {result['recorded']} requests seen, retaining "
        f"{len(result['slowest'])} slowest "
        f"(bound {result['retention']['max_slow']}) and "
        f"{len(result['errors'])} errored "
        f"(bound {result['retention']['max_errors']})"
    )
    for title, records in (
        ("slowest", result["slowest"]),
        ("errors", result["errors"]),
    ):
        if records:
            print(f"\n== {title} ==")
            for record in records:
                print(_render_record(record))
    return 0


def _quantile_cell(hist: dict | None) -> str:
    if not hist:
        return "-"
    return (
        f"{hist['p50']:.2f}/{hist['p99']:.2f}/{hist['p999']:.2f}"
    )


def _render_top_frame(frame: dict, previous: dict | None) -> str:
    """One ``repro top`` screen from a telemetry frame (rates are diffed
    against the previous frame when there is one)."""
    if previous is not None and frame["ts"] > previous["ts"]:
        dt = frame["ts"] - previous["ts"]
        rps = (frame["requests_total"] - previous["requests_total"]) / dt
    elif frame["uptime_s"]:
        rps = frame["requests_total"] / frame["uptime_s"]
    else:
        rps = 0.0
    lines = [
        f"repro top — uptime {frame['uptime_s']:.1f}s   "
        f"queue {frame['queue_depth']}/{frame['workers'] + frame['queue_limit']}"
        f"   workers {frame['workers']}"
        + ("   [draining]" if frame.get("stopping") else ""),
        "",
        f"requests   total {frame['requests_total']}  ({rps:.1f} req/s)   "
        + "  ".join(
            f"{op} {n}" for op, n in sorted(frame["requests"].items())
        ),
        f"backpressure   rejected {frame['rejected']}   "
        f"deadline_exceeded {frame['deadline_exceeded']}",
        f"degradations   total {frame['degradations']['total']}   "
        f"deadline {frame['degradations']['deadline']}   "
        f"vector_fallback {frame['degradations']['vector_fallback']}",
    ]
    cache = frame["cache"]

    def pct(rate):
        return f"{rate * 100.0:.1f}%" if rate is not None else "-"

    lines.append(
        f"cache hit rates   memory {pct(cache['memory_hit_rate'])}   "
        f"disk {pct(cache['disk_hit_rate'])}   "
        f"fnobj {pct(cache['fnobj_hit_rate'])}"
    )
    if frame.get("placement"):
        lines.append(
            "placement   "
            + "  ".join(
                f"{arch} {n}" for arch, n in sorted(frame["placement"].items())
            )
        )
    if frame.get("codegen_tiers"):
        lines.append(
            "run tiers   "
            + "  ".join(
                f"{tier} {n}"
                for tier, n in sorted(frame["codegen_tiers"].items())
            )
        )
    cluster = frame.get("cluster")
    if cluster:
        lines.append(
            f"cluster   shards {cluster['up']}/{cluster['shards']}   "
            f"replication {cluster['replication']}   "
            f"hot keys {cluster['hot_keys']}   "
            f"hedges {cluster['hedges']} "
            f"(won {cluster['hedge_wins']}, wasted {cluster['hedge_wasted']})"
            f"   failovers {cluster['failovers']}   "
            f"quota_rejected {cluster['quota_rejected']}   "
            f"drains {cluster['drains']}   restarts {cluster['restarts']}"
        )
    shards = frame.get("shards")
    if shards:
        lines.append("")
        lines.append(
            f"  {'shard':<7} {'state':<10} {'routed':>8} {'total':>8} "
            f"{'queue':>6}  {'mem':>6}  {'disk':>6}"
        )
        for row in shards:
            lines.append(
                f"  {row['shard']:<7} {row['state']:<10} "
                f"{row['routed']:>8} {row['requests_total']:>8} "
                f"{row['queue_depth']:>6}  "
                f"{pct(row['memory_hit_rate']):>6}  "
                f"{pct(row['disk_hit_rate']):>6}"
            )
    latency = frame.get("latency_ms") or {}
    if latency:
        lines.append("")
        lines.append("latency ms (p50/p99/p999)")
        for op in sorted(latency):
            lines.append(f"  {op:<10} {_quantile_cell(latency[op])}")
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """Live serve telemetry in the terminal, over the ``watch`` stream."""
    from .serve.client import SocketClient

    clear = sys.stdout.isatty() and not args.no_clear
    previous = None
    count = args.count if args.count and args.count > 0 else None
    with SocketClient(args.socket, timeout=None) as client:
        try:
            for frame in client.watch(
                interval_ms=args.interval_ms, count=count
            ):
                text = _render_top_frame(frame, previous)
                if clear:
                    sys.stdout.write("\x1b[2J\x1b[H")
                print(text)
                if not clear:
                    print()
                sys.stdout.flush()
                previous = frame
        except KeyboardInterrupt:
            pass
        except ConnectionError as exc:
            print(str(exc), file=sys.stderr)
            return 1
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Open-loop load against a live broker; prints/writes the SLO report."""
    import json

    from .loadgen import LoadProfile, quick_profile, run_load, write_report

    mix = None
    if args.mix:
        mix = {}
        for part in args.mix.split(","):
            op, _, weight = part.partition("=")
            try:
                mix[op.strip()] = float(weight)
            except ValueError:
                raise SystemExit(
                    f"bad --mix entry {part!r}; expected op=weight"
                ) from None
    overrides: dict = {}
    if args.rate is not None:
        overrides["rate_rps"] = args.rate
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if args.arrival is not None:
        overrides["arrival"] = args.arrival
    if mix is not None:
        overrides["mix"] = mix
    if args.benchmarks:
        overrides["benchmarks"] = tuple(
            b for b in args.benchmarks.split(",") if b
        )
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.no_prewarm:
        overrides["prewarm"] = False
    if args.deadline_ms is not None:
        overrides["deadline_ms"] = args.deadline_ms
    if args.tenant:
        overrides["tenant"] = args.tenant
    if args.quick:
        profile = quick_profile(**overrides)
    else:
        profile = LoadProfile(**overrides)

    def progress(done: int, total: int) -> None:
        if args.progress and done % max(1, total // 10) == 0:
            print(f"loadgen: {done}/{total} answered", file=sys.stderr)

    try:
        if args.socket:
            report = run_load(
                profile, socket_path=args.socket, on_progress=progress
            )
        else:
            from .serve.broker import Broker

            with Broker(_broker_config(args)) as broker:
                report = run_load(profile, broker=broker, on_progress=progress)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.report:
        write_report(report, args.report)
        print(f"wrote SLO report to {args.report}", file=sys.stderr)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """One-shot client: build a request, run it through an in-process
    broker (sharing the daemon's disk cache via ``--cache-dir``), print
    the JSON-lines response.  Exit 0 iff the response is ``ok``."""
    import json

    from .serve.broker import Broker

    source = _read_source(args.file)
    op = "tune" if args.tune else "run" if args.run else "compile"
    request: dict = {"id": 0, "op": op, "source": source}
    if args.config:
        request["config"] = args.config
    if args.arch:
        request["arch"] = args.arch
    if getattr(args, "saturate", None) is not None:
        request["saturate"] = args.saturate
    if args.tenant:
        request["tenant"] = args.tenant
    env = _parse_env(args.env)
    if env:
        request["env"] = env
    if args.deadline_ms is not None:
        request["deadline_ms"] = args.deadline_ms
    if args.run and args.executor:
        request["executor"] = args.executor
    if args.tune:
        request["strategy"] = args.strategy
        if args.budget is not None:
            request["budget"] = args.budget
    with Broker(_broker_config(args)) as broker:
        response = broker.handle(request)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response["ok"] else 1


def cmd_experiments(args: argparse.Namespace) -> int:
    names = args.names or list(ALL_EXPERIMENTS)
    for name in names:
        fn = ALL_EXPERIMENTS.get(name)
        if fn is None:
            known = ", ".join(ALL_EXPERIMENTS)
            raise SystemExit(f"unknown experiment {name!r}; known: {known}")
        print(fn().render())
        print()
    # The experiment harness routes through the default session's batch
    # compiler; report how much work the compile cache absorbed.
    print(default_session().cache.summary())
    return 0


def cmd_passes(args: argparse.Namespace) -> int:
    """List the registered optimization passes (the pluggable registry
    the default pipeline is built from; see docs/optimizer.md)."""
    from .pipeline.passes import DEFAULT_PASS_ORDER
    from .pipeline.registry import PASSES

    default_order = {key: i for i, key in enumerate(DEFAULT_PASS_ORDER)}
    rows = []
    for key, pass_cls in PASSES.items():
        doc = (pass_cls.__doc__ or "").strip().splitlines()
        rows.append(
            {
                "pass": key,
                "class": pass_cls.__name__,
                "default_position": default_order.get(key),
                "summary": doc[0] if doc else "",
            }
        )
    if args.json:
        import json

        print(json.dumps(rows, indent=2))
        return 0
    in_default = [r for r in rows if r["default_position"] is not None]
    extra = [r for r in rows if r["default_position"] is None]
    print("default pipeline (in order):")
    for r in sorted(in_default, key=lambda r: r["default_position"]):
        print(f"  {r['pass']:14s} {r['class']:22s} {r['summary']}")
    if extra:
        print("registered (not in the default pipeline):")
        for r in extra:
            print(f"  {r['pass']:14s} {r['class']:22s} {r['summary']}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    spec, nas = load_all()
    for suite in (spec, nas):
        print(f"== {suite.suite.upper()} ==")
        for b in suite.all():
            clauses = []
            if b.uses_small:
                clauses.append("small")
            if b.uses_dim:
                clauses.append("dim")
            tag = f" [{', '.join(clauses)}]" if clauses else ""
            print(f"  {b.name:14s} ({b.language}){tag}: {b.description}")
    return 0


def cmd_microbench(args: argparse.Namespace) -> int:
    from .gpu.microbench import measure_all

    print("latency survey (simulated Tesla K20Xm):")
    for m in measure_all():
        print(f"  {m}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAFARA + dim/small OpenACC reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a MiniACC file")
    p.add_argument("file", help="MiniACC source file ('-' for stdin)")
    p.add_argument(
        "--config",
        action="append",
        help=f"configuration name (repeatable); known: {', '.join(sorted(ALL_CONFIGS))}",
    )
    p.add_argument("--env", action="append", default=[], help="problem size name=value")
    p.add_argument(
        "--arch",
        help="target a registered GPU arch profile by name "
        "(e.g. kepler-k20xm, cdna2-mi250; see docs/device_model.md)",
    )
    p.add_argument("--launches", type=int, default=1)
    p.add_argument(
        "--saturate",
        action="store_true",
        default=None,
        help="enable the equality-saturation pass (repro.esat) on top of "
        "the selected configs (the pressure guard keeps a kernel "
        "unsaturated when saturation would not help)",
    )
    p.add_argument(
        "--no-saturate",
        dest="saturate",
        action="store_false",
        help="force the equality-saturation pass off",
    )
    p.add_argument("--dump-vir", action="store_true", help="print the virtual ISA")
    p.add_argument("--cuda", action="store_true", help="print CUDA-like source")
    p.add_argument(
        "--run",
        action="store_true",
        help="execute the kernel functionally on deterministic inputs "
        "(array extents from --env; pointer sizes via --env __len_<name>=N)",
    )
    p.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default="auto",
        help="execution engine for --run (default: generated NumPy code "
        "with automatic scalar fallback)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="emit the per-pass pipeline trace and cache counters as JSON",
    )
    p.add_argument(
        "--trace",
        metavar="OUT.json",
        help="record spans for the whole invocation and write a Chrome "
        "trace_event file (load in Perfetto or chrome://tracing)",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "profile", help="per-kernel execution profile of a MiniACC file"
    )
    p.add_argument("file", help="MiniACC source file ('-' for stdin)")
    p.add_argument(
        "--config",
        default=SMALL_DIM_SAFARA.name,
        help=f"configuration name; known: {', '.join(sorted(ALL_CONFIGS))}",
    )
    p.add_argument("--env", action="append", default=[], help="problem size name=value")
    p.add_argument(
        "--run",
        action="store_true",
        help="also execute the kernel functionally and attach dynamic counts",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "stats", help="compile a file and render the session metrics registry"
    )
    p.add_argument("file", help="MiniACC source file ('-' for stdin)")
    p.add_argument(
        "--config",
        action="append",
        help=f"configuration name (repeatable); known: {', '.join(sorted(ALL_CONFIGS))}",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "tune",
        help="autotune a file's optimization configuration "
        "(register cap, SAFARA, clauses, unrolling)",
    )
    p.add_argument("file", help="MiniACC source file ('-' for stdin)")
    p.add_argument(
        "--env",
        action="append",
        default=[],
        help="problem size name=value (required: the timing model's input)",
    )
    p.add_argument("--launches", type=int, default=1)
    p.add_argument(
        "--config",
        default=BASE.name,
        help="base configuration the knobs vary over "
        f"(default: {BASE.name}); known: {', '.join(sorted(ALL_CONFIGS))}",
    )
    p.add_argument(
        "--strategy",
        choices=("exhaustive", "greedy", "beam"),
        default="beam",
        help="search strategy (default: beam — cost-model-ordered with "
        "early stopping)",
    )
    p.add_argument(
        "--budget", type=int, default=None, help="max trial points to score"
    )
    p.add_argument(
        "--cache-dir",
        dest="cache_dir",
        metavar="DIR",
        help="persistent compile-cache directory; a re-tune over the same "
        "directory answers every trial from disk and compiles nothing",
    )
    p.add_argument(
        "--fleet",
        metavar="ARCH,ARCH,...",
        help="search across a fleet of arch profiles (comma-separated "
        "registry names); the result reports a per-arch best table",
    )
    p.add_argument("--json", action="store_true", help="emit the result as JSON")
    p.add_argument(
        "--trace",
        metavar="OUT.json",
        help="write a Chrome trace_event file with one tune.trial span "
        "per scored point",
    )
    p.set_defaults(func=cmd_tune)

    def add_broker_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers", type=int, help="worker threads (default: 4)"
        )
        p.add_argument(
            "--queue-limit",
            type=int,
            dest="queue_limit",
            help="waiting requests admitted beyond the workers (default: 32)",
        )
        p.add_argument(
            "--deadline-ms",
            type=float,
            dest="deadline_ms",
            help="default per-request deadline in milliseconds",
        )
        p.add_argument(
            "--cache-dir",
            dest="cache_dir",
            help="persistent compile-cache directory (warm starts survive "
            "restarts; shared between serve and submit)",
        )
        p.add_argument(
            "--fleet",
            metavar="ARCH,ARCH,...",
            help="device fleet (comma-separated arch-registry names, in "
            "preference order); run/compile requests without a pinned "
            "arch are routed to the modeled-best profile",
        )

    p = sub.add_parser(
        "serve",
        help="run the JSON-lines compile daemon (requests on stdin, "
        "responses on stdout, or on a unix socket with --socket; see "
        "docs/serving.md)",
    )
    add_broker_flags(p)
    p.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="listen on a unix-domain socket instead of stdin/stdout "
        "(repro top / serve-trace / loadgen connect here)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=None,
        help="run the sharded cluster tier: a consistent-hash router "
        "over N broker subprocesses sharing one disk cache (see "
        "docs/sharding.md; default: a single in-process broker)",
    )
    p.add_argument(
        "--replication",
        type=int,
        default=None,
        help="shards a hot key may be served from (cluster mode; "
        "default: 2)",
    )
    p.add_argument(
        "--hedge-after-ms",
        dest="hedge_after_ms",
        type=float,
        default=None,
        help="fixed hedged-retry delay in milliseconds (cluster mode; "
        "default: adaptive, from the p95 shard service time)",
    )
    p.add_argument(
        "--tenant-rate",
        dest="tenant_rate",
        type=float,
        default=None,
        help="per-tenant quota refill rate in requests/s (cluster "
        "mode; default: quotas disabled)",
    )
    p.add_argument(
        "--tenant-burst",
        dest="tenant_burst",
        type=float,
        default=None,
        help="per-tenant quota burst ceiling (cluster mode; "
        "default: 10)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "cluster-drain",
        help="drain one shard of a live cluster router (requests finish, "
        "the shard leaves the ring; --restart rejoins it with a warm "
        "disk cache)",
    )
    p.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="the router's unix socket (repro serve --shards N --socket)",
    )
    p.add_argument(
        "--shard",
        required=True,
        type=int,
        help="shard index to drain (0-based)",
    )
    p.add_argument(
        "--restart",
        action="store_true",
        help="restart the shard after draining (it rejoins the ring; "
        "the shared disk cache keeps its keys warm)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="seconds to wait for the drain to complete (default: 120)",
    )
    p.set_defaults(func=cmd_cluster_drain)

    p = sub.add_parser(
        "serve-trace",
        help="inspect a live daemon's flight recorder (slowest and "
        "errored request traces; Perfetto export with --perfetto)",
    )
    p.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        help="show one retained trace (default: list everything retained)",
    )
    p.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="the daemon's unix socket (repro serve --socket PATH)",
    )
    p.add_argument(
        "--perfetto",
        metavar="OUT.json",
        default=None,
        help="write the Chrome trace_event document of the selected "
        "(or slowest) trace to OUT.json ('-' for stdout)",
    )
    p.set_defaults(func=cmd_serve_trace)

    p = sub.add_parser(
        "top",
        help="live serve telemetry in the terminal (requests/s, queue "
        "depth, cache hit rates, placements, latency quantiles)",
    )
    p.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="the daemon's unix socket (repro serve --socket PATH)",
    )
    p.add_argument(
        "--interval-ms",
        dest="interval_ms",
        type=float,
        default=1000.0,
        help="refresh interval (default: 1000)",
    )
    p.add_argument(
        "--count",
        type=int,
        default=0,
        help="stop after N frames (default: run until interrupted)",
    )
    p.add_argument(
        "--no-clear",
        dest="no_clear",
        action="store_true",
        help="append frames instead of clearing the screen",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "loadgen",
        help="open-loop load generator + SLO report against a live "
        "broker (in-process, or a daemon via --socket)",
    )
    p.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="target a running daemon's unix socket instead of an "
        "in-process broker",
    )
    p.add_argument("--rate", type=float, help="offered load (requests/s)")
    p.add_argument("--duration", type=float, help="experiment length (s)")
    p.add_argument(
        "--arrival",
        choices=("poisson", "fixed"),
        help="arrival process (default: poisson)",
    )
    p.add_argument(
        "--mix",
        metavar="OP=W,OP=W",
        help="op mix weights, e.g. compile=0.5,run=0.4,tune=0.1",
    )
    p.add_argument(
        "--benchmarks",
        metavar="NAME,NAME",
        help="restrict the workload to these suite benchmarks",
    )
    p.add_argument("--seed", type=int, help="schedule RNG seed (default: 0)")
    p.add_argument(
        "--tenant",
        default=None,
        help="stamp every request with this tenant name (exercises "
        "per-tenant quotas on a cluster router)",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="start from the CI smoke profile instead of the defaults",
    )
    p.add_argument(
        "--no-prewarm",
        dest="no_prewarm",
        action="store_true",
        help="skip the synchronous compile prewarm (measure cold starts)",
    )
    p.add_argument(
        "--report",
        metavar="OUT.json",
        help="write the SLO report here instead of stdout",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="progress lines on stderr",
    )
    add_broker_flags(p)
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "submit", help="one-shot client over the serve broker/protocol"
    )
    p.add_argument("file", help="MiniACC source file ('-' for stdin)")
    p.add_argument(
        "--config",
        help=f"configuration name; known: {', '.join(sorted(ALL_CONFIGS))}",
    )
    p.add_argument("--env", action="append", default=[], help="problem size name=value")
    p.add_argument(
        "--arch",
        help="pin the request to a registered arch profile (the server "
        "answers unknown_arch for unregistered names)",
    )
    p.add_argument(
        "--tenant",
        default=None,
        help="tenant name for the request (charged against per-tenant "
        "quotas on a cluster router)",
    )
    p.add_argument(
        "--saturate",
        action="store_true",
        default=None,
        help="request the equality-saturation pass on top of the config",
    )
    p.add_argument(
        "--no-saturate",
        dest="saturate",
        action="store_false",
        help="force the equality-saturation pass off for this request",
    )
    p.add_argument(
        "--run",
        action="store_true",
        help="submit a 'run' request (functional execution) instead of 'compile'",
    )
    p.add_argument(
        "--tune",
        action="store_true",
        help="submit a 'tune' request (autotuning; requires --env)",
    )
    p.add_argument(
        "--strategy",
        choices=("exhaustive", "greedy", "beam"),
        default="beam",
        help="search strategy for --tune",
    )
    p.add_argument(
        "--budget", type=int, default=None, help="max trials for --tune"
    )
    p.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default=None,
        help="execution engine for --run",
    )
    add_broker_flags(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("experiments", help="regenerate the paper's tables/figures")
    p.add_argument("names", nargs="*", help=f"subset of: {', '.join(ALL_EXPERIMENTS)}")
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser(
        "passes", help="list the registered optimization passes"
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_passes)

    p = sub.add_parser("bench", help="list the modelled benchmarks")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("microbench", help="run the latency survey")
    p.set_defaults(func=cmd_microbench)
    return parser


def main(argv: list[str] | None = None) -> int:
    from .lang.errors import MiniAccError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. piped into `head`
        return 0
    except MiniAccError as exc:
        # A source error is the user's to fix: one `path:line:col:
        # message` line, not a traceback.
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
