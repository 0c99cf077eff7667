"""``repro stats`` rendering audit: every registered metric family since
PR 3 must appear in the rendered text — registering a dotted name can
never silently hide it from the stats surface (unknown families land in
the catch-all section instead of vanishing)."""

from repro.obs.metrics import METRIC_FAMILIES, MetricsRegistry


def exercised_registry() -> MetricsRegistry:
    """A registry holding one representative of every metric family the
    toolchain has grown through PR 7 (plus the PR 8 additions)."""
    m = MetricsRegistry()
    # session / cache / pipeline — the PR 2 families.
    m.counter("session.compilations").inc()
    m.counter("cache.hits").inc(3)
    m.counter("cache.disk.codegen_corrupt").inc()
    m.counter("cache.fnobj.hits").inc(2)
    m.counter("cache.fnobj.misses").inc()
    m.histogram("pipeline.pass.safara.wall_ms").observe(1.5)
    # codegen — the PR 7 generated-NumPy tier.
    m.counter("codegen.functions_built").inc()
    # esat — the PR 10 equality saturation.
    m.counter("esat.unions").inc(3)
    m.counter("esat.new_candidates").inc()
    # tune — the PR 5 autotuner.
    m.counter("tune.trials").inc(7)
    m.histogram("tune.trial_ms").observe(12.0)
    # serve — broker, placement, latency.
    m.counter("serve.requests.run").inc(4)
    m.counter("serve.placement.decisions").inc(2)
    m.counter("serve.placement.chosen.kepler-k20xm").inc(2)
    m.counter("serve.codegen.tier.codegen").inc(4)
    m.gauge("serve.queue_depth").set(1)
    m.log_histogram("serve.latency_ms.run").observe(3.25)
    # loadgen — PR 8.
    m.counter("loadgen.sent").inc(10)
    # A family nobody declared: must land in the catch-all, not vanish.
    m.counter("mystery.subsystem.events").inc()
    return m


class TestRenderCoverage:
    def test_every_registered_name_is_rendered(self):
        m = exercised_registry()
        text = m.render_text()
        for name in m.names():
            assert name in text, f"metric {name} missing from render_text()"

    def test_known_families_get_titled_sections(self):
        m = exercised_registry()
        text = m.render_text()
        titles = dict(METRIC_FAMILIES)
        for family in ("session", "cache", "pipeline", "esat",
                       "codegen", "tune", "serve", "loadgen"):
            assert f"# {titles[family]}" in text, family

    def test_unknown_family_lands_in_catch_all(self):
        m = exercised_registry()
        text = m.render_text()
        assert "# other (unclassified families)" in text
        catch_all = text.split("# other (unclassified families)")[1]
        assert "mystery.subsystem.events" in catch_all

    def test_families_render_in_declared_order(self):
        m = exercised_registry()
        text = m.render_text()
        positions = [
            text.index(f"# {title}")
            for family, title in METRIC_FAMILIES
            if f"# {title}" in text
        ]
        assert positions == sorted(positions)

    def test_log_histogram_renders_quantiles(self):
        m = exercised_registry()
        text = m.render_text()
        line = next(
            ln for ln in text.splitlines() if ln.startswith("serve.latency_ms.run")
        )
        assert "loghist" in line
        for key in ("p50=", "p99=", "p999="):
            assert key in line

    def test_every_metric_kind_renders_one_of_each(self):
        m = MetricsRegistry()
        m.counter("session.compilations").inc()
        m.gauge("serve.queue_depth").set(2)
        m.histogram("pipeline.wall_ms").observe(0.5)
        m.log_histogram("serve.latency_ms.run").observe(0.5)
        text = m.render_text()
        assert "counter" in text
        assert "gauge" in text
        assert "histogram" in text
        assert "loghist" in text


class TestBrokerSurfaceIsRendered:
    def test_live_broker_metrics_all_render(self):
        """End-to-end: every metric a served request registers shows up
        in the text rendering (the registry the `stats` op exports)."""
        from repro.serve.broker import Broker, BrokerConfig

        src = """
kernel axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""
        with Broker(BrokerConfig(workers=1)) as broker:
            assert broker.handle(
                {"id": 1, "op": "run", "source": src, "env": {"n": 32}}
            )["ok"]
            assert broker.handle(
                {"id": 2, "op": "compile", "source": src}
            )["ok"]
            text = broker.metrics.render_text()
            for name in broker.metrics.names():
                assert name in text, f"{name} missing from rendered stats"
