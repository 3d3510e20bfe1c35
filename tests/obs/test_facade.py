"""The repro.obs facade: lifecycle, null backend and declared metrics."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs import NULL_SPAN, instruments
from repro.testing import FakeClock

pytestmark = pytest.mark.obs


class TestLifecycle:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.current() is None
        assert obs.describe() == {"enabled": False}

    def test_configure_installs_and_disable_removes(self):
        runtime = obs.configure(sample_rate=0.5)
        assert obs.enabled()
        assert obs.current() is runtime
        assert obs.registry() is runtime.registry
        assert obs.tracer() is runtime.tracer
        description = obs.describe()
        assert description["enabled"] is True
        assert description["sample_rate"] == 0.5
        obs.disable()
        assert not obs.enabled()

    def test_registry_and_tracer_raise_when_disabled(self):
        with pytest.raises(ObservabilityError, match="not configured"):
            obs.registry()
        with pytest.raises(ObservabilityError, match="not configured"):
            obs.tracer()

    def test_configure_replaces_previous_runtime(self):
        first = obs.configure()
        second = obs.configure()
        assert obs.current() is second
        assert first is not second

    def test_configure_primes_key_series(self):
        obs.configure()
        text = obs.registry().render_prometheus()
        assert 'repro_breaker_transitions_total{breaker="store",to="open"} 0' in text
        assert 'breaker="planner"' not in text
        assert "repro_task_outcomes" not in text
        assert 'repro_cache_hit_rate{cache="result"} 0' in text
        assert 'repro_requests_total{op="query"} 0' in text


class TestDisabledHelpers:
    def test_metric_helpers_are_noops(self):
        obs.counter_inc("repro_requests_total", op="query")
        obs.gauge_set("repro_epoch", 3)
        obs.observe("repro_query_seconds", 0.1)
        obs.annotate(outcome="ok")

    def test_context_helpers_yield_the_null_span(self):
        with obs.span("work") as span:
            assert span is NULL_SPAN
        with obs.phase_span("kernel", "static_compute") as span:
            assert span is NULL_SPAN
            span.annotate(anything="accepted")
        with obs.timer("repro_query_seconds"):
            pass

    def test_disabled_phase_span_is_the_null_context(self):
        assert obs.phase_span("kernel", "x") is obs.phase_span("kernel", "y")

    def test_register_collector_returns_noop_unsubscribe(self):
        unsubscribe = obs.register_collector(lambda registry: None)
        unsubscribe()  # must not raise


class TestMetricHelpers:
    def test_counter_inc_accumulates_per_label(self):
        obs.configure()
        obs.counter_inc("repro_requests_total", op="query")
        obs.counter_inc("repro_requests_total", 2, op="query")
        family = obs.registry().get("repro_requests_total")
        assert family.labels(op="query").value == 3.0

    def test_helpers_enforce_the_metric_kind(self):
        obs.configure()
        with pytest.raises(ObservabilityError, match="not a counter"):
            obs.counter_inc("repro_epoch")
        with pytest.raises(ObservabilityError, match="not a gauge"):
            obs.gauge_set("repro_requests_total", 1, op="query")
        with pytest.raises(ObservabilityError, match="not a histogram"):
            obs.observe("repro_epoch", 0.5)

    def test_undeclared_metric_names_are_refused(self):
        obs.configure()
        with pytest.raises(ObservabilityError, match="unknown instrument"):
            obs.counter_inc("repro_made_up_total")
        with pytest.raises(ObservabilityError, match="unknown instrument"):
            instruments.family(obs.registry(), "repro_made_up_total")

    def test_timer_observes_into_the_histogram(self):
        clock = FakeClock()
        obs.configure(clock=clock)
        with obs.timer("repro_query_seconds"):
            clock.advance(0.3)
        histogram = obs.registry().get("repro_query_seconds").default()
        assert histogram.count == 1
        assert histogram.sum == pytest.approx(0.3)

    def test_gauge_set_overwrites(self):
        obs.configure()
        obs.gauge_set("repro_epoch", 3)
        obs.gauge_set("repro_epoch", 7)
        assert obs.registry().get("repro_epoch").default().value == 7.0

    def test_collector_runs_at_scrape_time(self):
        obs.configure()

        def collector(registry):
            instruments.family(registry, "repro_epoch").default().set(42)

        unsubscribe = obs.register_collector(collector)
        assert "repro_epoch 42" in obs.registry().render_prometheus()
        unsubscribe()


class TestTracingHelpers:
    def test_phase_span_produces_span_and_histogram(self):
        clock = FakeClock()
        obs.configure(clock=clock)
        with obs.phase_span("planner", "edge", label="0-1", epoch=2) as span:
            clock.advance(0.02)
        assert span.name == "planner.edge"
        assert span.attributes == {"label": "0-1", "epoch": 2}
        assert span.duration == pytest.approx(0.02)
        family = obs.registry().get("repro_phase_seconds")
        child = family.labels(layer="planner", phase="edge")
        assert child.count == 1
        assert child.sum == pytest.approx(0.02)

    def test_annotate_reaches_the_active_span(self):
        obs.configure()
        with obs.span("server.query") as span:
            obs.annotate(outcome="ok")
        assert span.attributes["outcome"] == "ok"
        obs.annotate(ignored=True)  # no active span: silently dropped

    def test_spans_total_counts_finished_spans(self):
        obs.configure()
        with obs.span("a"):
            with obs.span("b"):
                pass
        counter = obs.registry().get("repro_spans_total").default()
        assert counter.value == 2.0

    def test_unsampled_phase_span_still_times_the_histogram(self):
        clock = FakeClock()
        obs.configure(sample_rate=0.0, clock=clock)
        with obs.phase_span("server", "query") as span:
            clock.advance(0.1)
        assert span is NULL_SPAN
        child = obs.registry().get("repro_phase_seconds").labels(
            layer="server", phase="query"
        )
        assert child.count == 1

    def test_describe_tracks_span_counts(self):
        obs.configure()
        with obs.span("work"):
            pass
        description = obs.describe()
        assert description["spans_started"] == 1
        assert description["spans_exported"] == 1
        assert description["metric_families"] > 0
