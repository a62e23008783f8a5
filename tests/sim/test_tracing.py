"""A reconfiguration as the obs spans, metrics and component counters
record it, and the console views ``repro reconfig`` prints from them."""

from repro.obs import MetricsRegistry, render_stats, render_timeline


class TestFormatStats:
    def test_empty_stats_formats_to_empty_string(self):
        assert render_stats(MetricsRegistry()) == ""

    def test_mixed_value_types(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("bb").set(2.5)
        registry.histogram("ccc").record(7)
        lines = render_stats(registry).splitlines()
        assert lines == ["a    1", "bb   2.5",
                         "ccc  count=1 p50=7 p99=7 max=7"]


class TestSocIntegration:
    def test_trace_captures_reconfiguration(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        obs = soc.attach_observability()
        manager.load_module("sobel")
        tracer = obs.tracer
        # the DMA transfer starts, then completes, moving the whole pbit
        (transfer,) = tracer.find("dma.mm2s", "transfer")
        assert transfer.start_cycle < transfer.end_cycle
        assert transfer.args["length"] == 650892
        assert transfer.args["bytes"] == 650892
        assert transfer.args["status"] == "ok"
        (session,) = tracer.find("icap", "session")
        assert session.args["status"] == "ok"
        assert obs.metrics.get("driver_reconfigurations_total").value == 1
        assert obs.metrics.get("icap_sessions_total").value == 1

    def test_stats_snapshot(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        obs = soc.attach_observability()
        manager.load_module("median")
        assert soc.icap.reconfigurations_completed == 1
        assert soc.config_memory.frames_written == soc.rp.frames
        assert soc.ddr.bytes_read >= 650_892
        assert soc.plic.claims == 1
        assert not soc.icap.error
        text = render_stats(obs.metrics)
        assert "icap_sessions_total" in text
        assert "dma_mm2s_bytes_total" in text

    def test_timeline_rendering(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        obs = soc.attach_observability()
        manager.load_module("gaussian")
        timeline = render_timeline(obs.tracer, soc.sim.freq_hz)
        assert "us]" in timeline and "dma.mm2s" in timeline
        assert "status=ok" in timeline
        # one line per span and instant, in cycle order
        lines = timeline.splitlines()
        assert len(lines) == len(obs.tracer.spans) + len(obs.tracer.instants)
        starts = [float(line[1:line.index(" us]")]) for line in lines]
        assert starts == sorted(starts)
        # nested driver phases indent under the reconfig root
        assert any(" driver         decision (" in line for line in lines)
