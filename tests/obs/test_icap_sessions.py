"""ICAP session spans cover exactly one SYNC..DESYNC each.

The ~259 padding words after a DESYNC reach an unsynced device, which
ignores them; they must not open a session of their own.  Otherwise
every multi-DPR trace carries a phantom session that overlaps the
previous DPR and stays open at the end, and span-integrated ICAP
energy over-counts.
"""

import pytest

from repro.drivers.manager import ReconfigurationManager
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap
from repro.obs import Observability
from repro.soc.builder import build_soc


@pytest.fixture(scope="module")
def two_dprs():
    soc = build_soc()
    obs = soc.attach_observability()
    manager = ReconfigurationManager(soc)
    manager.provision_sdcard()
    manager.init_rmodules()
    manager.load_module("sobel")
    manager.load_module("median")
    return obs.tracer


class TestSessionSpans:
    def test_no_open_icap_span_after_a_dpr(self, two_dprs):
        assert two_dprs.open_span("icap") is None
        assert all(span.end_cycle is not None
                   for span in two_dprs.find("icap", "session"))

    def test_one_ok_session_inside_each_dpr(self, two_dprs):
        sessions = two_dprs.find("icap", "session")
        dprs = two_dprs.find("driver", "reconfig")
        assert len(sessions) == len(dprs) == 2
        for session, dpr in zip(sessions, dprs):
            assert session.args["status"] == "ok"
            assert dpr.start_cycle <= session.start_cycle
            assert session.end_cycle <= dpr.end_cycle

    def test_sessions_do_not_overlap(self, two_dprs):
        first, second = two_dprs.find("icap", "session")
        assert first.end_cycle <= second.start_cycle

    def test_session_starts_with_the_stream(self, two_dprs):
        # the sync word rides the first DMA burst into the ICAP
        transfer = two_dprs.find("dma.mm2s", "transfer")[0]
        session = two_dprs.find("icap", "session")[0]
        assert transfer.start_cycle < session.start_cycle
        assert session.end_cycle <= transfer.end_cycle

    def test_session_signal_cycles_never_decrease(self, two_dprs):
        changes = two_dprs.signals["icap_session"]
        cycles = [cycle for cycle, _value in changes]
        assert cycles == sorted(cycles)
        assert [value for _cycle, value in changes] == [1, 0, 1, 0]


class TestSessionOpening:
    @pytest.fixture()
    def port_and_stream(self, shared_manager):
        soc, _manager = shared_manager
        stream = soc.bitgen.generate(soc.rp, soc.module("sobel")).to_bytes()
        icap = Icap(ConfigMemory(KINTEX7_325T))
        obs = Observability()
        icap.attach_obs(obs)
        return icap, obs.tracer, stream

    def test_whole_stream_in_one_chunk_is_one_session(self, port_and_stream):
        icap, tracer, stream = port_and_stream
        icap.accept(stream, 100)
        (session,) = tracer.find("icap", "session")
        assert session.start_cycle == 100
        assert session.end_cycle is not None

    def test_padding_alone_opens_no_session(self, port_and_stream):
        icap, tracer, _stream = port_and_stream
        icap.accept(b"\x20\x00\x00\x00" * 64, 0)  # type-1 NOPs, unsynced
        assert tracer.find("icap", "session") == []
        assert icap.words_consumed == 64
