"""``sched-bench``/``serve``/``power sweep`` flag handling: cache-less
runs, sweeps, and configuration errors refused up front."""

import json

import pytest

from repro.cli import main

SMALL = ["--requests", "20", "--rate", "1000", "--modules", "4",
         "--frame", "32", "--deadline-slack-us", "50000"]


def _report(path):
    return json.loads(path.read_text())


class TestCachelessRuns:
    def test_sched_bench_without_cache_completes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["sched-bench", *SMALL, "--cache-kb", "0",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        report = _report(out)
        assert report["completed"] == report["requests"] == 20
        assert report["cache"] is None

    def test_serve_without_cache_completes(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        out = tmp_path / "serve.json"
        assert main(["sched-bench", *SMALL, "--emit-trace", str(trace)]) == 0
        assert main(["serve", str(trace), "--cache-kb", "0",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        report = _report(out)
        assert report["completed"] == report["requests"] == 20


class TestSweep:
    def test_sweep_without_cache_completes(self, tmp_path, capsys):
        out = tmp_path / "curve.json"
        assert main(["sched-bench", *SMALL, "--cache-kb", "0",
                     "--sweep", "1000", "-o", str(out)]) == 0
        capsys.readouterr()
        (point,) = _report(out)
        assert point["completed"] == point["requests"] == 20

    def test_sweep_honours_prefetch_hot(self, tmp_path, capsys):
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        assert main(["sched-bench", *SMALL, "--sweep", "1000",
                     "-o", str(cold)]) == 0
        assert main(["sched-bench", *SMALL, "--sweep", "1000",
                     "--prefetch-hot", "4", "-o", str(warm)]) == 0
        capsys.readouterr()
        (cold_point,), (warm_point,) = _report(cold), _report(warm)
        assert cold_point["cache"]["misses"] > 0
        assert warm_point["cache"]["misses"] == 0

    def test_sweep_matches_the_single_run(self, tmp_path, capsys):
        single, curve = tmp_path / "single.json", tmp_path / "curve.json"
        assert main(["sched-bench", *SMALL, "-o", str(single)]) == 0
        assert main(["sched-bench", *SMALL, "--sweep", "1000",
                     "-o", str(curve)]) == 0
        capsys.readouterr()
        (point,) = _report(curve)
        report = _report(single)
        for entry in (point, report):
            entry.pop("wall_seconds")
        point.pop("arrival_rate_rps")
        assert point == report

    def test_sweep_refuses_per_run_exports(self, tmp_path, capsys):
        chrome = tmp_path / "x.json"
        assert main(["sched-bench", *SMALL, "--sweep", "1000",
                     "--trace-chrome", str(chrome)]) == 2
        err = capsys.readouterr().err
        assert "--sweep cannot be combined with --trace-chrome" in err
        assert not chrome.exists()

    def test_sweep_refuses_emit_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["sched-bench", *SMALL, "--sweep", "1000",
                     "--emit-trace", str(trace)]) == 2
        assert "--emit-trace" in capsys.readouterr().err
        assert not trace.exists()


class TestBadConfigRefused:
    """Config-time errors print one line and exit 2, no traceback."""

    @pytest.mark.parametrize("flag, value, reason", [
        ("--requests", "0", "at least one request"),
        ("--rate", "0", "arrival_rate_rps must be positive"),
        ("--modules", "0", "at least one module"),
        ("--zipf", "-1", "zipf_s must be >= 0"),
    ])
    def test_sched_bench(self, flag, value, reason, capsys):
        assert main(["sched-bench", *SMALL, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("sched-bench: ")
        assert reason in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_serve(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["sched-bench", *SMALL, "--emit-trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["serve", str(trace), "--batch-limit", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "serve: batch_limit must be >= 1\n"

    def test_power_sweep(self, capsys):
        assert main(["power", "sweep", "--caps", "300", "--requests", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "power: a workload needs at least one request\n"


class TestPowerSweepWithoutCache:
    def test_stages_modules_instead_of_a_tiny_arena(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(["power", "sweep", "--caps", "300", "--requests", "20",
                     "--cache-kb", "0", "-o", str(out)]) == 0
        capsys.readouterr()
        for point in _report(out):
            assert point["cache"] is None
            assert point["completed"] == 20
            assert point["deadline_miss_rate"] < 1.0
            assert point["power"]["energy_nj_total"] > 0
