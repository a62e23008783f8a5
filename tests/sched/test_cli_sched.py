"""``sched-bench``/``serve`` flag handling: cache-less runs and sweeps."""

import json

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
