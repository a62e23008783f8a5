"""Satellite: two identical traced runs produce byte-identical artifacts."""

from repro.cli import main


def _run_reconfig(tmp_path, tag):
    chrome = tmp_path / f"trace_{tag}.json"
    prom = tmp_path / f"metrics_{tag}.prom"
    rc = main([
        "reconfig", "sobel",
        "--trace-chrome", str(chrome),
        "--metrics", str(prom),
    ])
    assert rc == 0
    return chrome.read_bytes(), prom.read_bytes()


class TestTraceDeterminism:
    def test_reconfig_chrome_trace_byte_identical(self, tmp_path, capsys):
        chrome_a, prom_a = _run_reconfig(tmp_path, "a")
        chrome_b, prom_b = _run_reconfig(tmp_path, "b")
        capsys.readouterr()
        assert chrome_a == chrome_b
        assert prom_a == prom_b
        assert chrome_a  # non-empty artifact

    def test_trace_subcommand_all_artifacts_identical(self, tmp_path, capsys):
        outputs = []
        for tag in ("a", "b"):
            paths = {
                "--chrome": tmp_path / f"t{tag}.json",
                "--vcd": tmp_path / f"t{tag}.vcd",
                "--metrics": tmp_path / f"t{tag}.prom",
                "--metrics-json": tmp_path / f"t{tag}.mjson",
            }
            argv = ["trace", "sobel", "--no-breakdown"]
            for flag, path in paths.items():
                argv += [flag, str(path)]
            assert main(argv) == 0
            outputs.append({k: p.read_bytes() for k, p in paths.items()})
        capsys.readouterr()
        for flag in outputs[0]:
            assert outputs[0][flag] == outputs[1][flag], flag

    def test_trace_and_reconfig_write_the_same_chrome_trace(
            self, tmp_path, capsys):
        trace_out = tmp_path / "a.json"
        reconfig_out = tmp_path / "b.json"
        assert main(["trace", "sobel", "--chrome", str(trace_out)]) == 0
        assert main(["reconfig", "sobel",
                     "--trace-chrome", str(reconfig_out)]) == 0
        capsys.readouterr()
        assert trace_out.read_bytes() == reconfig_out.read_bytes()
