"""Tests for the command-line interface."""

import sys

import pytest

from repro.harness.cli import _parser
from repro.harness.cli import main as cli_main


class TestFigureTargets:
    def test_fig3_table_output(self, capsys):
        assert cli_main(["fig3", "--cores", "16", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "single Q" in out

    def test_plot_format(self, capsys):
        assert (
            cli_main(["fig3", "--cores", "16", "--scale", "0.02", "--format", "plot"])
            == 0
        )
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "|" in out

    def test_csv_format(self, capsys):
        assert (
            cli_main(["fig3", "--cores", "16", "--scale", "0.02", "--format", "csv"])
            == 0
        )
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("figure,workload,protocol")

    def test_json_format(self, capsys):
        import json

        assert (
            cli_main(["fig3", "--cores", "16", "--scale", "0.02", "--format", "json"])
            == 0
        )
        from repro.harness.experiments import KERNEL_PROTOCOLS

        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 6 * len(KERNEL_PROTOCOLS)  # kernels x protocols

    def test_out_directory(self, tmp_path):
        assert (
            cli_main(
                ["fig3", "--cores", "16", "--scale", "0.02", "--out", str(tmp_path)]
            )
            == 0
        )
        assert (tmp_path / "fig3.txt").exists()


class TestRunTarget:
    def test_run_kernel(self, capsys):
        assert (
            cli_main(
                [
                    "run", "--workload", "tatas/counter",
                    "--protocol", "DeNovoSync", "--cores", "16",
                    "--scale", "0.02",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "dynamic energy" in out
        assert "SYNCH" in out

    def test_run_micro(self, capsys):
        assert (
            cli_main(
                ["run", "--workload", "micro/pingpong", "--protocol", "MESI",
                 "--cores", "4"]
            )
            == 0
        )
        assert "micro.pingpong" in capsys.readouterr().out

    def test_run_app_uses_paper_cores(self, capsys):
        assert (
            cli_main(
                ["run", "--workload", "app/ferret", "--protocol", "MESI",
                 "--app-scale", "0.1"]
            )
            == 0
        )
        assert "16 cores" in capsys.readouterr().out

    def test_run_writes_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        assert (
            cli_main(
                ["run", "--workload", "tatas/counter", "--protocol", "MESI",
                 "--cores", "16", "--scale", "0.02", "--trace", str(trace_path)]
            )
            == 0
        )
        assert trace_path.exists()
        from repro.trace.events import read_trace

        assert len(read_trace(trace_path)) > 0

    def test_run_requires_workload(self):
        with pytest.raises(SystemExit):
            cli_main(["run"])

    def test_run_rejects_bad_spec(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--workload", "nonsense"])


class TestProfileTarget:
    def test_profile_prints_hot_functions(self, capsys, tmp_path):
        out_path = tmp_path / "prof.pstats"
        assert (
            cli_main(
                [
                    "profile",
                    "--workload", "tatas/counter",
                    "--protocol", "DeNovoSync",
                    "--cores", "4",
                    "--scale", "0.02",
                    "--top", "5",
                    "--profile-out", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "cumtime" in out  # pstats header
        assert "run_workload" in out  # the profiled entry point
        import pstats

        assert pstats.Stats(str(out_path)).total_calls > 0

    def test_profile_requires_workload(self):
        with pytest.raises(SystemExit):
            cli_main(["profile"])


class TestShellInvocation:
    def test_cores_flag_read_from_sys_argv(self, monkeypatch, capsys):
        """``main()`` without argv parses ``sys.argv`` (the console-script
        and ``python -m`` path); ``--cores`` must override an app's paper
        core count there exactly as with an explicit argv."""
        monkeypatch.setattr(
            sys, "argv",
            ["denovosync-bench", "run", "--workload", "app/LU",
             "--protocol", "MESI", "--cores", "4", "--app-scale", "0.005"],
        )
        assert cli_main() == 0
        assert "LU under MESI on 4 cores" in capsys.readouterr().out


class TestPerTargetFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig3", "--bound", "3"],
            ["chaos", "--jobs", "2"],
            ["serve", "--litmus", "mp"],
            ["status", "--scale", "0.1"],
        ],
    )
    def test_target_rejects_flag_it_does_not_read(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["sanitize"], {"cores": 16, "scale": 0.05}),
            (["chaos"], {"cores": 16, "scale": 0.1, "invariant_level": "full"}),
            (["chaos-service"], {"workers": 2, "scale": 0.3, "cell_deadline": 5.0}),
            (["chaos-service", "--scale", "0.5"], {"scale": 0.5}),
            (["run", "--workload", "tatas/counter"],
             {"cores": None, "invariant_level": "off"}),
            (["mc", "--bound", "-1"], {"bound": None}),
        ],
    )
    def test_target_defaults(self, argv, expected):
        args = _parser().parse_args(argv)
        assert {key: getattr(args, key) for key in expected} == expected
