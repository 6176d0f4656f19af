"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

SMALL = [
    "--seed", "3", "--grid", "10", "10", "--intersections", "25",
    "--buses", "20", "--lines", "4", "--duration", "900",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro-traffic" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestGenerate:
    def test_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "stream.jsonl"
        code = main(["generate", *SMALL, "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "SDEs" in capsys.readouterr().out
        assert out.read_text().count("\n") > 100

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["generate", *SMALL, "--out", str(a)])
        main(["generate", *SMALL, "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestRecognise:
    def test_static(self, capsys):
        code = main(["recognise", *SMALL])
        assert code == 0
        out = capsys.readouterr().out
        assert "static recognition" in out
        assert "scatsCongestion" in out or "busCongestion" in out
        assert "mean recognition time" in out

    def test_adaptive(self, capsys):
        code = main(["recognise", *SMALL, "--adaptive"])
        assert code == 0
        out = capsys.readouterr().out
        assert "self-adaptive recognition" in out


class TestRun:
    def test_full_loop(self, capsys):
        code = main(["run", *SMALL, "--participants", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "operator console summary" in out
        assert "crowd:" in out

    def test_with_map(self, capsys):
        code = main(["run", *SMALL, "--participants", "10", "--map"])
        assert code == 0
        assert "low" in capsys.readouterr().out


class TestMetrics:
    def test_prints_sections(self, capsys):
        code = main(["metrics", *SMALL, "--participants", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-process throughput:" in out
        assert "rtec per-definition timings" in out
        assert "crowd.disagreements" in out
        assert "process.cep-" in out

    def test_json_export(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["metrics", *SMALL, "--participants", "10", "--json", str(path)]
        )
        assert code == 0
        parsed = json.loads(path.read_text())
        assert set(parsed) == {"counters", "gauges", "timings"}
        assert any(
            k.startswith("rtec.definition.") for k in parsed["timings"]
        )

    def test_streams_flag_adds_middleware_metrics(self, capsys):
        code = main(
            ["metrics", *SMALL, "--participants", "10", "--streams"]
        )
        assert code == 0
        assert "streams.process." in capsys.readouterr().out


    def test_streams_wiring_counts_the_rows_it_feeds(self, tmp_path, capsys):
        # The Streams graph runs the loop's own stages, so over a
        # 1,200 s run the ingest, work and per-region query counters
        # agree: one code path records them.
        counters = {}
        for flag in ([], ["--streams"]):
            out = tmp_path / f"m{len(flag)}.json"
            argv = [
                "metrics", *SMALL, "--duration", "1200",
                "--participants", "10", "--json", str(out),
            ]
            assert main(argv + flag) == 0
            counters[bool(flag)] = json.loads(out.read_text())["counters"]
        capsys.readouterr()
        direct, graph = counters[False], counters[True]
        names = [
            name
            for name in direct
            if name == "ingest.events"
            or name.startswith(
                (
                    "rtec.ingest.", "rtec.mirror.", "rtec.close.",
                    "rtec.join.", "rtec.compiled.", "crowd.",
                )
            )
            or (
                name.startswith("process.cep-")
                and name.endswith((".queries", ".items"))
            )
        ]
        assert direct["ingest.events"] > 0
        assert direct["process.cep-central.queries"] == 4
        assert {"rtec.ingest.rows_fed", "rtec.ingest.rows_admitted"} <= set(names)
        assert sum(n.startswith("process.cep-") for n in names) == 2 * 4
        assert {n: graph.get(n) for n in names} == {n: direct[n] for n in names}

    @pytest.mark.parametrize("command", ["run", "metrics"])
    def test_parallel_flag_is_gone(self, capsys, command):
        # The executor backend went; --sharded is the parallel
        # deployment.  argparse's usage error, not a silent no-op.
        with pytest.raises(SystemExit) as exit_info:
            main([command, *SMALL, "--participants", "10", "--parallel"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --parallel" in capsys.readouterr().err


class TestMap:
    def test_prints_map(self, capsys):
        code = main(["map", *SMALL, "--at", "600"])
        assert code == 0
        out = capsys.readouterr().out
        assert "low" in out and "high" in out


class TestCrowd:
    def test_prints_estimates(self, capsys):
        code = main(["crowd", "--queries", "100", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "P10" in out
        assert "peaked posteriors" in out


class TestRecogniseFromFile:
    def test_replays_persisted_stream(self, tmp_path, capsys):
        out = tmp_path / "stream.jsonl"
        main(["generate", *SMALL, "--out", str(out)])
        capsys.readouterr()
        code = main(["recognise", *SMALL, "--input", str(out)])
        assert code == 0
        replayed = capsys.readouterr().out
        code = main(["recognise", *SMALL])
        regenerated = capsys.readouterr().out
        assert code == 0
        # Replaying the persisted stream recognises the same CEs as
        # regenerating it (determinism + lossless round-trip), modulo
        # the timing line.
        def strip_timing(text):
            return [
                line for line in text.splitlines()
                if "recognition time" not in line
            ]
        assert strip_timing(replayed) == strip_timing(regenerated)


class TestMapSvg:
    def test_writes_svg(self, tmp_path, capsys):
        svg = tmp_path / "city.svg"
        code = main(["map", *SMALL, "--at", "600", "--svg", str(svg)])
        assert code == 0
        assert svg.exists()
        assert svg.read_text().startswith("<svg")


class TestFaults:
    def test_lists_profiles(self, capsys):
        code = main(["faults"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lossy_scats" in out
        assert "chaos_day" in out

    def test_show_profile_as_json(self, capsys):
        import json

        code = main(["faults", "--show", "delayed_bus"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["name"] == "delayed_bus"
        assert parsed["bus"]["delay_rate"] > 0

    def test_show_unknown_profile_reports_cleanly(self, capsys):
        code = main(["faults", "--show", "lossy_scat"])
        assert code == 2
        assert "lossy_scats" in capsys.readouterr().err

    def test_dlq_demo_flag_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "--dlq-demo"])
        assert exc.value.code == 2

    def test_run_with_blackout_prints_degraded_timeline(self, capsys):
        code = main([
            "run", *SMALL, "--participants", "10",
            "--faults", "blackout_scats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded intervals:" in out
        assert "'scats' degraded over" in out

    def test_run_rejects_unknown_profile(self, capsys):
        code = main(["run", *SMALL, "--faults", "nope"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestErrorHandling:
    def test_bad_window_step_reports_cleanly(self, capsys):
        code = main(["recognise", *SMALL, "--window", "100", "--step",
                     "500"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "step" in err

    def test_missing_input_file(self, capsys):
        code = main(["recognise", *SMALL, "--input", "/no/such/file.jsonl"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
