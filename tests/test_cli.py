"""End-to-end tests of the command-line interface."""

import json

import pytest

from repro.cli import main


class TestPeriod:
    def test_example_a_overlap(self, capsys):
        assert main(["period", "a"]) == 0
        out = capsys.readouterr().out
        assert "period P           : 189" in out
        assert "yes (P = Mct)" in out

    def test_example_b_breakdown(self, capsys):
        assert main(["period", "b", "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "per-column contributions:" in out
        assert "F0 transmission" in out

    def test_strict_critical_cycle(self, capsys):
        assert main(["period", "a", "--model", "strict", "--critical-cycle"]) == 0
        out = capsys.readouterr().out
        assert "critical cycle" in out

    def test_json_instance(self, tmp_path, capsys):
        from repro.experiments import example_b

        path = tmp_path / "b.json"
        example_b().to_json(path)
        assert main(["period", str(path)]) == 0
        assert "291.667" in capsys.readouterr().out

    def test_error_exit_code(self, capsys):
        assert main(["period", "/nonexistent/file.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_paths(self, capsys):
        assert main(["paths", "a"]) == 0
        out = capsys.readouterr().out
        assert "P0 -> P1 -> P3 -> P6" in out

    def test_cycle(self, capsys):
        assert main(["cycle", "a", "--model", "strict"]) == 0
        out = capsys.readouterr().out
        assert "M_ct = 215.833" in out
        assert "P2" in out

    def test_gantt(self, capsys):
        assert main(["gantt", "a", "--model", "strict", "--firings", "24",
                     "--width", "80"]) == 0
        out = capsys.readouterr().out
        assert "measured period" in out
        assert "resource" in out  # utilization table

    def test_dot_stdout(self, capsys):
        assert main(["dot", "a"]) == 0
        assert "digraph tpn" in capsys.readouterr().out

    def test_dot_file_with_cycle(self, tmp_path, capsys):
        out_file = tmp_path / "net.dot"
        assert main(["dot", "a", "--model", "strict", "--critical-cycle",
                     "--out", str(out_file)]) == 0
        assert "color=red" in out_file.read_text()

    def test_example_dump_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "a.json"
        assert main(["example", "a", "--out", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data["mapping"]["assignments"] == [[0], [1, 2], [3, 4, 5], [6]]

    def test_example_stdout(self, capsys):
        assert main(["example", "b"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["platform"]["speeds"]) == 7

    def test_latency_saturated(self, capsys):
        assert main(["latency", "a", "--datasets", "12"]) == 0
        out = capsys.readouterr().out
        assert "saturated" in out
        assert "mean latency" in out

    def test_latency_paced_per_dataset(self, capsys):
        assert main(["latency", "a", "--datasets", "6", "--inject", "5000",
                     "--per-dataset"]) == 0
        out = capsys.readouterr().out
        assert "paced, one data set every 5000" in out
        assert "data set    0" in out

    def test_search(self, capsys):
        assert main(["search", "b", "--refine", "--iters", "5"]) == 0
        out = capsys.readouterr().out
        assert "greedy period" in out
        assert "refined period" in out
        assert "input mapping" in out

    def test_optimize(self, tmp_path, capsys):
        json_path = tmp_path / "portfolio.json"
        csv_path = tmp_path / "restarts.csv"
        assert main(["optimize", "b", "--restarts", "3", "--budget", "120",
                     "--json", str(json_path), "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "best period" in out
        assert "greedy" in out
        assert "input mapping" in out
        data = json.loads(json_path.read_text())
        assert data["evaluations"] <= 120
        assert csv_path.read_text().startswith("index,kind,seed,period")

    def test_optimize_zero_budget_degrades_gracefully(self, capsys):
        assert main(["optimize", "b", "--budget", "0"]) == 0
        out = capsys.readouterr().out
        assert "budget exhausted before any restart" in out
        assert "inf" in out

    def test_optimize_warm_start_same_best_period(self, capsys):
        assert main(["optimize", "b", "--model", "strict", "--restarts", "2",
                     "--budget", "60", "--max-rows", "200"]) == 0
        cold = capsys.readouterr().out
        assert main(["optimize", "b", "--model", "strict", "--restarts", "2",
                     "--budget", "60", "--max-rows", "200",
                     "--warm-start"]) == 0
        warm = capsys.readouterr().out
        pick = lambda s: [l for l in s.splitlines() if "best period" in l]
        assert pick(cold) == pick(warm)

    def test_table2_tiny(self, capsys):
        assert main(["table2", "--scale", "0.002", "--models", "overlap",
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "With overlap:" in out

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "4", "--count", "5", "--model", "strict",
         "--jobs", "-2"],
        ["optimize", "b", "--restarts", "2", "--budget", "40", "--jobs", "-1"],
    ])
    def test_negative_jobs_is_a_clean_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n_jobs must be")
        assert f"got {argv[-1]}" in err

    def test_certify(self, capsys):
        assert main(["certify", "b"]) == 0
        out = capsys.readouterr().out
        assert "provably optimal" in out
        assert "291.667" in out

    def test_gantt_svg(self, tmp_path, capsys):
        svg_path = tmp_path / "a.svg"
        assert main(["gantt", "a", "--model", "strict", "--firings", "16",
                     "--svg", str(svg_path)]) == 0
        assert svg_path.read_text().startswith("<svg")

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestUnifiedFormat:
    """--format {text,json}: one machine-output convention (PR 10)."""

    def test_optimize_json_stdout(self, capsys):
        assert main(["optimize", "a", "--restarts", "2", "--budget", "60",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["evaluations"] <= 60
        assert data["period"] > 0 and data["allocator"] == "fair-share"

    def test_optimize_text_is_default(self, capsys):
        assert main(["optimize", "a", "--restarts", "2",
                     "--budget", "60"]) == 0
        out = capsys.readouterr().out
        assert "portfolio" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_optimize_objectives_text(self, capsys):
        assert main(["optimize", "a", "--objectives", "period,latency",
                     "--restarts", "2", "--budget", "60",
                     "--iters", "10"]) == 0
        out = capsys.readouterr().out
        assert "objectives     : period, latency" in out
        assert "pareto front" in out

    def test_optimize_objectives_json(self, tmp_path, capsys):
        out_file = tmp_path / "front.json"
        assert main(["optimize", "a", "--objectives", "period,latency",
                     "--restarts", "2", "--budget", "60", "--iters", "10",
                     "--format", "json", "--json", str(out_file)]) == 0
        stdout_data = json.loads(capsys.readouterr().out)
        file_data = json.loads(out_file.read_text())
        assert stdout_data == file_data
        assert stdout_data["objectives"] == ["period", "latency"]
        assert stdout_data["front"]
        for entry in stdout_data["front"]:
            assert entry["period"] > 0 and entry["latency"] > 0

    def test_optimize_objectives_allocator_choice(self, capsys):
        assert main(["optimize", "a", "--objectives", "period,latency",
                     "--allocator", "weighted-sum", "--restarts", "2",
                     "--budget", "60", "--iters", "10",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["allocator"] == "weighted-sum"

    def test_campaign_run_and_report_json(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "name": "fmt-demo", "draws": 2, "models": ["overlap"],
            "applications": [{"workload": "audio-pipeline"}],
            "platforms": [{"n_procs": 6}],
            "replications": [{"policy": "balls"}],
            "max_paths": 200,
            "objectives": ["period", "latency"],
        }))
        store = str(tmp_path / "s.sqlite")
        assert main(["campaign", "run", str(spec_file), "--store", store,
                     "--format", "json"]) == 0
        run_data = json.loads(capsys.readouterr().out)
        assert run_data["complete"]
        assert main(["campaign", "report", str(spec_file),
                     "--store", store, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["objectives"]["names"] == ["period", "latency"]
        assert main(["campaign", "status", str(spec_file),
                     "--store", store, "--format", "json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["pending"] == 0

    def test_sweep_json(self, capsys):
        assert main(["sweep", "--family", "4", "--count", "3",
                     "--jobs", "1", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiments"] == len(data["records"]) == 3
        assert all(r["period"] > 0 for r in data["records"])
