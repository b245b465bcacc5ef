"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "themis"
        assert args.nodes == 24

    def test_algorithm_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "-a", "raft"])

    def test_figure_name_positional(self):
        args = build_parser().parse_args(["figure", "fig4", "-n", "10"])
        assert args.name == "fig4"
        assert args.nodes == 10

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.seeds == "5"
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.no_cache is False

    def test_jobs_flag_on_every_command(self):
        for command in (["run"], ["sweep"], ["compare"], ["figure", "fig4"]):
            args = build_parser().parse_args([*command, "--jobs", "3"])
            assert args.jobs == 3

    def test_localnet_defaults(self):
        args = build_parser().parse_args(["localnet"])
        assert args.nodes == 4
        assert args.height == 5
        assert args.sign is False

    def test_run_node_requires_manifest_and_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-node"])
        args = build_parser().parse_args(
            ["run-node", "--manifest", "m.json", "--node-id", "2"]
        )
        assert args.manifest == "m.json"
        assert args.node_id == 2


class TestCommands:
    def test_run_command(self, capsys, tmp_path):
        save = tmp_path / "record.json"
        code = main(
            [
                "run",
                "-a",
                "themis",
                "-n",
                "8",
                "--epochs",
                "2",
                "--seed",
                "1",
                "--save",
                str(save),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "themis" in out
        assert "sigma_f^2" in out
        assert save.exists()

    def test_compare_command(self, capsys):
        code = main(["compare", "-n", "8", "--epochs", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("themis", "themis-lite", "pow-h", "pbft"):
            assert name in out

    def test_figure_fig9(self, capsys):
        code = main(["figure", "fig9", "-n", "8", "--epochs", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "stable" in out

    def test_unknown_figure(self, capsys):
        code = main(["figure", "fig99", "-n", "8"])
        assert code == 2


class TestSweepCommand:
    ARGS = ["sweep", "-a", "themis", "-n", "8", "--epochs", "2", "--seeds", "2"]

    def test_sweep_reports_stats(self, capsys, tmp_path):
        code = main([*self.ARGS, "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "tps:" in out and "stable σ_f²:" in out
        assert "engine: 2 tasks (2 unique), 2 executed" in out
        assert "cache: hits=0 misses=2" in out

    def test_sweep_replays_from_cache(self, capsys, tmp_path):
        main([*self.ARGS, "--cache-dir", str(tmp_path)])
        first = capsys.readouterr().out
        code = main([*self.ARGS, "--cache-dir", str(tmp_path)])
        second = capsys.readouterr().out
        assert code == 0
        assert "0 executed, 2 cache hits" in second
        assert "cache: hits=2 misses=0 hit_rate=100.0%" in second
        # Identical metric lines: the replay is byte-faithful.
        assert first.splitlines()[:3] == second.splitlines()[:3]

    def test_sweep_no_cache(self, capsys, tmp_path):
        code = main([*self.ARGS, "--no-cache", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "cache:" not in out

    def test_sweep_explicit_seed_list(self, capsys, tmp_path):
        code = main(
            ["sweep", "-a", "themis", "-n", "8", "--epochs", "2",
             "--seeds", "3,7", "--cache-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "seed=3" in out and "seed=7" in out

    def test_sweep_save(self, capsys, tmp_path):
        save = tmp_path / "records.json"
        code = main([*self.ARGS, "--no-cache", "--save", str(save)])
        assert code == 0
        assert save.exists()


class TestLintCommand:
    """``repro lint`` hands every argument after it to the linter's own CLI."""

    def test_options_before_paths_are_forwarded(self, capsys, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = main(["lint", "--format", "json", "--statistics", str(tmp_path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["files_checked"] == 1

    def test_option_only_form_is_forwarded(self, capsys):
        code = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        assert "REP001" in out and "clean:" not in out
