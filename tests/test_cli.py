"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "tmt_sym"])
        assert args.solver == "pcg"
        assert args.precond == "ic0"
        assert args.color is True

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "tmt_sym"])
        assert args.pe == "azul"
        assert args.rows == 8

    def test_run_passes_every_runner_flag_through_unchanged(
            self, monkeypatch):
        from repro.experiments import runner

        argv = [
            "fig21", "--list", "--filter", "sim", "--filter", "paper",
            "--plan", "--resume", "--keep-going", "--matrices", "a", "b",
            "--csv-dir", "out", "--cache-stats", "--jobs", "3",
            "--trace", "t.json", "--metrics", "fig22",
        ]
        seen = []
        monkeypatch.setattr(runner, "main",
                            lambda args: seen.append(args) or 7)
        assert main(["run", *argv]) == 7
        assert seen == [argv]

    def test_run_help_is_the_runners(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["run", "--help"])
        assert exited.value.code == 0
        out = capsys.readouterr().out
        jobs_help = " ".join(
            out.split("  --jobs N")[1].split("  --")[0].split())
        assert "min(8, CPU count)" in jobs_help
        assert "placement" in jobs_help

    def test_other_commands_reject_unknown_flags(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["suite", "--bogus"])
        assert exited.value.code == 2
        assert "--bogus" in capsys.readouterr().err


class TestCommands:
    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "thermal2" in out
        assert "crankseg_1" in out

    def test_solve_suite_matrix(self, capsys):
        code = main([
            "solve", "tmt_sym", "--precond", "jacobi", "--tol", "1e-8",
        ])
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_solve_mtx_file(self, tmp_path, capsys):
        from repro.sparse import write_matrix_market
        from repro.sparse.generators import random_spd

        path = tmp_path / "system.mtx"
        write_matrix_market(path, random_spd(40, seed=1), symmetric=True)
        assert main(["solve", str(path)]) == 0

    def test_solve_unknown_matrix(self):
        with pytest.raises(SystemExit):
            main(["solve", "not_a_matrix"])

    def test_solve_nonconvergent_exit_code(self, capsys):
        code = main([
            "solve", "tmt_sym", "--precond", "none", "--max-iters", "1",
        ])
        assert code == 1

    def test_map_block(self, capsys):
        code = main([
            "map", "tmt_sym", "--mapper", "block",
            "--rows", "4", "--cols", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "link activations" in out

    def test_simulate_block(self, capsys):
        code = main([
            "simulate", "tmt_sym", "--mapper", "block",
            "--rows", "4", "--cols", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GFLOP/s" in out
        assert "end-to-end" in out

    def test_run_list(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig20" in out
        assert "abl_trees" in out
