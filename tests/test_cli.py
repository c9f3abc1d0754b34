import itertools
import json
import os
import subprocess
import sys

import numpy as np

from bregblock.cli import main
from bregblock.io import read_labels, read_matrix


def run_cli(*args):
    return main(list(args))


def parse_summary(capsys):
    captured = capsys.readouterr().out
    fields = {}
    for line in captured.splitlines():
        if ":" in line:
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    return fields


class TestSynthSolvePipeline:
    def test_small_pipeline(self, tmp_path, capsys):
        x_path = tmp_path / "x.mtx"
        assert run_cli("synth", "--m", "12", "--r", "2", "--noise", "0",
                       "--seed", "7", "--out", str(x_path)) == 0
        assert x_path.exists()
        assert (tmp_path / "x_U.mtx").exists() and (tmp_path / "x_V.mtx").exists()
        capsys.readouterr()

        trace = tmp_path / "trace.json"
        factors = tmp_path / "factors"
        labels = tmp_path / "labels.txt"
        code = run_cli(
            "solve", "--input", str(x_path), "--rank", "2",
            "--max-iters", "3000",
            "--trace-out", str(trace), "--factors-out", str(factors),
            "--labels-out", str(labels),
        )
        summary = parse_summary(capsys)
        assert code == 0
        assert float(summary["relative_error"]) <= 1e-3
        assert summary["termination"] in ("residual_tol", "max_iters")

        rows = json.loads(trace.read_text())
        assert rows[0]["k"] == 0
        assert sorted(rows[0]) == ["gaps", "k", "lyapunov", "phi", "residual", "seconds"]

        U = read_matrix(tmp_path / "factors_U.mtx", require_square=False)
        V = read_matrix(tmp_path / "factors_V.mtx", require_square=False)
        assert U.shape == (12, 2) and V.shape == (2, 2)
        assert (U >= 0).all() and (V >= 0).all()

        planted_U = read_matrix(tmp_path / "x_U.mtx", require_square=False)
        got = read_labels(labels)
        planted = np.argmax(planted_U, axis=1)
        matched = any(
            np.array_equal(np.array([perm[g] for g in got]), planted)
            for perm in itertools.permutations(range(2))
        )
        assert matched

    def test_rank_zero_exits_two(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        x_path.write_text("0,1\n1,0\n")
        assert run_cli("solve", "--input", str(x_path), "--rank", "0") == 2

    def test_nan_entry_exits_two(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        x_path.write_text("0,nan\nnan,0\n")
        assert run_cli("solve", "--input", str(x_path), "--rank", "1") == 2
        assert "NaN or infinite" in capsys.readouterr().err

    def test_inf_entry_exits_two(self, tmp_path, capsys):
        x_path = tmp_path / "x.mtx"
        x_path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\ninf\ninf\n1\n")
        assert run_cli("solve", "--input", str(x_path), "--rank", "1") == 2
        assert "NaN or infinite" in capsys.readouterr().err

    def test_missing_input_file_exits_one(self, tmp_path):
        assert run_cli("solve", "--input", str(tmp_path / "nope.mtx"), "--rank", "2") == 1

    def test_missing_required_flags_exit_two(self):
        assert run_cli("solve") == 2

    def test_malformed_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,frog\n")
        assert run_cli("solve", "--input", str(bad), "--rank", "1") == 1

    def test_unknown_subcommand_exits_two(self):
        assert run_cli("frobnicate") == 2


class TestConfigFile:
    def test_config_supplies_values_and_flags_win(self, tmp_path, capsys):
        x_path = tmp_path / "x.mtx"
        run_cli("synth", "--m", "8", "--r", "2", "--noise", "0.2", "--seed", "1",
                "--out", str(x_path))
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment configuration\n"
            f"input = {x_path}\n"
            "rank = 2\n"
            "max-iters = 4\n"
            "kappa = 0.3\n"
        )
        code = run_cli("solve", "--config", str(cfg))
        summary = parse_summary(capsys)
        assert code == 0
        assert summary["iterations"] == "4"  # from config

        code = run_cli("solve", "--config", str(cfg), "--max-iters", "7")
        summary = parse_summary(capsys)
        assert code == 0
        assert summary["iterations"] == "7"  # flag beats config

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rank = 2\nwibble = 3\n")
        assert run_cli("solve", "--config", str(cfg)) == 2


class TestCheck:
    def test_defaults_pass(self, capsys):
        assert run_cli("check") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == 0
        assert payload["grad_max_rel_err"] <= 1e-6
        assert payload["oracle_max_model_gap"] <= 1e-8

    def test_explicit_instance(self, tmp_path, capsys):
        x_path = tmp_path / "x.mtx"
        run_cli("synth", "--m", "6", "--r", "2", "--noise", "0.5", "--seed", "3",
                "--out", str(x_path))
        capsys.readouterr()
        assert run_cli("check", "--input", str(x_path), "--rank", "2",
                       "--samples", "60") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == 0


class TestBench:
    def test_grid_shape_and_header(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            "bench", "--m", "8", "--rank", "2", "--noise", "0", "--instance-seed", "1",
            "--kappas", "0,0.5", "--seeds", "1,2", "--max-iters", "40",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kappa,seed,iters_to_tol,final_phi,wall_seconds"
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            kappa, seed, iters, phi, wall = line.split(",")
            assert float(kappa) in (0.0, 0.5)
            assert int(seed) in (1, 2)
            assert int(iters) <= 40
            assert float(phi) >= 0.0
            assert float(wall) >= 0.0


class TestDeterminism:
    def test_trace_byte_identical_without_timing(self, tmp_path):
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        x_path = tmp_path / "x.mtx"
        subprocess.run(
            [sys.executable, "-m", "bregblock", "synth", "--m", "10", "--r", "2",
             "--noise", "0.1", "--seed", "2", "--out", str(x_path)],
            check=True, env=env, capture_output=True,
        )
        traces = []
        for tag in ("a", "b"):
            trace = tmp_path / f"trace_{tag}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "bregblock", "solve", "--input", str(x_path),
                 "--rank", "2", "--seed", "5", "--max-iters", "60",
                 "--no-timing", "--trace-out", str(trace)],
                check=True, env=env, capture_output=True,
            )
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1]

    def test_numeric_fields_identical_with_timing(self, tmp_path, capsys):
        x_path = tmp_path / "x.mtx"
        run_cli("synth", "--m", "8", "--r", "2", "--noise", "0", "--seed", "3",
                "--out", str(x_path))
        capsys.readouterr()
        payloads = []
        for tag in ("a", "b"):
            trace = tmp_path / f"t{tag}.json"
            assert run_cli("solve", "--input", str(x_path), "--rank", "2",
                           "--max-iters", "30", "--trace-out", str(trace)) == 0
            rows = json.loads(trace.read_text())
            payloads.append([(r["k"], r["phi"], r["lyapunov"], r["residual"], tuple(r["gaps"]))
                             for r in rows])
        assert payloads[0] == payloads[1]
