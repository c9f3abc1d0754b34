import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from bregblock import cli
from bregblock import symtrinmf as stf
from bregblock.cli import main
from bregblock.io import read_labels, read_matrix, synth_instance, write_matrix_market

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    return main(list(args))


def child_env():
    """The environment of a child ``python -m bregblock``: it imports the
    package from this checkout, installed or not, on one BLAS thread."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONPATH=pythonpath)


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
        # near the fit, where f_value forms the dense residual
        inst = stf.SymTriInstance(read_matrix(x_path), 2)
        assert summary["relative_error"] == "%.17g" % stf.relative_error(inst, U, V)
        assert (U >= 0).all() and (V >= 0).all()

        planted_U = read_matrix(tmp_path / "x_U.mtx", require_square=False)
        got = read_labels(labels)
        planted = np.argmax(planted_U, axis=1)
        matched = any(
            np.array_equal(np.array([perm[g] for g in got]), planted)
            for perm in itertools.permutations(range(2))
        )
        assert matched

    @pytest.mark.parametrize("scale, iters", [(1.0, "0"), (1.0, "200"), (0.0, "20")])
    def test_printed_relative_error_is_that_of_the_written_factors(self, tmp_path, capsys,
                                                                     scale, iters):
        # that of the factors as written; at X = 0 it is the absolute residual
        X, _, _ = synth_instance(30, 3, seed=7)
        x_path = tmp_path / "x.mtx"
        write_matrix_market(x_path, scale * X)
        assert run_cli("solve", "--input", str(x_path), "--rank", "3", "--max-iters", iters,
                       "--factors-out", str(tmp_path / "f")) == 0
        printed = parse_summary(capsys)["relative_error"]
        U = read_matrix(tmp_path / "f_U.mtx", require_square=False)
        inst = stf.SymTriInstance(read_matrix(x_path), 3)
        assert printed == "%.17g" % stf.relative_error(inst, U, read_matrix(tmp_path / "f_V.mtx"))
        assert (inst.norm_X == 0.0) == (scale == 0.0)

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

    def test_overflowing_norm_exits_two(self, tmp_path, capsys):
        x_path = tmp_path / "x.mtx"
        X, _, _ = synth_instance(30, 3, seed=7)
        write_matrix_market(x_path, X * 1e200)
        with np.errstate(over="ignore"):
            assert run_cli("solve", "--input", str(x_path), "--rank", "3") == 2
        assert "X must be rescaled" in capsys.readouterr().err

    @pytest.mark.parametrize("c", [1e25, 1e50, 1e100, 1e150])
    def test_overflowing_cubic_exits_one(self, tmp_path, capsys, c):
        # ||X|| stays finite, but the U update's cubic overflows
        x_path = tmp_path / "x.mtx"
        X, _, _ = synth_instance(30, 3, seed=7)
        write_matrix_market(x_path, X * c)
        with np.errstate(over="ignore"):
            assert run_cli("solve", "--input", str(x_path), "--rank", "3") == 1
        err = capsys.readouterr().err
        assert "cubic" in err and "X must be rescaled" in err

    @pytest.mark.parametrize("flag", ["--eps1=1e140", "--a1=1e250"])
    def test_overflowing_cubic_names_the_kernel_parameters(self, tmp_path, capsys, flag):
        # X is the acceptance instance as it is; the kernel parameter
        # overflows the U update's cubic
        x_path = tmp_path / "x.mtx"
        write_matrix_market(x_path, synth_instance(30, 3, seed=7)[0])
        assert run_cli("solve", "--input", str(x_path), "--rank", "3", flag) == 1
        err = capsys.readouterr().err
        assert "X must be rescaled" in err and "a1 or eps1" in err

    def test_asymmetric_input_is_refused_naming_the_flag(self, tmp_path):
        # without --symmetrize the instance refuses X, with no traceback; with
        # it, the warning reaches stderr from cli's line
        x_path = tmp_path / "x.mtx"
        x_path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n0\n2\n1\n")
        for flags, code, named in (((), 2, "error: X is not symmetric; pass (X + X^T)/2 "
                                    "(--symmetrize to bregblock solve, check or bench)"),
                                   (("--symmetrize",), 0, "X was replaced by (X + X^T)/2")):
            proc = subprocess.run(
                [sys.executable, "-m", "bregblock", "solve", "--input", str(x_path),
                 "--rank", "1", "--max-iters", "2", *flags],
                env=child_env(), capture_output=True, text=True,
            )
            assert proc.returncode == code, proc.stderr
            assert named in proc.stderr and "Traceback" not in proc.stderr
            assert ("cli.py:" in proc.stderr) == bool(flags) and "<string>" not in proc.stderr

    def test_missing_input_file_exits_one(self, tmp_path):
        assert run_cli("solve", "--input", str(tmp_path / "nope.mtx"), "--rank", "2") == 1

    def test_missing_required_flags_exit_two(self, capsys):
        assert run_cli("solve") == 2
        assert "the following arguments are required: --input, --rank" in capsys.readouterr().err

    def test_malformed_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,frog\n")
        assert run_cli("solve", "--input", str(bad), "--rank", "1") == 1

    @pytest.mark.parametrize("name, data, line", [
        ("latin1.mtx", b"%%MatrixMarket matrix array real general\n% caf\xe9\n1 1\n1\n", 2),
        ("x.npy", None, 1),  # a binary file
    ])
    def test_file_that_is_not_utf8_exits_one_naming_its_line(self, tmp_path, capsys, name,
                                                            data, line):
        path = tmp_path / name
        if data is None:
            np.save(path, np.eye(3))
        else:
            path.write_bytes(data)
        assert run_cli("solve", "--input", str(path), "--rank", "1") == 1
        assert f"error: {path}:{line}: cannot decode byte 0x" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self):
        assert run_cli("frobnicate") == 2

    @pytest.mark.parametrize("m, r", [(3, 5), (0, 1)])
    def test_synth_bad_sizes_exit_two(self, tmp_path, capsys, m, r):
        assert run_cli("synth", "--m", str(m), "--r", str(r), "--out", str(tmp_path / "x.mtx")) == 2
        assert "need 1 <= r <= m" in capsys.readouterr().err
        assert not (tmp_path / "x.mtx").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-inf"])
    def test_non_finite_noise_exits_two_without_writing(self, tmp_path, capsys, noise):
        out = tmp_path / "n.mtx"
        assert run_cli("synth", "--m", "5", "--r", "2", f"--noise={noise}", "--out", str(out)) == 2
        assert "noise_level must be finite and nonnegative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_synth_negative_seed_exits_two(self, tmp_path, capsys):
        assert run_cli("synth", "--m", "5", "--r", "2", "--seed", "-1",
                       "--out", str(tmp_path / "x.mtx")) == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be >= 0" in err and "Traceback" not in err
        assert not (tmp_path / "x.mtx").exists()

    @pytest.mark.parametrize("args, named", [
        (("solve", "--rank", "3", "--kappa", "1.5"), "kappa must lie in [0, 1), got 1.5"),
        (("solve", "--rank", "3", "--rho", "0"), "rho must lie in (0, 1], got 0.0"),
        (("solve", "--rank", "3", "--max-iters", "-1"), "max_iters must be nonnegative, got -1"),
        (("solve", "--rank", "3", "--residual-tol=-1e-8"), "residual_tol must be nonnegative"),
        (("bench", "--rank", "2", "--kappas", "0", "1.5", "--out", "unused.csv"),
         "kappa must lie in [0, 1), got 1.5"),
        (("bench", "--rank", "2", "--rho", "2", "--out", "unused.csv"), "rho must lie in (0, 1], got 2.0"),
        (("bench", "--rank", "2", "--max-iters", "-1", "--out", "unused.csv"),
         "max_iters must be nonnegative, got -1"),
        (("solve", "--rank", "3", "--seed", "-1"), "argument --seed: must be >= 0, got -1"),
        (("bench", "--rank", "2", "--seeds=-1", "--out", "unused.csv"),
         "argument --seeds: must be >= 0, got -1"),
        (("bench", "--rank", "2", "--seeds", "1", "-1", "--out", "unused.csv"),
         "argument --seeds: must be >= 0, got -1"),
        (("bench", "--rank", "2", "--seeds", "", "--out", "unused.csv"),
         "argument --seeds: invalid int value: ''"),
        (("bench", "--rank", "2", "--kappas", "", "--out", "unused.csv"),
         "argument --kappas: invalid float value: ''"),
        (("bench", "--rank", "2", "--kappas", "--out", "unused.csv"),
         "argument --kappas: expected at least one argument"),
        (("check", "--rank", "2", "--seed", "-1"), "argument --seed: must be >= 0, got -1"),
        (("check", "--rank", "2", "--samples", "0"), "argument --samples: must be >= 1, got 0"),
        (("solve", "--rank", "2", "--a1", "0"), "a1 must be positive, got 0.0"),
        (("solve", "--rank", "2", "--eps1", "nan"), "eps1 must be positive, got nan"),
        (("solve", "--rank", "2", "--eps2", "-1"), "eps2 must be positive, got -1.0"),
        (("solve", "--rank", "3", "--a1", "inf"), "a1 must be finite, got inf"),
        (("solve", "--rank", "3", "--eps1", "inf"), "eps1 must be finite, got inf"),
        (("solve", "--rank", "3", "--eps2", "inf"), "eps2 must be finite, got inf"),
        (("solve", "--rank", "3", "--a1", "1e-320"), "6/a1 must be finite"),  # 6/a1 overflows
        (("solve", "--rank", "3", "--eps1", "1e308"), "2*eps1 must be finite"),  # 2*eps1 overflows
        # sigma1 * gamma1 underflows
        (("solve", "--rank", "3", "--a1", "1e-170", "--eps1", "1e-170"), "block 0: sigma*gamma ="),
        # sigma1 * L1 overflows
        (("solve", "--rank", "3", "--a1", "1e-200", "--eps1", "1e200"), "block 0: sigma*L ="),
        # 1/gamma overflows: the upper end of block 0's delta interval is inf
        (("solve", "--rank", "3", "--rho", "1e-310"), "block 0: the delta interval [0.0, inf]"),
        (("solve", "--rank", "3", "--a1", "1e-300", "--rho", "1e-10"),
         "block 0: the delta interval [0.0, inf]"),
        (("solve", "--rank", "0"), "argument --rank: must be >= 1, got 0"),
        (("check", "--rank", "0"), "argument --rank: must be >= 1, got 0"),
        (("bench", "--rank", "0", "--out", "unused.csv"), "argument --rank: must be >= 1, got 0"),
        (("solve", "--rank", "3", "--residual-tol", "nan"), "residual_tol must be nonnegative, got nan"),
        (("bench", "--rank", "2", "--residual-tol", "nan", "--out", "unused.csv"),
         "residual_tol must be nonnegative, got nan"),
        # the arguments after "@" come from an options file
        (("solve", "@", "--rank=3", "--a1=inf"), "a1 must be finite, got inf"),
        (("solve", "@", "--rank=0"), "argument --rank: must be >= 1, got 0"),
        (("solve", "@", "--rank=3", "--kappa=1.5"), "kappa must lie in [0, 1), got 1.5"),
        (("solve", "@", "--rank=3", "--residual-tol=nan"), "residual_tol must be nonnegative"),
        (("solve", "@", "--rank=3", "--seed=-1"), "argument --seed: must be >= 0, got -1"),
        (("solve", "--rank", "3", "@", "--a1=1e-170", "--eps1=1e-170"), "block 0: sigma*gamma ="),
        (("solve", "@", "--rank=3", "--rho=1e-310"), "block 0: the delta interval [0.0, inf]"),
        # bench derives the schedule of each kappa before it reads
        (("bench", "--rank", "3", "--rho", "1e-310", "--out", "unused.csv"),
         "block 0: the delta interval [0.0, inf]"),
        (("bench", "--rank", "3", "--kappas", "0.5", "--rho", "1e-310", "--out", "unused.csv"),
         "block 0: the delta interval [inf, nan]"),
    ])
    def test_bad_solver_parameters_exit_two_before_reading(self, tmp_path, monkeypatch, capsys,
                                                           args, named):
        def unreachable(*a, **k):
            raise AssertionError("the matrix was read before the parameters were checked")

        if "@" in args:
            at = args.index("@")
            options = tmp_path / "run.args"
            options.write_text("\n".join(args[at + 1:]) + "\n")
            args = (*args[:at], f"@{options}")
        monkeypatch.setattr(cli.mio, "read_matrix", unreachable)
        assert run_cli(*args, "--input", "x.mtx") == 2
        # each case fails its own check: the error names its flag or parameter
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("gone", ["b1", "a2"])
    def test_fixed_kernel_constants_have_no_flag_or_key(self, tmp_path, capsys, gone):
        assert run_cli("solve", "--input", "x.mtx", "--rank", "3", f"--{gone}", "2") == 2
        assert f"unrecognized arguments: --{gone}" in capsys.readouterr().err
        options = tmp_path / "run.args"
        options.write_text(f"--input=x.mtx\n--rank=3\n--{gone}=2\n")
        assert run_cli("solve", f"@{options}") == 2
        assert f"unrecognized arguments: --{gone}=2" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("solve", "--stall-tol"),
        ("bench", "--m"),
        ("bench", "--noise"),
        ("bench", "--density"),
        ("bench", "--instance-seed"),
    ])
    def test_removed_settings_have_no_flag_or_key(self, tmp_path, capsys, command, flag):
        # a Lyapunov-stall stop at sweep k is --max-iters k, and bench's
        # built-in instance is the file synth writes
        out = ("--out", "unused.csv") if command == "bench" else ()
        assert run_cli(command, "--input", "x.mtx", "--rank", "3", flag, "1", *out) == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        if command == "solve":
            options = tmp_path / "run.args"
            options.write_text("--input=x.mtx\n--rank=3\n--stall-tol=0\n")
            assert run_cli("solve", f"@{options}") == 2
            assert "unrecognized arguments: --stall-tol=0" in capsys.readouterr().err

    @pytest.mark.parametrize("args, abbreviated", [
        (("solve", "--input", "x.mtx", "--rank", "3", "--m", "7"), "--m 7"),  # --max-iters
        (("check", "--input", "x.mtx", "--rank", "2", "--r", "3"), "--r 3"),  # --rank
        (("check", "--input", "x.mtx", "--rank", "2", "--sam", "5"), "--sam 5"),  # --samples
        (("synth", "--m", "5", "--r", "2", "--s", "3", "--out", "unused.mtx"), "--s 3"),  # --seed
    ])
    def test_abbreviated_flags_are_unrecognized(self, capsys, args, abbreviated):
        assert run_cli(*args) == 2
        assert f"unrecognized arguments: {abbreviated}" in capsys.readouterr().err

    def test_bench_needs_an_input_file(self, capsys):
        assert run_cli("bench", "--out", "unused.csv") == 2
        assert "the following arguments are required: --input" in capsys.readouterr().err

    def test_check_needs_an_input_file(self, capsys):
        # check makes no instance of its own: synth writes one
        assert run_cli("check") == 2
        assert "the following arguments are required: --input" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("solve", "--rank", "2.5"), ("solve", "--max-iters", "2.5"), ("solve", "--max-iters", "inf"),
        ("check", "--rank", "2.5"), ("bench", "--rank", "2.5"), ("bench", "--max-iters", "2.5")])
    def test_non_integer_rank_or_max_iters_exits_two_before_reading(self, monkeypatch, capsys,
                                                                     command, flag, value):
        monkeypatch.setattr(cli.mio, "read_matrix", lambda *a, **k: pytest.fail("X was read"))
        required = {"solve": (), "check": (), "bench": ("--out", "unused.csv")}
        assert run_cli(command, "--input", "x.mtx", "--rank", "2", *required[command], flag, value) == 2
        assert f"argument {flag}: invalid int value: '{value}'" in capsys.readouterr().err


def subparser(command):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


class TestSharedOptions:
    """solve, check and bench share one declaration of each option they have
    in common, and --rank has no default in any of them."""

    FLAGS = {
        "synth": ["--m", "--r", "--noise", "--density", "--seed", "--out"],
        "solve": ["--input", "--rank", "--symmetrize", "--rho", "--max-iters", "--residual-tol",
                  "--a1", "--eps1", "--eps2", "--kappa", "--seed", "--trace-out", "--factors-out",
                  "--labels-out", "--no-timing"],
        "check": ["--input", "--rank", "--symmetrize", "--samples", "--seed"],
        "bench": ["--input", "--rank", "--symmetrize", "--rho", "--max-iters", "--residual-tol",
                  "--seeds", "--kappas", "--out"],
    }

    @pytest.mark.parametrize("command", FLAGS)
    def test_each_command_keeps_its_flags(self, command):
        flags = [f for a in subparser(command)._actions for f in a.option_strings]
        assert sorted(flags) == sorted(["-h", "--help", *self.FLAGS[command]])

    @pytest.mark.parametrize("flag, commands", [
        *((flag, ("solve", "check", "bench")) for flag in ("--input", "--rank", "--symmetrize")),
        *((flag, ("solve", "bench")) for flag in ("--rho", "--max-iters", "--residual-tol")),
    ])
    def test_a_shared_flag_means_the_same_in_every_command(self, flag, commands):
        def spec(command):
            (action,) = [a for a in subparser(command)._actions if flag in a.option_strings]
            return action.dest, action.type, action.default, action.required, action.nargs

        assert [spec(command) for command in commands] == [spec(commands[0])] * len(commands)

    @pytest.mark.parametrize("args", [("check", "--input", "x.mtx"),
                                      ("bench", "--input", "x.mtx", "--out", "unused.csv")])
    def test_rank_is_required_wherever_an_instance_is_built(self, capsys, args):
        assert run_cli(*args) == 2
        assert "the following arguments are required: --rank" in capsys.readouterr().err

    def test_bench_grids_are_space_separated_lists(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "cmd_bench", lambda args: seen.append(args) or 0)
        base = ("bench", "--input", "x.mtx", "--rank", "2", "--out", "unused.csv")
        assert run_cli(*base) == 0
        assert (seen[0].seeds, seen[0].kappas) == ([1, 2, 3], [0.0, 0.3, 0.6, 0.9])
        assert run_cli(*base, "--seeds", "4", "5", "--kappas", "0", "0.5") == 0
        assert (seen[1].seeds, seen[1].kappas) == ([4, 5], [0.0, 0.5])
        assert run_cli(*base, "--kappas", "0,0.5") == 2
        assert "argument --kappas: invalid float value: '0,0.5'" in capsys.readouterr().err


class TestNegativeValues:
    """A negative number after a space means what it means after "=", in
    every form float() reads: argparse's own pattern knows only -5 and -.5."""

    REQUIRED = {"synth": ("--m", "5", "--r", "2", "--out", "x.mtx"), "solve": ("--input", "x.mtx", "--rank", "3"),
                "bench": ("--input", "x.mtx", "--rank", "2", "--out", "unused.csv")}
    FLOAT_OPTIONS = [(command, action.option_strings[0]) for command in REQUIRED
                     for action in subparser(command)._actions if action.type is float]

    @staticmethod
    def outcome(monkeypatch, capsys, tmp_path, command, *args):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.mio, "read_matrix", lambda *a, **k: pytest.fail("X was read"))
        code = run_cli(command, *TestNegativeValues.REQUIRED[command], *args)
        err = capsys.readouterr().err.splitlines()
        assert list(tmp_path.iterdir()) == []  # synth wrote nothing
        return code, err[-1]

    def test_every_float_option_is_covered(self):
        assert sorted(flag for _, flag in self.FLOAT_OPTIONS) == sorted([
            "--noise", "--density", "--rho", "--residual-tol", "--a1", "--eps1", "--eps2", "--kappa",
            "--rho", "--residual-tol", "--kappas"])

    @pytest.mark.parametrize("value", ["-1e-8", "-2.5E+3", "-inf", "-nan"])
    @pytest.mark.parametrize("command, flag", FLOAT_OPTIONS)
    def test_both_spellings_give_the_same_error(self, monkeypatch, capsys, tmp_path, command, flag,
                                                 value):
        spaced = self.outcome(monkeypatch, capsys, tmp_path, command, flag, value)
        joined = self.outcome(monkeypatch, capsys, tmp_path, command, f"{flag}={value}")
        assert spaced == joined and spaced[0] == 2
        assert "expected one argument" not in spaced[1] and "error: " in spaced[1]

    @pytest.mark.parametrize("flag", [flag for command, flag in FLOAT_OPTIONS if command == "solve"])
    def test_options_file_lines_read_as_the_command_line(self, monkeypatch, capsys, tmp_path, flag):
        options = tmp_path.parent / f"{tmp_path.name}.args"
        options.write_text(f"{flag}\n-1e-8\n")
        from_file = self.outcome(monkeypatch, capsys, tmp_path, "solve", f"@{options}")
        assert from_file == self.outcome(monkeypatch, capsys, tmp_path, "solve", f"{flag}=-1e-8")

    @pytest.mark.parametrize("command, args, same_as", [
        ("bench", ("--kappas", "0", "-1e-3"), ("--kappas", "0", "-0.001")),  # a list's later value
        ("solve", ("--seed", "-1e3"), ("--seed=-1e3",)),  # an int option reads it as "=" does
    ])
    def test_other_places_of_a_negative_number(self, monkeypatch, capsys, tmp_path, command, args,
                                               same_as):
        got = self.outcome(monkeypatch, capsys, tmp_path, command, *args)
        assert got == self.outcome(monkeypatch, capsys, tmp_path, command, *same_as)
        assert got[0] == 2 and "expected one argument" not in got[1]


class TestConfigFile:
    """``solve @FILE`` reads a run's options from FILE, one argument per line
    as on the command line; blank lines and '#' lines are skipped."""

    @staticmethod
    def options(tmp_path, *lines, name="run.args"):
        path = tmp_path / name
        path.write_text("".join(f"{line}\n" for line in lines))
        return f"@{path}"

    def test_config_supplies_values_and_flags_win(self, tmp_path, capsys):
        x_path = tmp_path / "x.mtx"
        run_cli("synth", "--m", "8", "--r", "2", "--noise", "0.2", "--seed", "1",
                "--out", str(x_path))
        capsys.readouterr()
        options = self.options(tmp_path, "# experiment options", f"--input={x_path}",
                               "--rank=2", "", "--max-iters=4", "--kappa=0.3")
        for args, iterations in (((options,), "4"),  # from the file
                                 ((options, "--max-iters", "7"), "7"),  # a flag after it wins
                                 (("--max-iters", "7", options), "4")):  # and so does the file
            assert run_cli("solve", *args) == 0
            assert parse_summary(capsys)["iterations"] == iterations

    def test_config_line_without_equals_sign(self, tmp_path, capsys):
        # one argument per line: "--max-iters 4" is one argument, not two
        options = self.options(tmp_path, "--input=x.mtx", "--rank=2", "--max-iters 4")
        assert run_cli("solve", options) == 2
        assert "unrecognized arguments: --max-iters 4" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        options = self.options(tmp_path, "--input=x.mtx", "--rank=2", "--wibble=3")
        assert run_cli("solve", options) == 2
        assert "unrecognized arguments: --wibble=3" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [pytest.param(*case, id=case[0]) for case in (
        ("--rank=abc", "argument --rank: invalid int value: 'abc'"),
        ("--kappa=x", "argument --kappa: invalid float value: 'x'"),
        ("--no-timing=off", "argument --no-timing: ignored explicit argument 'off'"),
        ("--symmetrize=yes", "argument --symmetrize: ignored explicit argument 'yes'"),
        ("--seed=-1", "argument --seed: must be >= 0"),
        ("--config=other.cfg", "unrecognized arguments: --config=other.cfg"),
        ("max-iters = 4", "unrecognized arguments: max-iters = 4"),  # a key=value line
    )])
    def test_bad_config_line_exits_two(self, tmp_path, capsys, line, message):
        assert run_cli("solve", self.options(tmp_path, "--input=x.mtx", "--rank=2", line)) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @staticmethod
    def parsed(monkeypatch, *argv):
        seen = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args) or 0)
        assert run_cli("solve", "--input", "base.mtx", "--rank", "1", *argv) == 0
        return vars(seen[0])

    @pytest.mark.parametrize("action", [
        a for a in subparser("solve")._actions if a.dest != "help"
    ], ids=lambda a: a.dest)
    def test_config_key_parses_like_its_flag(self, tmp_path, monkeypatch, action):
        # the solve parser is the one option table: a file's line gives the
        # namespace its flag gives, for every solve option
        flag = action.option_strings[0]
        if action.nargs == 0:
            flag_args, line = [flag], flag
        else:
            kind = getattr(action.type, "__name__", None)  # bounded ints are "int" too
            word = {"int": "3", "float": "0.25", None: "some dir/x y.mtx"}[kind]
            flag_args, line = [flag, word], f"{flag}={word}"
        via_flag = self.parsed(monkeypatch, *flag_args)
        assert via_flag[action.dest] != self.parsed(monkeypatch)[action.dest]
        assert self.parsed(monkeypatch, self.options(tmp_path, line)) == via_flag

    def test_blank_and_comment_lines_are_skipped(self, tmp_path, monkeypatch):
        options = self.options(tmp_path, "# a comment", "", "   ", "  # indented", "--rank=3",
                               "--trace-out=a#b.json")  # '#' inside a line is no comment
        assert self.parsed(monkeypatch, options) == self.parsed(
            monkeypatch, "--rank", "3", "--trace-out", "a#b.json")

    def test_nested_file_expands(self, tmp_path, monkeypatch):
        inner = self.options(tmp_path, "--kappa=0.5", name="inner.args")
        outer = self.options(tmp_path, "--rank=2", inner, "--rho=0.5", name="outer.args")
        assert self.parsed(monkeypatch, outer) == self.parsed(
            monkeypatch, "--rank", "2", "--kappa", "0.5", "--rho", "0.5")

    def test_missing_file_exits_two_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "missing.args"
        assert run_cli("solve", "--input", "x.mtx", f"@{missing}") == 2
        err = capsys.readouterr().err
        assert "No such file or directory" in err and str(missing) in err

    def test_config_flag_is_gone(self, tmp_path, capsys):
        assert run_cli("solve", "--input", "x.mtx", "--rank", "3", "--config", "run.cfg") == 2
        assert "unrecognized arguments: --config run.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("command, args", [
        ("check", ("--input", "x.mtx", "--rank", "2")),
        ("bench", ("--input", "x.mtx", "--rank", "2", "--out", "unused.csv"))])
    def test_only_solve_reads_options_files(self, tmp_path, capsys, command, args):
        options = self.options(tmp_path, "--rank=2")
        assert run_cli(command, *args, options) == 2
        assert f"unrecognized arguments: {options}" in capsys.readouterr().err


class TestCheck:
    ROWS = ["violations", "worst_slack", "grad_max_rel_err", "oracle_max_model_gap",
            "product_form_max_rel_gap", "bregman_closed_form_max_rel_gap", "subgradient_max_gap"]

    @staticmethod
    def failed_rows(err):
        return err.partition("failed checks: ")[2].strip().split(", ")

    @staticmethod
    def patch_report(monkeypatch, **rows):
        report = cli.verify_relative_smoothness
        monkeypatch.setattr(cli, "verify_relative_smoothness",
                            lambda *a, **k: {**report(*a, **k), **rows})

    @pytest.fixture
    def c8(self, tmp_path, capsys):
        """The path of the m=8, r=2, noise-0.25, seed-1 instance that synth writes."""
        x_path = tmp_path / "c8.mtx"
        assert run_cli("synth", "--m", "8", "--r", "2", "--noise", "0.25", "--seed", "1",
                       "--out", str(x_path)) == 0
        capsys.readouterr()
        return str(x_path)

    def test_defaults_pass(self, capsys, c8):
        assert run_cli("check", "--input", c8, "--rank", "2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == self.ROWS
        assert payload["violations"] == 0
        assert payload["grad_max_rel_err"] <= 1e-6
        assert payload["oracle_max_model_gap"] <= 1e-8
        assert payload["product_form_max_rel_gap"] <= 1e-10
        assert payload["bregman_closed_form_max_rel_gap"] <= 1e-10
        assert payload["subgradient_max_gap"] <= 1e-10

    def test_failed_check_is_named(self, monkeypatch, capsys, c8):
        dense = stf.dense_fit
        monkeypatch.setattr(stf, "dense_fit", lambda *a: (1.01 * dense(*a)[0],) + dense(*a)[1:])
        assert run_cli("check", "--input", c8, "--rank", "2") == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["product_form_max_rel_gap"] > 1e-3
        assert "failed checks: product_form_max_rel_gap" in captured.err

    @pytest.mark.parametrize("row", ["bregman_closed_form_max_rel_gap", "subgradient_max_gap"])
    def test_failed_closed_form_row_is_named(self, monkeypatch, capsys, c8, row):
        if row == "bregman_closed_form_max_rel_gap":
            distance = stf.kernel_h1_distance
            monkeypatch.setattr(stf, "kernel_h1_distance", lambda *a: 1.01 * distance(*a))
        else:
            update = stf.update_V

            def shifted(*args, **kwargs):
                V, eta = update(*args, **kwargs)
                return V, eta - 1e-3

            monkeypatch.setattr(stf, "update_V", shifted)
        assert run_cli("check", "--input", c8, "--rank", "2") == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)[row] > 1e-6
        # a wrong distance also moves the model values the oracle row compares
        assert row in self.failed_rows(captured.err)

    @pytest.mark.parametrize("row, bound, named", [
        ("violations", None, ["violations"]),
        ("grad_max_rel_err", "GRAD_CHECK_TOL", ["grad_max_rel_err"]),
        ("oracle_max_model_gap", "ORACLE_GAP_TOL", ["oracle_max_model_gap"]),
        ("product_form_max_rel_gap", "PRODUCT_FORM_TOL", ["product_form_max_rel_gap"]),
        ("bregman_closed_form_max_rel_gap", "CLOSED_FORM_TOL",
         ["bregman_closed_form_max_rel_gap", "subgradient_max_gap"]),
        ("subgradient_max_gap", "CLOSED_FORM_TOL",
         ["bregman_closed_form_max_rel_gap", "subgradient_max_gap"]),
    ])
    def test_each_bounded_row_fails_past_its_bound(self, monkeypatch, capsys, c8, row, bound, named):
        # every gap is >= 0, so a bound of -1 fails it; the two closed-form
        # rows share CLOSED_FORM_TOL
        if bound is None:
            self.patch_report(monkeypatch, violations=1)
        else:
            monkeypatch.setattr(cli, bound, -1.0)
        assert run_cli("check", "--input", c8, "--rank", "2") == 1
        captured = capsys.readouterr()
        assert list(json.loads(captured.out)) == self.ROWS
        assert self.failed_rows(captured.err) == named

    def test_nan_value_fails(self, monkeypatch, capsys, c8):
        self.patch_report(monkeypatch, bregman_max_rel_gap=float("nan"))
        assert run_cli("check", "--input", c8, "--rank", "2") == 1
        captured = capsys.readouterr()
        assert math.isnan(json.loads(captured.out)["bregman_closed_form_max_rel_gap"])
        assert self.failed_rows(captured.err) == ["bregman_closed_form_max_rel_gap"]

    def test_worst_slack_is_only_reported(self, monkeypatch, capsys, c8):
        self.patch_report(monkeypatch, worst_slack=1.0)
        assert run_cli("check", "--input", c8, "--rank", "2") == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["worst_slack"] == 1.0
        assert captured.err == ""

    def test_explicit_instance(self, tmp_path, capsys):
        x_path = tmp_path / "x.mtx"
        run_cli("synth", "--m", "6", "--r", "2", "--noise", "0.5", "--seed", "3",
                "--out", str(x_path))
        capsys.readouterr()
        assert run_cli("check", "--input", str(x_path), "--rank", "2",
                       "--samples", "60") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == 0

    def test_symmetrize_checks_the_symmetric_part(self, tmp_path, capsys):
        # an asymmetric file with --symmetrize gives the report of the file
        # that holds (X + X^T)/2
        X = np.random.default_rng(5).random((6, 6))
        write_matrix_market(tmp_path / "asym.mtx", X)
        write_matrix_market(tmp_path / "sym.mtx", 0.5 * (X + X.T))
        reports = []
        for name, flags in (("asym", ("--symmetrize",)), ("sym", ())):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                assert run_cli("check", "--input", str(tmp_path / f"{name}.mtx"), "--rank", "2",
                               "--samples", "30", *flags) == 0
            assert [str(w.message) for w in seen] == (
                ["input matrix is not symmetric; X was replaced by (X + X^T)/2"] if flags else [])
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


class TestBench:
    @staticmethod
    def synth(tmp_path, *flags):
        """The path of the m=8, r=2, seed-1 instance that synth writes with ``flags``."""
        x_path = tmp_path / "x.mtx"
        assert run_cli("synth", "--m", "8", "--r", "2", "--seed", "1", *flags,
                       "--out", str(x_path)) == 0
        return str(x_path)

    def test_grid_shape_and_header(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            "bench", "--input", self.synth(tmp_path), "--rank", "2",
            "--kappas", "0", "0.5", "--seeds", "1", "2", "--max-iters", "40",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kappa,seed,iters_to_tol,final_phi,wall_seconds,termination"
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            kappa, seed, iters, phi, wall, termination = line.split(",")
            assert float(kappa) in (0.0, 0.5)
            assert int(seed) in (1, 2)
            assert int(iters) <= 40
            assert float(phi) >= 0.0
            assert float(wall) >= 0.0
            assert termination in ("residual_tol", "max_iters")

    def test_input_file_gives_the_rows_of_the_same_matrix(self, tmp_path, capsys):
        # synth's file holds the synthesized X bitwise, so each row is the
        # solve of the in-memory instance
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--input", self.synth(tmp_path, "--noise", "0.1"), "--rank", "2",
                       "--kappas", "0", "0.5", "--seeds", "3", "--max-iters", "60",
                       "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        X, _, _ = synth_instance(8, 2, noise_level=0.1, density=1.0, seed=1)
        inst = stf.SymTriInstance(X, 2)
        expected = []
        for kappa in (0.0, 0.5):
            result, _ = stf.solve_instance(inst, kappa=kappa, seed=3, max_iters=60)
            final = result.trace[-1]
            expected.append([str(kappa), "3", str(final.k), f"{final.phi:.17g}", result.termination])
        assert [row[:4] + row[5:] for row in rows] == expected

    def test_symmetrize_solves_the_symmetric_part(self, tmp_path, capsys):
        # as for check: the rows of an asymmetric file with --symmetrize are
        # those of the file that holds (X + X^T)/2
        X = np.random.default_rng(6).random((8, 8))
        write_matrix_market(tmp_path / "asym.mtx", X)
        write_matrix_market(tmp_path / "sym.mtx", 0.5 * (X + X.T))
        rows = []
        for name, flags in (("asym", ("--symmetrize",)), ("sym", ())):
            out = tmp_path / f"{name}.csv"
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                assert run_cli("bench", "--input", str(tmp_path / f"{name}.mtx"), "--rank", "2",
                               "--kappas", "0", "0.5", "--seeds", "1", "--max-iters", "30",
                               "--out", str(out), *flags) == 0
            assert [str(w.message) for w in seen] == (
                ["input matrix is not symmetric; X was replaced by (X + X^T)/2"] if flags else [])
            rows.append([line.split(",") for line in out.read_text().splitlines()])
        assert len(rows[0]) == 3
        drop_wall = [[row[:4] + row[5:] for row in table] for table in rows]
        assert drop_wall[0] == drop_wall[1]

    def test_a_refused_schedule_exits_two_without_a_csv(self, tmp_path, capsys):
        # as in solve, before the read: a missing file does not exit 1, and a
        # readable one leaves no header-only CSV
        out = tmp_path / "b.csv"
        for x_path in (str(tmp_path / "missing.mtx"), self.synth(tmp_path)):
            capsys.readouterr()
            assert run_cli("bench", "--input", x_path, "--rank", "3", "--rho", "1e-310",
                           "--out", str(out)) == 2
            assert "block 0: the delta interval [0.0, inf]" in capsys.readouterr().err
            assert not out.exists()

    def test_termination_tells_a_certified_last_sweep_from_max_iters(self, tmp_path):
        x_path = self.synth(tmp_path)

        def row(max_iters):
            out = tmp_path / f"bench{max_iters}.csv"
            assert run_cli("bench", "--input", x_path, "--rank", "2",
                           "--kappas", "0", "--seeds", "1", "--residual-tol", "1e-4",
                           "--max-iters", str(max_iters), "--out", str(out)) == 0
            (line,) = out.read_text().splitlines()[1:]
            return line.split(",")

        k = int(row(5000)[2])
        assert k < 5000
        # the certifying sweep is the last one allowed: iters_to_tol equals
        # max_iters in both rows, and only the termination column differs
        certified, cut = row(k), row(k - 1)
        assert (certified[2], certified[-1]) == (str(k), "residual_tol")
        assert (cut[2], cut[-1]) == (str(k - 1), "max_iters")


class TestReadInstance:
    """solve, check and bench build their instance in ``cli.read_instance``:
    it reads --input, replaces X by (X + X^T)/2 under --symmetrize when X is
    not exactly symmetric, and keeps no reference to the array it read."""

    REPLACED = "input matrix is not symmetric; X was replaced by (X + X^T)/2"

    @staticmethod
    def solved(tmp_path, monkeypatch, capsys, X, *flags):
        """The instance that ``solve`` builds from a file holding X, with
        ``flags``; its stdout; and the warnings it gave."""
        x_path = tmp_path / "x.mtx"
        write_matrix_market(x_path, X)
        instances = []
        solve = stf.solve_instance
        monkeypatch.setattr(stf, "solve_instance",
                            lambda inst, **kw: instances.append(inst) or solve(inst, **kw))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli("solve", "--input", str(x_path), "--rank", "2", "--max-iters", "20",
                           *flags) == 0
        monkeypatch.setattr(stf, "solve_instance", solve)
        (inst,) = instances
        return inst, capsys.readouterr().out, seen

    def test_asymmetric_warns_and_symmetrizes(self, tmp_path, monkeypatch, capsys):
        # the file's X is replaced, with one warning from cli's line, and the
        # run is that of the file holding (X + X^T)/2, bit for bit
        X = np.random.default_rng(5).random((6, 6))
        sym = 0.5 * (X + X.T)
        inst, out, seen = self.solved(tmp_path, monkeypatch, capsys, X, "--symmetrize")
        assert [str(w.message) for w in seen] == [self.REPLACED]
        assert seen[0].filename == cli.__file__
        assert inst.X.tobytes() == sym.tobytes()
        assert inst.norm_X == stf.SymTriInstance(sym, 2).norm_X
        ref, ref_out, ref_seen = self.solved(tmp_path, monkeypatch, capsys, sym)
        assert ref_seen == [] and out == ref_out and ref.X.tobytes() == inst.X.tobytes()

    @pytest.mark.parametrize("command", ["solve", "check", "bench"])
    def test_without_the_flag_an_asymmetric_file_is_refused(self, tmp_path, monkeypatch, capsys,
                                                             command):
        # no warning, no solve and no CSV: the instance refuses X, naming the flag
        write_matrix_market(tmp_path / "x.mtx", np.random.default_rng(5).random((6, 6)))
        monkeypatch.setattr(stf, "solve_instance", None)
        out = tmp_path / "b.csv"
        rest = ("--out", str(out)) if command == "bench" else ()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli(command, "--input", str(tmp_path / "x.mtx"), "--rank", "2", *rest) == 2
        assert seen == [] and not out.exists()
        assert capsys.readouterr() == ("", "error: X is not symmetric; pass (X + X^T)/2 "
                                       "(--symmetrize to bregblock solve, check or bench)\n")

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-170])
    def test_asymmetry_is_seen_at_any_scale(self, tmp_path, monkeypatch, capsys, scale):
        # X == X^T entry for entry: no norm of X - X^T, which underflows
        X = np.random.default_rng(24).random((6, 6)) * scale
        inst, _, seen = self.solved(tmp_path, monkeypatch, capsys, X, "--symmetrize")
        assert [str(w.message) for w in seen] == [self.REPLACED]
        assert inst.X.tobytes() == (0.5 * (X + X.T)).tobytes()

    def test_one_ulp_of_asymmetry_warns_and_symmetrizes(self, tmp_path, monkeypatch, capsys):
        X, _, _ = synth_instance(8, 2, noise_level=0.1, seed=3)
        X[0, 1] = np.nextafter(X[0, 1], np.inf)
        inst, _, seen = self.solved(tmp_path, monkeypatch, capsys, X, "--symmetrize")
        assert [str(w.message) for w in seen] == [self.REPLACED]
        assert not np.array_equal(inst.X, X)
        assert inst.X.tobytes() == (0.5 * (X + X.T)).tobytes()

    def test_exactly_symmetric_x_is_kept_bitwise_without_warning(self, tmp_path, monkeypatch,
                                                                 capsys):
        X, _, _ = synth_instance(8, 2, noise_level=0.1, seed=3)
        inst, _, seen = self.solved(tmp_path, monkeypatch, capsys, X, "--symmetrize")
        assert seen == []
        assert inst.X.tobytes() == X.tobytes()

    def test_a_subnormal_pair_is_halved_before_it_is_summed(self, tmp_path, monkeypatch, capsys):
        # X/2 + X^T/2 is (X + X^T)/2 bit for bit except where a half or a
        # half-sum is subnormal: 1 and 2 units of the least subnormal halve to
        # 0 and 1 unit, where their sum of 3 units halves to 2
        X = np.random.default_rng(25).random((6, 6))
        X[0, 1], X[1, 0] = 5e-324, 1e-323
        inst, _, seen = self.solved(tmp_path, monkeypatch, capsys, X, "--symmetrize")
        assert [str(w.message) for w in seen] == [self.REPLACED]
        ref = 0.5 * (X + X.T)
        assert (inst.X[0, 1], inst.X[1, 0], ref[0, 1]) == (5e-324, 5e-324, 1e-323)
        ref[0, 1] = ref[1, 0] = 5e-324
        assert inst.X.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("X, error", [
        ([[1.0, np.nan], [0.0, 1.0]], "error: X has NaN or infinite entries"),
        # X[0, 1] + X[1, 0] overflows, their halves' sum does not
        ([[1.0, 1e308], [1.5e308, 1.0]], "error: the Frobenius norm of X overflows"),
    ], ids=["nan", "sum-overflows"])
    def test_a_refused_file_reports_what_it_reports_without_the_flag(self, tmp_path, capsys,
                                                                     X, error):
        # no "X was replaced" for an X the instance refuses, and no overflow
        # of the symmetrization: the error and the warnings of the run as is
        x_path = tmp_path / "x.mtx"
        write_matrix_market(x_path, np.array(X))
        runs = []
        for flags in ((), ("--symmetrize",)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                assert run_cli("solve", "--input", str(x_path), "--rank", "1", *flags) == 2
            runs.append((capsys.readouterr().err, [str(w.message) for w in seen]))
        assert runs[0][0].startswith(error)
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("flags", [(), ("--symmetrize",)], ids=["as-is", "symmetrize"])
    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_the_array_read_is_released_before_the_solve(self, tmp_path, monkeypatch, command,
                                                         flags):
        # while it solves, a command holds one copy of X: the instance's; the
        # file is symmetric as is, and is replaced under --symmetrize
        X = np.random.default_rng(7).random((8, 8))
        write_matrix_market(tmp_path / "x.mtx", X if flags else 0.5 * (X + X.T))
        read, solve = cli.mio.read_matrix, stf.solve_instance
        refs, solves = [], []

        def read_spy(*args, **kwargs):
            X = read(*args, **kwargs)
            refs.append(weakref.ref(X))
            return X

        def solve_spy(inst, **kwargs):
            solves.append([ref() is None for ref in refs])
            return solve(inst, **kwargs)

        monkeypatch.setattr(cli.mio, "read_matrix", read_spy)
        monkeypatch.setattr(stf, "solve_instance", solve_spy)
        rest = {"solve": (), "bench": ("--kappas", "0", "--seeds", "1", "2",
                                       "--out", str(tmp_path / "b.csv"))}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # X was replaced
            assert run_cli(command, "--input", str(tmp_path / "x.mtx"), "--rank", "2",
                           "--max-iters", "3", *rest[command], *flags) == 0
        assert solves == [[True]] * (2 if command == "bench" else 1)


class TestDeterminism:
    def test_trace_byte_identical_without_timing(self, tmp_path):
        env = child_env()
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
