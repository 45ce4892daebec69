"""End-to-end tests of the command-line front end."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from secrd import cli
from secrd.cli import EXIT_INPUT, EXIT_INVARIANT, EXIT_OK, EXIT_RESOURCE, MAX_GRID, main

DATA = Path(__file__).parent / "data"
BENCH_SOURCE = str(Path(__file__).parents[1] / "perfbench/data/bec_bsc_p0.1_eps0.9.txt")

# Every golden output in tests/data and the argv that prints it, as (id, argv,
# golden file) rows grouped by the test that checks them in process;
# test_console_script_matches_golden_file runs every row through `secrd`.
GOLDENS = {
    "eval": [
        ("text", ["eval", "--source", str(DATA / "source_p0.1_eps0.469.txt"),
                  "--scheme", str(DATA / "scheme_alpha0.031_beta0.05.txt")],
         "eval_p0.1_eps0.469.txt"),
        ("json", ["eval", "--source", str(DATA / "source_p0.1_eps0.469.txt"),
                  "--scheme", str(DATA / "scheme_alpha0.031_beta0.05.txt"),
                  "--format", "json"], "eval_p0.1_eps0.469.json"),
        ("bec-bsc-eps0.9", ["eval", "--source", BENCH_SOURCE,
                            "--scheme", str(DATA / "scheme_alpha0.031_beta0.05.txt")],
         "eval_p0.1_eps0.9.txt"),
        ("ternary-eab", ["eval", "--source", str(DATA / "source_ternary_eab.txt"),
                         "--scheme", str(DATA / "scheme_ternary_3_2_2.txt")],
         "eval_ternary_eab.txt"),
    ],
    "binary --curve": [
        ("curve", ["binary", "--p", "0.1", "--eps", "0.469", "--curve", "--grid", "200",
                   "--format", "csv"], "curve_p0.1_eps0.469.csv"),
        # the same curve from the defaults
        ("curve-defaults", ["binary", "--curve", "--format", "csv"], "curve_p0.1_eps0.469.csv"),
    ],
    "binary": [
        ("text", ["binary"], "binary_p0.1_eps0.469.txt"),
        ("csv", ["binary", "--format", "csv"], "binary_p0.1_eps0.469.csv"),
    ],
    "classify": [
        ("source", ["classify", "--source", BENCH_SOURCE],
         "classify_source_bec_bsc_p0.1_eps0.9.txt"),
        ("bec-bsc", ["classify", "--p", "0.1", "--eps", "0.9"], "classify_p0.1_eps0.9.txt"),
        ("bec-bsc-eps1", ["classify", "--p", "0.1", "--eps", "1"], "classify_p0.1_eps1.txt"),
        ("source-ternary-eab", ["classify", "--source", str(DATA / "source_ternary_eab.txt")],
         "classify_source_ternary_eab.txt"),
    ],
    "simulate": [
        ("defaults", ["simulate"], "simulate_defaults.csv"),
        ("n14", ["simulate", "--n", "14"], "simulate_n14.csv"),
        ("readme", ["simulate", "--p", "0.1", "--eps", "0.469", "--alpha", "0.031",
                    "--beta", "0.05", "--n", "10", "--trials", "100", "--seed", "1",
                    "--slack", "0.1"], "simulate_p0.1_eps0.469_n10_seed1.csv"),
        # 811 x 27 codewords, 8,328 of them distinct, in groups cut into parts
        ("n12-slack0.2", ["simulate", "--n", "12", "--slack", "0.2"],
         "simulate_n12_slack0.2.csv"),
        # odd n: the encoder's split of the words is uneven
        ("n13-seed3", ["simulate", "--n", "13", "--seed", "3"], "simulate_n13_seed3.csv"),
    ],
    "sweep": [
        ("defaults", ["sweep"], "sweep_defaults.csv"),
        ("readme", ["sweep", "--p", "0.1", "--eps", "0.469", "--grid", "8", "--d-max", "0.2",
                    "--rate-budget", "0.376"], "sweep_p0.1_eps0.469_budget0.376.csv"),
        ("readme-defaults", ["sweep", "--rate-budget", "0.376"],
         "sweep_p0.1_eps0.469_budget0.376.csv"),
        ("budget-before-clamp", ["sweep", "--p", "0.1", "--eps", "0.7", "--rate-budget", "0.5"],
         "sweep_p0.1_eps0.7_budget0.5.csv"),
        ("short-of-delta-star", ["sweep", "--p", "0.3", "--eps", "1.0", "--grid", "16"],
         "sweep_p0.3_eps1_grid16.csv"),
    ],
}


def goldens(test):
    """The GOLDENS rows of `test` as pytest params (argv, golden file)."""
    return [pytest.param(argv, golden, id=name) for name, argv, golden in GOLDENS[test]]


def assert_prints_golden(capsys, argv, golden):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (DATA / golden).read_bytes().decode()


@pytest.mark.parametrize("argv, golden", [
    pytest.param(argv, golden, id=f"{argv[0]}-{name}")
    for rows in GOLDENS.values() for name, argv, golden in rows])
def test_console_script_matches_golden_file(argv, golden):
    # the installed command, or else this Python running the module that
    # the tests import
    script = shutil.which("secrd")
    command = [script] if script else [sys.executable, "-m", "secrd.cli"]
    env = None if script else {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(command + argv, capture_output=True, env=env)
    assert done.returncode == EXIT_OK, done.stderr.decode()
    assert done.stdout == (DATA / golden).read_bytes()

SOURCE_TEXT = """\
joint
axis A: 0 1
axis B: 0 e 1
axis E: 0 1
mass: 0.23895 0.02655 0.21105 0.02345 0 0 0 0 0.02345 0.21105 0.02655 0.23895
dmax: 1.0
distortion: 0 1 1 0
"""

SCHEME_TEXT = """\
conditional
input: 0 1
output: 0 1
row 0: 0.969 0.031
row 1: 0.031 0.969
---
conditional
input: 0 1
output: 0 1
row 0: 0.95 0.05
row 1: 0.05 0.95
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "source.txt"
    path.write_text(SOURCE_TEXT)
    return str(path)


@pytest.fixture
def scheme_file(tmp_path):
    path = tmp_path / "scheme.txt"
    path.write_text(SCHEME_TEXT)
    return str(path)


class TestEval:
    def test_text_output(self, source_file, scheme_file, capsys):
        code = main(["eval", "--source", source_file, "--scheme", scheme_file])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("R=") and " D=" in out and " Delta=" in out

    def test_json_output(self, source_file, scheme_file, capsys):
        code = main(["eval", "--source", source_file, "--scheme", scheme_file,
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"R", "D", "Delta"}
        assert payload["D"] >= 0.0

    @pytest.mark.parametrize("argv, golden", goldens("eval"))
    def test_matches_golden_file(self, capsys, argv, golden):
        assert_prints_golden(capsys, argv, golden)

    def test_missing_file_is_input_error(self, scheme_file, capsys):
        code = main(["eval", "--source", "/nonexistent", "--scheme", scheme_file])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_malformed_pmf_is_input_error(self, tmp_path, scheme_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("joint\naxis A: 0 1\nmass: 0.9 0.4\ndistortion: 0 1 1 0\n")
        code = main(["eval", "--source", str(bad), "--scheme", scheme_file])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("old, new", [
        ("mass: 0.23895", "mass: x0.23895"),
        ("dmax: 1.0", "dmax: one"),
        ("dmax: 1.0", "dmax: 1.0 2.0"),
        ("distortion: 0 1 1 0", "distortion: 0 1 1 zero"),
    ], ids=["mass", "dmax", "dmax-two-values", "distortion"])
    def test_bad_source_number_is_input_error(self, tmp_path, scheme_file, capsys,
                                              old, new):
        bad = tmp_path / "bad.txt"
        bad.write_text(SOURCE_TEXT.replace(old, new))
        assert main(["eval", "--source", str(bad), "--scheme", scheme_file]) == EXIT_INPUT
        assert main(["classify", "--source", str(bad)]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_bad_row_number_is_input_error(self, tmp_path, source_file, capsys):
        bad = tmp_path / "scheme.txt"
        bad.write_text(SCHEME_TEXT.replace("row 1: 0.05", "row 1: 0.05x"))
        assert main(["eval", "--source", source_file, "--scheme", str(bad)]) == EXIT_INPUT
        assert "non-numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("axis A: 0 1", "axis A: 0 0"),
        ("input: 0 1\noutput: 0 1\nrow 0: 0.969", "input:\noutput: 0 1\nrow 0: 0.969"),
    ], ids=["repeated-axis-label", "empty-input-line"])
    def test_bad_alphabet_is_input_error(self, tmp_path, capsys, old, new):
        source, scheme = tmp_path / "source.txt", tmp_path / "scheme.txt"
        source.write_text(SOURCE_TEXT.replace(old, new))
        scheme.write_text(SCHEME_TEXT.replace(old, new, 1))
        argv = ["eval", "--source", str(source), "--scheme", str(scheme)]
        assert main(argv) == EXIT_INPUT
        if old.startswith("axis"):
            assert main(["classify", "--source", str(source)]) == EXIT_INPUT
        assert "error: alphabet" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--source", "{dir}", "--scheme", "{dir}"],
        ["classify", "--source", "{dir}"],
        ["classify", "--config", "{dir}"],
        ["classify", "--source", "{binary}"],
    ], ids=["eval-directory", "classify-directory", "config-directory", "not-utf8"])
    def test_unreadable_file_is_input_error(self, tmp_path, capsys, argv):
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"joint\n\xff\xfe\n")
        argv = [a.format(dir=tmp_path, binary=binary) for a in argv]
        assert main(argv) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_format_choices(self, source_file, scheme_file):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--source", source_file, "--scheme", scheme_file,
                  "--format", "csv"])
        assert exc.value.code == EXIT_INPUT

    def test_cap_violation_is_invariant_error(self, source_file, tmp_path, capsys):
        # 13 V symbols exceeds the |V| <= (|A|+2)(|A|+1) = 12 cap for |A| = 2
        n = 13
        rows_v = "\n".join(
            f"row {s}: " + " ".join(str(1.0 / n) for _ in range(n))
            for s in ("0", "1"))
        rows_u = "\n".join(
            f"row v{i}: 0.5 0.5" for i in range(n))
        text = ("conditional\ninput: 0 1\noutput: "
                + " ".join(f"v{i}" for i in range(n)) + "\n" + rows_v
                + "\n---\nconditional\ninput: "
                + " ".join(f"v{i}" for i in range(n))
                + "\noutput: 0 1\n" + rows_u + "\n")
        scheme = tmp_path / "wide.txt"
        scheme.write_text(text)
        code = main(["eval", "--source", source_file, "--scheme", str(scheme)])
        assert code == EXIT_INVARIANT


class TestFileDefects:
    """Malformed source and scheme files end in exit 2; valid ones still parse."""

    def test_rule_in_a_comment_is_not_a_separator(self, tmp_path, source_file,
                                                 scheme_file, capsys):
        scheme = tmp_path / "commented.txt"
        scheme.write_text("# --- A to V ---\n" + SCHEME_TEXT)
        assert main(["eval", "--source", source_file, "--scheme", str(scheme)]) == EXIT_OK
        assert main(["eval", "--source", source_file, "--scheme", scheme_file]) == EXIT_OK
        first, second = capsys.readouterr().out.splitlines()
        assert first == second

    @pytest.mark.parametrize("old, new", [
        ("row 1: 0.05 0.95\n", "row 1: 0.05 0.95\nrow zz: 0.5 0.5\n"),
        ("row 1: 0.05 0.95\n", "row 1: 0.05 0.95\nrow 1: 0.5 0.5\n"),
        ("output: 0 1\nrow 0: 0.95", "output: 0 1\noutput: 0 1\nrow 0: 0.95"),
        ("input: 0 1\noutput: 0 1\nrow 0: 0.95", "input: 0 1\ninput: 0 1\noutput: 0 1\nrow 0: 0.95"),
        ("input: 0 1\noutput: 0 1\nrow 0: 0.95", "output: 0 1\nrow 0: 0.95"),
        ("row 1: 0.05 0.95\n", "row 1: 0.05 0.95 0\n"),
    ], ids=["row-not-an-input", "repeated-row", "repeated-output", "repeated-input",
            "missing-input", "long-row"])
    def test_bad_scheme_is_input_error(self, tmp_path, source_file, capsys, old, new):
        bad = tmp_path / "scheme.txt"
        bad.write_text(SCHEME_TEXT.replace(old, new))
        assert main(["eval", "--source", source_file, "--scheme", str(bad)]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("input: 0 1\noutput: 0 1\nrow 0: 0.969 0.031\nrow 1: 0.031 0.969",
         "input: x y\noutput: 0 1\nrow x: 0.969 0.031\nrow y: 0.031 0.969",
         "v_channel input alphabet must match source A"),
        ("input: 0 1\noutput: 0 1\nrow 0: 0.95 0.05\nrow 1: 0.05 0.95",
         "input: v0 v1\noutput: 0 1\nrow v0: 0.95 0.05\nrow v1: 0.05 0.95",
         "u_channel input must equal v_channel output"),
    ], ids=["not-the-source-A", "blocks-do-not-chain"])
    def test_scheme_that_does_not_fit_is_input_error(self, tmp_path, source_file,
                                                     capsys, old, new, message):
        assert old in SCHEME_TEXT
        bad = tmp_path / "scheme.txt"
        bad.write_text(SCHEME_TEXT.replace(old, new))
        assert main(["eval", "--source", source_file, "--scheme", str(bad)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize("old, new", [
        ("dmax:", "mass: 1 0 0 0 0 0 0 0 0 0 0 0\ndmax:"),
        ("dmax: 1.0", "dmax: 1.0\ndmax: 2.0"),
        ("distortion: 0 1 1 0", "distortion: 0 1 1 0\ndistortion: 0 0 0 0"),
        ("mass:", "mass extra:"),
        ("mass: 0.23895", "mass: nan"),
        ("dmax: 1.0\ndistortion: 0 1 1 0", "dmax: nan\ndistortion: 0 nan 1 0"),
        ("distortion: 0 1 1 0", "distortion: 0 nan 1 0"),
        ("dmax: 1.0", "dmax: inf"),
        ("distortion: 0 1 1 0", "distortion: 0 2 1 0"),
        ("axis A:", "axis X:"),
        ("mass:", "# mass:"),
        ("distortion:", "# distortion:"),
        ("distortion: 0 1 1 0", "distortion: 0 1 1"),
    ], ids=["repeated-mass", "repeated-dmax", "repeated-distortion", "mass-argument",
            "nan-mass", "nan-dmax-and-distortion", "nan-distortion", "inf-dmax",
            "distortion-above-dmax", "no-A-axis", "missing-mass", "missing-distortion",
            "short-distortion"])
    def test_bad_source_is_input_error(self, tmp_path, scheme_file, capsys, old, new):
        bad = tmp_path / "source.txt"
        bad.write_text(SOURCE_TEXT.replace(old, new))
        assert main(["eval", "--source", str(bad), "--scheme", scheme_file]) == EXIT_INPUT
        assert main(["classify", "--source", str(bad)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 2 and captured.out == ""


class TestBinary:
    def test_table_text(self, capsys):
        code = main(["binary", "--p", "0.1", "--eps", "0.4689955935892812"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "Wyner-Ziv" in out
        assert "0.469" in out and "0.375" in out

    def test_table_csv(self, capsys):
        code = main(["binary", "--p", "0.1", "--eps", "0.4689955935892812",
                     "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert lines[0] == "column,R,D,Delta,alpha,beta"

    def test_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["binary", "--curve", "--grid", "5", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "D,delta_general,delta_wz,alpha,beta_opt"
        assert len(lines) == 6

    def test_bad_parameter_is_invariant_error(self, capsys):
        assert main(["binary", "--p", "0.7"]) == EXIT_INVARIANT

    @pytest.mark.parametrize("budget", ["nan", "-0.5", "inf", "-inf"])
    def test_bad_rate_budget_is_invariant_error(self, capsys, budget):
        # nan and -0.5 once failed inside the h2 inverse; inf printed a table
        assert main(["binary", f"--rate-budget={budget}"]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert "--rate-budget" in captured.err and captured.out == ""

    def test_rate_budget_above_one_is_clamped(self, capsys):
        assert main(["binary", "--rate-budget", "1.5"]) == EXIT_OK
        above = capsys.readouterr().out
        assert main(["binary", "--rate-budget", "1"]) == EXIT_OK
        assert above == capsys.readouterr().out

    def test_curve_matches_golden_file(self, capsys):
        # the README curve; each beta_opt is the correctly rounded optimum
        for _, argv, golden in GOLDENS["binary --curve"]:
            assert_prints_golden(capsys, argv, golden)

    @pytest.mark.parametrize("argv, golden", goldens("binary"))
    def test_table_matches_golden_file(self, capsys, argv, golden):
        # as printed when the best beta came from a beta scan and a
        # golden-section search
        assert_prints_golden(capsys, argv, golden)

    def test_curve_writes_csv(self, capsys):
        assert main(["binary", "--curve", "--grid", "3"]) == EXIT_OK
        default = capsys.readouterr().out
        assert main(["binary", "--curve", "--grid", "3", "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out == default
        assert default.startswith("D,delta_general,delta_wz,alpha,beta_opt")
        assert main(["binary", "--curve", "--format", "text"]) == EXIT_INVARIANT
        assert "--curve" in capsys.readouterr().err

    def test_curve_grid_sizes(self, capsys):
        assert main(["binary", "--curve", "--grid", "0"]) == EXIT_OK
        assert capsys.readouterr().out == "D,delta_general,delta_wz,alpha,beta_opt\r\n"
        assert main(["binary", "--curve", "--grid", "-1"]) == EXIT_INVARIANT
        assert "--grid" in capsys.readouterr().err


class TestClassify:
    def test_parametric(self, capsys):
        code = main(["classify", "--p", "0.1", "--eps", "0.15"])
        out = capsys.readouterr().out.strip()
        assert code == EXIT_OK
        assert out.startswith("degraded=yes less_noisy=yes more_capable=yes")

    def test_source_file(self, source_file, capsys):
        code = main(["classify", "--source", source_file])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "degraded=" in out and "rev_degraded=" in out

    @pytest.mark.parametrize("argv, golden", goldens("classify"))
    def test_matches_golden_file(self, capsys, argv, golden):
        # as printed when the reverse less-noisy verdict came from a second
        # search on the source rebuilt with B and E swapped
        assert_prints_golden(capsys, argv, golden)

    def test_out_of_memory_is_resource_error(self, source_file, capsys, monkeypatch):
        def out_of_memory(source):
            raise MemoryError("Unable to allocate 21.0 GiB for an array")

        monkeypatch.setattr("secrd.ordering.classify_source", out_of_memory)
        assert main(["classify", "--source", source_file]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 21.0 GiB for an array\n"
        assert captured.out == ""

    def test_solver_failure_is_resource_error(self, source_file, capsys, monkeypatch):
        monkeypatch.setattr("secrd.ordering.MAX_PIVOTS", 0)
        assert main(["classify", "--source", source_file]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: degradedness simplex stalled")
        assert captured.out == ""


class TestSimulate:
    def test_csv_output_and_determinism(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = ["simulate", "--n", "6", "--trials", "10", "--seed", "3"]
        assert main(args + ["--out", str(first)]) == EXIT_OK
        assert main(args + ["--out", str(second)]) == EXIT_OK
        assert first.read_text() == second.read_text()
        lines = first.read_text().splitlines()
        assert lines[0].startswith("# n=6 trials=10 seed=3")
        assert lines[1] == "trial,encode_ok,decode_ok,distortion,equivocation"
        assert len(lines) == 12

    @pytest.mark.parametrize("argv, golden", goldens("simulate"))
    def test_matches_golden_file(self, capsys, argv, golden):
        # as printed when each trial built its own numpy generator
        assert_prints_golden(capsys, argv, golden)

    def test_point_mass_equivocation_prints_positive_zero(self, capsys):
        # at p = 0 Eve sees A, so every trial's equivocation is exactly 0
        assert main(["simulate", "--p", "0", "--trials", "3", "--n", "6"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        fields = [f for line in lines[2:] for f in line.split(",")]
        assert len(fields) == 15 and "0.000000" in fields
        assert "-0.000000" not in fields

    def test_enumeration_guard(self, capsys):
        assert main(["simulate", "--n", "20", "--trials", "1"]) == EXIT_RESOURCE
        assert "exceeds" in capsys.readouterr().err

    def test_codebook_product_guard(self, capsys):
        # each codebook fits the budget, their product does not
        assert main(["simulate", "--n", "14", "--slack", "0.3"]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.err == "error: codebook of 6534x122 codewords exceeds budget 65536\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--n", "40"], "error: |A|^n = 1099511627776 exceeds enumeration limit\n"),
        (["--slack", "1e300"], "error: 2^1e+301 codewords exceed budget 65536\n"),
    ], ids=["blocklength", "slack"])
    def test_zero_trials_take_the_size_guards(self, capsys, flags, message):
        assert main(["simulate", "--trials", "0", *flags]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""

    def test_huge_slack_gives_a_short_message(self, capsys):
        # the codeword exponent n (I + slack) prints as 1e+301, not in 302 digits
        assert main(["simulate", "--slack", "1e300"]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.err == "error: 2^1e+301 codewords exceed budget 65536\n"
        assert captured.out == ""


class TestSweep:
    def test_csv_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--grid", "2", "--d-max", "0.05",
                     "--rate-budget", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[0] == "D,R,Delta,scheme_id"

    @pytest.mark.parametrize("argv, golden", goldens("sweep"))
    def test_matches_golden_file(self, capsys, argv, golden):
        # as the search printed them when it evaluated the coarse grid per search
        assert_prints_golden(capsys, argv, golden)

    def test_negative_grid_is_invariant_error(self, capsys):
        assert main(["sweep", "--grid", "-2"]) == EXIT_INVARIANT
        assert "--grid" in capsys.readouterr().err

    @pytest.mark.parametrize("d_max", ["-1", "nan", "inf"])
    def test_bad_d_max_is_invariant_error(self, capsys, d_max):
        assert main(["sweep", "--d-max", d_max, "--grid", "2"]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert "--d-max" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--slack", "inf"], EXIT_INVARIANT),
    (["simulate", "--slack", "nan"], EXIT_INVARIANT),
    (["simulate", "--n", "5000", "--slack", "0.5"], EXIT_RESOURCE),
    (["simulate", "--seed", "-1"], EXIT_INVARIANT),
    (["sweep", "--rate-budget", "-1"], EXIT_INVARIANT),
    (["sweep", "--rate-budget", "nan"], EXIT_INVARIANT),
    (["binary", "--curve", "--eps", "0"], EXIT_INVARIANT),
    (["binary", "--curve", "--eps", "0", "--grid", "0"], EXIT_INVARIANT),
    (["binary", "--rate-budget", "-1"], EXIT_INVARIANT),
], ids=["slack-inf", "slack-nan", "codebook-overflow", "negative-seed",
        "negative-rate-budget", "nan-rate-budget", "curve-eps-0", "curve-eps-0-grid-0",
        "binary-negative-rate-budget"])
def test_bad_argv_ends_in_an_exit_code(argv, code, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("grid", [MAX_GRID + 1, 10 ** 15])
@pytest.mark.parametrize("command", [["binary", "--curve"], ["sweep"]], ids=["curve", "sweep"])
def test_grid_above_the_bound_is_a_resource_error(command, grid, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    assert main(command + ["--grid", str(grid)]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --grid") and captured.out == ""


def test_grid_at_the_bound_is_allowed():
    assert cli._grid(0.5, MAX_GRID).shape == (MAX_GRID,)


@pytest.mark.parametrize("argv", [
    ["sweep", "--format", "csv"],
    ["classify", "--format", "csv"],
    ["simulate", "--format", "csv"],
    ["binary", "--format", "json"],
], ids=["sweep", "classify", "simulate", "binary-json"])
def test_format_only_where_it_selects_the_output(argv):
    with pytest.raises(SystemExit) as exc:  # argparse's usage error
        main(argv)
    assert exc.value.code == EXIT_INPUT


def _readme_example(heading):
    """The first ```text block after `heading` in the README."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    after = readme[readme.index(heading):]
    return re.search(r"```text\n(.*?)```", after, re.DOTALL).group(1)


def test_readme_file_examples_parse(tmp_path, capsys):
    source = tmp_path / "source.txt"
    source.write_text(_readme_example("**Source file**"))
    scheme = tmp_path / "scheme.txt"
    scheme.write_text(_readme_example("**Scheme file**"))
    assert main(["eval", "--source", str(source), "--scheme", str(scheme)]) == EXIT_OK
    assert main(["classify", "--source", str(source)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("R=") and out[1].startswith("degraded=")


@pytest.mark.parametrize("heading, name", [
    ("**Source file**", "source_p0.1_eps0.469.txt"),
    ("**Scheme file**", "scheme_alpha0.031_beta0.05.txt"),
], ids=["source", "scheme"])
def test_readme_file_examples_are_the_eval_golden_inputs(heading, name):
    path = DATA / name
    assert _readme_example(heading) == path.read_text()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p 0.2\neps = 0.3\n# comment line\n")
        code = main(["classify", "--config", str(cfg), "--eps", "0.45"])
        out = capsys.readouterr().out.strip()
        assert code == EXIT_OK
        # p comes from the config (0.2), eps from the flag (0.45):
        # 0.45 > 4p(1-p) = 0.64? no -> less noisy yes; sanity: degraded since
        # 0.45 > 2p = 0.4 fails -> degraded no
        assert out.startswith("degraded=no less_noisy=yes")

    @pytest.mark.parametrize("text", ["p\n", "eps =\n", "= 0.3\n"],
                             ids=["no-value", "empty-value", "no-key"])
    def test_malformed_config_line_is_input_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["classify", "--config", str(cfg)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "malformed config line" in captured.err and captured.out == ""

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus 1\n")
        assert main(["classify", "--config", str(cfg)]) == EXIT_INPUT

    def test_config_values_take_option_types(self, tmp_path, capsys):
        # rate-budget has no default, so only the option's type can parse it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rate-budget 0.3\ngrid 2\n")
        flags = ["sweep", "--d-max", "0.05"]
        assert main(flags + ["--config", str(cfg)]) == EXIT_OK
        from_file = capsys.readouterr().out
        assert main(flags + ["--rate-budget", "0.3", "--grid", "2"]) == EXIT_OK
        assert from_file == capsys.readouterr().out

    def test_config_store_true_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve yes\ngrid 3\n")
        assert main(["binary", "--config", str(cfg), "--grid", "2"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize("value", ["0", "False", "no"])
    def test_config_store_true_flag_off(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"curve {value}\n")
        assert main(["binary", "--config", str(cfg)]) == EXIT_OK
        path = DATA / "binary_p0.1_eps0.469.txt"
        assert capsys.readouterr().out == path.read_bytes().decode()

    @pytest.mark.parametrize("value", ["ture", "on", "2"])
    def test_mistyped_on_off_value_is_input_error(self, tmp_path, capsys, value):
        # a value other than 1/true/yes once turned the flag off silently
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"curve {value}\n")
        assert main(["binary", "--config", str(cfg)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert repr(value) in captured.err and captured.out == ""

    @pytest.mark.parametrize("line", ["p abc", "grid 1.5", "rate-budget x"])
    def test_badly_typed_config_value_is_usage_error(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:  # argparse's usage error
            main(["sweep", "--config", str(cfg)])
        assert exc.value.code == EXIT_INPUT

    @pytest.mark.parametrize("command, text", [
        ("binary", "grid 2\ngrid 3\ncurve yes\n"),
        ("sweep", "d-max 0.1\nd_max = 0.2\n"),
    ], ids=["same-spelling", "dash-and-underscore"])
    def test_repeated_config_key_is_input_error(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "repeated config key" in captured.err and captured.out == ""

    def test_config_value_outside_choices(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format bogus\n")
        assert main(["binary", "--config", str(cfg)]) == EXIT_INPUT


def test_readme_library_examples_run(capsys):
    # the blocks run in order in one namespace, as a reader would paste them
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert blocks and capsys.readouterr().out
