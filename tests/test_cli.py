import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsense
from tsense import ConfigurationError, cli
from tsense.cli import COMMANDS, RunConfig, main, output_schema, parse_config


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(args):
    """Run ``python *args`` in a fresh interpreter with the package on its path."""
    src = str(Path(tsense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )


def csv_body(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return lines[0], lines[1:]


def test_fisher_scan_csv_header_and_first_row(capsys):
    code, out, _ = run_cli(
        [
            "fisher-scan", "--interaction", "I", "--state", "2,1,1",
            "--scheme", "s0", "--time", "1", "--theta-max", "1",
            "--steps", "401", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    header, rows = csv_body(out)
    assert header == "coupling,fisher"
    theta0, f0 = rows[0].split(",")
    assert float(theta0) == 0.0
    assert float(f0) == pytest.approx(44.0, abs=1e-8)
    assert len(rows) == 401


def test_single_quantum_degenerate_probe_is_inert(capsys):
    code, out, _ = run_cli(
        ["fisher-scan", "--interaction", "II", "--state", "0,1", "--steps", "11"],
        capsys,
    )
    assert code == 0
    _, rows = csv_body(out)
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


@pytest.mark.parametrize(
    "args, named",
    [
        (["fisher-scan", "--interaction", "I"], "--state"),
        (["noise-scan", "--state", "1,1,1"], "--eps"),
        (["noise-scan", "--state", "1,1,1", "--eps", "0.1,0.1"], "need 1 or 3 eps values, got 2"),
        (["coherent-compare", "--state", "1,1,1", "--alpha", "1,1"],
         "interaction I needs 3 coherent amplitudes, got 2"),
        (["optimize", "--interaction", "I"], "--total"),
    ],
    ids=["fisher-scan-state", "noise-scan-eps", "noise-scan-eps-count",
         "coherent-compare-alpha-count", "optimize-total"],
)
def test_missing_state_is_usage_error(args, named, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert named in err


@pytest.mark.parametrize(
    "args",
    [
        ["coherent-compare", "--state", "2,2", "--alpha", "3,3,3", "--steps", "401"],
        ["coherent-compare", "--state", "2,2"],
        ["noise-scan", "--state", "2,2", "--eps", "0.1"],
        ["fisher-scan", "--state", "2,2", "--eps", "0.1"],
    ],
    ids=["coherent-compare-alpha", "coherent-compare", "noise-scan", "fisher-scan-eps"],
)
def test_wrong_length_state_is_refused_before_any_scan(args, monkeypatch, capsys):
    def refuse(offdiag):
        raise AssertionError(f"diagonalized a ladder of d = {offdiag.shape[-1] + 1}")

    monkeypatch.setattr(tsense.dynamics, "diagonalize", refuse)
    code, out, err = run_cli([*args, "--interaction", "I"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: interaction I needs 3 occupations, got 2\n")


@pytest.mark.parametrize(
    "interaction, alpha, n_modes",
    [("I", "1,1", 3), ("I", "1e200,1", 3), ("II", "1,1,1", 2), ("II", "1e200,1,1", 2)],
)
def test_wrong_amplitude_count_is_a_usage_error(interaction, alpha, n_modes, capsys):
    # counted before the probe is built: 1e200 alone would fail its truncation (exit 4)
    code, out, err = run_cli(
        ["fisher-scan", "--interaction", interaction, "--alpha", alpha, "--steps", "3"], capsys
    )
    assert (code, out) == (2, "")
    count = len(alpha.split(","))
    assert err.startswith(
        f"error: interaction {interaction} needs {n_modes} coherent amplitudes, got {count}\n")


def test_unknown_flag_is_usage_error(capsys):
    code = main(["fisher-scan", "--bogus", "1"])
    capsys.readouterr()
    assert code == 2


def test_optimize_json(capsys):
    code, out, _ = run_cli(["optimize", "--interaction", "I", "--total", "6"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["maximizers"] == [[2, 2, 2]]
    assert doc["f0"] == 120.0
    code, out, _ = run_cli(["optimize", "--interaction", "II", "--total", "5"], capsys)
    doc = json.loads(out)
    assert doc["maximizers"] == [[2, 3]]
    code, out, _ = run_cli(["optimize", "--interaction", "I", "--total", "0"], capsys)
    doc = json.loads(out)
    assert doc["maximizers"] == [[0, 0, 0]]
    assert doc["relaxation"] is None


@pytest.mark.parametrize("interaction, total", [("I", 1085), ("II", 770)])
def test_optimize_prints_the_relaxation_at_large_totals(interaction, total, capsys):
    code, out, _ = run_cli(
        ["optimize", "--interaction", interaction, "--total", str(total)], capsys
    )
    assert code == 0
    relaxation = json.loads(out)["relaxation"]
    assert relaxation is not None
    assert sum(relaxation) == pytest.approx(total, rel=1e-15)


def test_optimize_rejects_csv(capsys):
    code, _, err = run_cli(
        ["optimize", "--interaction", "I", "--total", "4", "--format", "csv"], capsys
    )
    assert code == 2
    assert "json" in err


def test_scaling_columns(capsys):
    code, out, _ = run_cli(
        ["scaling", "--interaction", "I", "--n-max", "30"], capsys
    )
    assert code == 0
    header, rows = csv_body(out)
    assert header == "n,f0_one,f0_two,f0_three,asymptote"
    for row in rows:
        cells = row.split(",")
        n = int(cells[0])
        assert float(cells[1]) == 4.0 * n
    row6 = rows[5].split(",")
    assert float(row6[3]) == 120.0
    # infeasible three-mode cells are empty below N=3
    assert rows[0].split(",")[3] == ""

    code, out, _ = run_cli(["scaling", "--interaction", "II", "--n-max", "5"], capsys)
    header, _ = csv_body(out)
    assert header == "n,f0_one,f0_two,asymptote"


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_scaling_needs_a_positive_n_max(n_max, capsys):
    # an empty table is a usage error, not an empty file
    code, out, err = run_cli(["scaling", "--interaction", "I", "--n-max", n_max], capsys)
    assert code == 2
    assert out == ""
    assert "n_max must be >= 1" in err


def test_noise_scan_zero_eps_columns_identical(capsys):
    code, out, _ = run_cli(
        [
            "noise-scan", "--interaction", "I", "--state", "2,1,1",
            "--eps", "0", "--steps", "21",
        ],
        capsys,
    )
    assert code == 0
    header, rows = csv_body(out)
    assert header == "coupling,fisher_pure,fisher_noisy"
    for row in rows:
        _, pure, noisy = row.split(",")
        assert pure == noisy


def test_coherent_compare(capsys):
    code, out, _ = run_cli(
        [
            "coherent-compare", "--interaction", "I", "--state", "2,2,2",
            "--steps", "5", "--theta-max", "0.4",
        ],
        capsys,
    )
    assert code == 0
    header, rows = csv_body(out)
    assert header == "coupling,fisher_fock,fisher_coherent,qfi_coherent"
    first = rows[0].split(",")
    assert float(first[1]) == pytest.approx(120.0, abs=1e-8)
    assert float(first[3]) == pytest.approx(56.0, abs=1e-10)
    assert float(first[2]) < 56.0


def test_dynamic_range_formula_column(capsys):
    code, out, _ = run_cli(
        [
            "dynamic-range", "--interaction", "I", "--state", "4,0,0",
            "--scheme", "binary", "--theta-max", "2.5", "--steps", "401",
        ],
        capsys,
    )
    assert code == 0
    header, rows = csv_body(out)
    assert header == "state,theta_min_empirical,theta_min_formula"
    cells = next(csv.reader([rows[0]]))
    assert cells[0] == "4,0,0"
    assert float(cells[2]) == pytest.approx(1.0)
    assert float(cells[1]) == pytest.approx(1.17, abs=0.05)


def test_dynamic_range_beyond_range_cell_empty(capsys):
    # full readout keeps F constant for a single excited mode: no minimum
    code, out, _ = run_cli(
        [
            "dynamic-range", "--interaction", "I", "--state", "2,0,0",
            "--scheme", "pnr", "--theta-max", "2.0", "--steps", "201",
        ],
        capsys,
    )
    assert code == 0
    _, rows = csv_body(out)
    assert next(csv.reader([rows[0]]))[1] == ""


def test_deterministic_output_files(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code = main(
            [
                "fisher-scan", "--interaction", "II", "--state", "1,3",
                "--scheme", "binary", "--steps", "51", "--out", str(p),
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_unwritable_path_exit_code(capsys):
    code, _, err = run_cli(
        [
            "fisher-scan", "--interaction", "I", "--state", "1,0,0",
            "--steps", "3", "--out", "/nonexistent-dir/out.csv",
        ],
        capsys,
    )
    assert code == 3


def test_bad_scan_parameters_exit_code(capsys):
    code, _, _ = run_cli(
        ["fisher-scan", "--interaction", "I", "--state", "1,0,0", "--steps", "1"],
        capsys,
    )
    assert code == 2
    code, _, _ = run_cli(
        ["fisher-scan", "--interaction", "I", "--state", "1,0,0", "--time", "0"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("trials", ["0", "-5"])
@pytest.mark.parametrize(
    "probe", [["--state", "0,0,0"], ["--state", "2,1,1"], ["--alpha", "0,0,0"]]
)
def test_fisher_scan_refuses_trials_below_one(probe, trials, monkeypatch, capsys):
    # refused for inert probes too, whose F(0) = 0 never reaches cramer_rao
    def refuse(*args, **kwargs):
        raise AssertionError("scanned the probe")

    monkeypatch.setattr(cli, "scan", refuse)
    code, out, err = run_cli(["fisher-scan", *probe, "--trials", trials], capsys)
    assert code == 2
    assert out == ""
    assert f"trials must be >= 1, got {trials}" in err


@pytest.mark.parametrize(
    "args",
    [
        ["--state", "2,1,1", "--steps", "3", "--trials", "1" + "0" * 400],
        ["--state", "200,200,200", "--theta-max", "0.01", "--steps", "2",
         "--trials", "1" + "0" * 301],
    ],
    ids=["int-to-float-overflow", "product-overflow"],
)
def test_fisher_scan_refuses_trials_whose_product_with_f_is_not_a_float(args, capsys):
    # the first ended in an uncaught OverflowError, the second printed a bound of 0.0
    code, out, err = run_cli(["fisher-scan", *args], capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("error: trials times the Fisher information ")
    assert lines[1] == "run 'tsense <subcommand> --help' for usage"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "args",
    [
        ["fisher-scan", "--state", "2,1,1", "--time", "inf"],
        ["fisher-scan", "--state", "2,1,1", "--theta-max", "nan"],
        ["fisher-scan", "--alpha", "nan,1,1"],
        ["scaling", "--n-max", "3", "--time", "nan"],
    ],
)
def test_non_finite_inputs_are_usage_errors(args, fmt, capsys):
    code, out, err = run_cli(args + ["--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("alpha", ["inf,1,1", "nan,1,1", "1,-inf,1", "1,1,1+infi"])
def test_non_finite_amplitudes_reach_the_finiteness_check(alpha, capsys):
    code, out, err = run_cli(["fisher-scan", "--alpha", alpha, "--steps", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "alpha must be finite" in err


def test_only_a_trailing_i_is_the_imaginary_unit():
    assert cli._amplitudes("1+2i, -0.5i,3,1e-3-1e2i") == (1 + 2j, -0.5j, 3, 1e-3 - 1e2j)
    with pytest.raises(ConfigurationError, match=re.escape("cannot parse amplitude '2i+1'")):
        cli._amplitudes("2i+1")


def _bits(alphas):
    return [(a.real.hex(), a.imag.hex()) for a in alphas]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e100), min_size=3, max_size=3))
@example([0.0 - 0.7j, complex(-0.0, -0.0), complex(1.2, -0.0)])
@example([1.2 + 0.5j, 1 + 0j, complex(0, -0.7)])
def test_amplitudes_read_every_probe_label_back_exactly(alphas):
    # the label of a coherent probe, signs of zero included, is valid --alpha text
    probe = tsense.CoherentProduct(tuple(alphas))
    label = cli._probe_label(probe)
    assert label.startswith("coherent(") and label.endswith(")")
    assert _bits(cli._amplitudes(label[len("coherent(") : -1])) == _bits(probe.alphas)


def test_a_config_probe_label_is_accepted_as_alpha(capsys):
    # the amplitudes [0, -0.7] of tools/configs/alpha-pairs.json
    code, out, _ = run_cli(["fisher-scan", "--alpha", "1.2+0.5i,1,-0.7i", "--steps", "2"], capsys)
    assert code == 0
    (label,) = [line[len("# probe: coherent("):-1] for line in out.splitlines()
                if line.startswith("# probe:")]
    assert label == "1.2+0.5i,1.0+0.0i,0.0-0.7i"
    code, again, _ = run_cli(["fisher-scan", f"--alpha={label}", "--steps", "2"], capsys)
    assert code == 0 and again == out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_results_are_numeric_failures(fmt, tmp_path, capsys):
    # finite input whose coupling-time product overflows the evolution
    path = tmp_path / f"scan.{fmt}"
    code, _, err = run_cli(
        [
            "fisher-scan", "--state", "2,1,1", "--time", "1e300", "--steps", "3",
            "--format", fmt, "--out", str(path),
        ],
        capsys,
    )
    assert code == 4
    assert "non-finite" in err
    assert not path.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["fisher-scan", "--state", "2,1,1", "--time", "1e300", "--steps", "3"],
        ["dynamic-range", "--state", "4,0,0", "--scheme", "binary", "--time", "1e300",
         "--steps", "5", "--format", "json"],
        ["scaling", "--n-max", "3", "--time", "1e200"],
    ],
)
def test_overflow_reports_one_line(args):
    # a fresh interpreter, so numpy warnings would reach stderr as printed
    proc = run_fresh(["-m", "tsense.cli", *args])
    assert proc.returncode == 4
    assert proc.stdout == ""
    # scaling overflows in asymptotic_prediction, the others in their results
    if args[0] == "scaling":
        assert proc.stderr == "numeric failure: the asymptote at total 1, t = 1e+200 is not finite\n"
    else:
        assert proc.stderr == "numeric failure: the results contain non-finite values\n"


@pytest.mark.parametrize(
    "args",
    [
        ["fisher-scan", "--alpha", "1e160,1,1"],
        ["fisher-scan", "--alpha", "1e160,1,1", "--scheme", "binary"],
        ["coherent-compare", "--state", "1,1,1", "--alpha", "1e200,1,1"],
    ],
)
def test_huge_coherent_amplitudes_are_numeric_failures(args, capsys):
    # |alpha|^2 overflows a float: refused like an amplitude whose
    # truncation does not close, with no traceback
    code, out, err = run_cli([*args, "--steps", "3"], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args,flag",
    [
        (["noise-scan", "--state", "1,1,1", "--eps", "0.1", "--alpha", "1,1,1", "--steps", "2"],
         "--alpha"),
        (["dynamic-range", "--state", "2,1,1", "--alpha", "5,1,1", "--steps", "5"], "--alpha"),
        (["optimize", "--total", "6", "--steps", "5"], "--steps"),
        (["scaling", "--state", "1,1,1"], "--state"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(args, flag, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    (line,) = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert line == f"error: {args[0]} does not read {flag}"


def test_deep_coherent_probe_meets_the_eigenvector_budget(monkeypatch, capsys):
    # |alpha|^2 = 729 and 1521: each amplitude table starts from its first
    # normal entry (at 1521, exp(-760.5) is 0 in floating point).  Each
    # probe's ladders are refused together
    def refuse(offdiag):
        raise AssertionError(f"diagonalized a ladder of d = {offdiag.shape[-1] + 1}")

    monkeypatch.setattr(tsense.dynamics, "diagonalize", refuse)
    for interaction, alpha in [("I", "27,1,1"), ("II", "39,1")]:
        code, out, err = run_cli(
            ["fisher-scan", "--interaction", interaction, "--alpha", alpha, "--steps", "2"],
            capsys,
        )
        assert code == 4
        assert out == ""
        assert err.startswith("numeric failure: the ") and err.count("\n") == 1
        assert "eigenvector entries" in err and f"(cap {tsense.ladder.MAX_RUNGS}**2)" in err


def test_one_excited_mode_runs_past_ten_thousand_quanta(capsys):
    # |alpha|^2 = 10,000 on mode b alone: every ladder has one rung
    code, out, err = run_cli(
        ["fisher-scan", "--interaction", "I", "--alpha", "0,100,0", "--steps", "3"], capsys
    )
    assert (code, err) == (0, "")
    _, rows = csv_body(out)
    assert rows == ["0.0,0.0", "0.5,0.0", "1.0,0.0"]


def test_coherent_box_is_refused_from_its_lower_bound(monkeypatch, capsys):
    # each table holds more than floor(|alpha|^2) entries, so 4,000,001 * 2 * 2
    # states are refused before any table is built
    def refuse(alpha, share):
        raise AssertionError(f"built the amplitude table of {alpha}")

    monkeypatch.setattr(tsense.probes, "_amplitude_table", refuse)
    code, out, err = run_cli(
        ["fisher-scan", "--interaction", "I", "--alpha", "2000,1,1", "--steps", "3"], capsys
    )
    assert (code, out) == (4, "")
    assert err == (
        "numeric failure: coherent decomposition needs at least 16000004 basis states, "
        f"floor(|alpha|**2) + 1 per mode (cap MAX_ROWS = {tsense.ladder.MAX_ROWS})\n"
    )
    assert "cutoff_mass" not in err


# runs each argv of a JSON list through main() while a None entry in
# sys.modules makes every scipy import fail, and reports the exit codes,
# the stdout texts and any scipy submodule that got loaded
WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from tsense.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
loaded = [m for m in sys.modules if m.startswith("scipy") and m != "scipy"]
print(json.dumps({"runs": runs, "scipy": loaded}))
"""


def test_cli_runs_without_scipy(capsys):
    argvs = [
        ["fisher-scan", "--state", "1,0,0", "--steps", "2"],
        ["dynamic-range", "--state", "4,0,0", "--scheme", "binary", "--steps", "41"],
        ["coherent-compare", "--state", "1,1,1", "--theta-max", "0.5", "--steps", "5"],
    ]
    proc = run_fresh(["-c", WITHOUT_SCIPY, json.dumps(argvs)])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["scipy"] == []
    assert len(doc["runs"]) == len(argvs)
    for argv, (code, out) in zip(argvs, doc["runs"]):
        assert code == 0
        assert out and out == run_cli(argv, capsys)[1]


def test_resource_failure_exit_code(capsys):
    # coherent truncation above the hard state cap
    code, _, err = run_cli(
        [
            "fisher-scan", "--interaction", "I",
            "--alpha", "100+0i,100+0i,100+0i", "--steps", "3",
        ],
        capsys,
    )
    assert code == 4


def test_oversized_ladder_is_a_resource_failure(capsys):
    # d = 3e9 rungs: refused from the closed-form size, before any allocation
    code, out, err = run_cli(
        ["fisher-scan", "--state", "2,3000000000,3000000000", "--steps", "3"], capsys
    )
    assert code == 4
    assert out == ""
    assert err.startswith("numeric failure: ")
    assert err.count("\n") == 1 and "3000000003 rungs" in err


def test_alpha_and_state_conflict(capsys):
    code, _, err = run_cli(
        [
            "fisher-scan", "--interaction", "I", "--state", "1,1,1",
            "--alpha", "1+0i,1+0i,1+0i",
        ],
        capsys,
    )
    assert code == 2


def test_coherent_probe_flag_parsing(capsys):
    code, out, _ = run_cli(
        [
            "fisher-scan", "--interaction", "II", "--alpha", "1+0i,1-1i",
            "--steps", "3", "--theta-max", "0.2",
        ],
        capsys,
    )
    assert code == 0
    _, rows = csv_body(out)
    assert len(rows) == 3


def test_flag_values_may_start_with_a_minus(capsys):
    # argparse alone takes "-1,1,1" for an option and exits 2
    args = ["fisher-scan", "--interaction", "I", "--steps", "3"]
    joined = run_cli([*args, "--alpha=-1,1,1"], capsys)
    assert joined[0] == 0
    assert run_cli([*args, "--alpha", "-1,1,1"], capsys) == joined
    assert run_cli([*args, "--alph", "-1,1,1"], capsys) == joined
    code, out, err = run_cli([*args, "--state", "-1,1,1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: occupations must be non-negative")
    code, out, err = run_cli([*args, "--state", "1,1,1", "--eps", "-.1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: eps must lie in [0, 0.25]")


@pytest.mark.parametrize("args", [["--alpha", "--steps", "3"], ["--steps", "3", "--alpha"]])
def test_a_flag_without_its_value_stays_a_usage_error(args):
    # a real option, or nothing, after the flag: argparse's own message
    proc = run_fresh(["-m", "tsense.cli", "fisher-scan", "--interaction", "I", *args])
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: argument --alpha: expected one argument\n")


@pytest.mark.parametrize(
    "scheme, target", [("binary", tsense.BinaryFock(2)), ("s0", tsense.SequentialS0(2))]
)
def test_coherent_scheme_targets_the_rounded_first_mean(scheme, target, capsys):
    # round(|1.5|^2) = 2
    code, out, _ = run_cli(
        ["fisher-scan", "--interaction", "I", "--alpha", "1.5,1,1", "--scheme", scheme,
         "--steps", "11", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["scheme"] == f"{scheme}(n=2)"
    profile = tsense.scan(
        tsense.CoherentProduct((1.5 + 0j, 1 + 0j, 1 + 0j)), tsense.InteractionKind.I, target,
        steps=11,
    )
    assert doc["rows"] == np.column_stack([profile.couplings, profile.fisher]).tolist()


def test_config_file_roundtrip_and_override(tmp_path, capsys):
    cfg = parse_config(
        [
            "fisher-scan", "--interaction", "II", "--state", "1,3",
            "--scheme", "s0", "--steps", "11", "--theta-max", "2",
            "--eps", "0.05,0.1",
        ]
    )
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "subcommand": "fisher-scan", "interaction": "II", "state": [1, 3],
                "eps": [0.05, 0.1], "alpha": None, "scheme": "s0", "time": 1,
                "theta_max": 2, "steps": 11, "total": None, "n_max": 30,
                "trials": 1, "out": None, "format": "csv",
            }
        ),
        encoding="utf-8",
    )

    # by repr, since 1 == 1.0: an integer JSON number must read as its flag's text does
    again = parse_config(["fisher-scan", "--config", str(path)])
    assert repr(again) == repr(cfg)

    overridden = parse_config(
        ["fisher-scan", "--config", str(path), "--steps", "21"]
    )
    assert overridden.steps == 21
    assert overridden.state == cfg.state
    assert repr(overridden) == repr(dataclasses.replace(cfg, steps=21))
    capsys.readouterr()


@pytest.mark.parametrize("sub", list(COMMANDS))
def test_config_keys_are_the_flags(sub, tmp_path, capsys):
    code, out, _ = run_cli([sub, "--help"], capsys)
    assert code == 0
    flags = set(re.findall(r"\s(--[a-z][a-z-]*)", out)) - {"--config", "--help"}
    keys = {name.replace("-", "_") for name in (flag[2:] for flag in flags)}
    config_keys = {f.name for f in dataclasses.fields(RunConfig)} - {"subcommand"}
    assert keys == config_keys
    # every key at once, each at the value its flag leaves by default, time and
    # theta_max (1.0) as the JSON integer 1; compared by repr, since 1 == 1.0
    defaults = parse_config([sub])
    values = {key: getattr(defaults, key) for key in keys} | {"time": 1, "theta_max": 1}
    path = tmp_path / "all.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    assert repr(parse_config([sub, "--config", str(path)])) == repr(defaults)
    # and each key on its own, moved off its default through the file as by its flag
    texts = {"interaction": "II", "scheme": "s0", "state": "1,3", "eps": "0.5",
             "alpha": "1+2i", "out": "x.csv", "format": "json" if sub != "optimize" else "csv"}
    reads = {"interaction", "time", "out", "format", *COMMANDS[sub][1].split()}
    for key in sorted(keys):
        text = texts.get(key, "7")
        flag = "--" + key.replace("_", "-")
        # "7" as the JSON integer 7, for float flags too; any other text as a string
        value = int(text) if text.isdigit() else text
        path.write_text(json.dumps({key: value}), encoding="utf-8")
        if key not in reads:
            # typed, a flag the subcommand never reads is refused; preset, it is kept
            with pytest.raises(ConfigurationError, match=f"^{sub} does not read {flag}$"):
                parse_config([sub, flag, text])
            assert parse_config([sub, "--config", str(path)]) != defaults, key
            continue
        want = parse_config([sub, flag, text])
        assert want != defaults, key
        assert repr(parse_config([sub, "--config", str(path)])) == repr(want), key


@pytest.mark.parametrize("subcommand, fmt", [("fisher-scan", "csv"), ("dynamic-range", "json")])
def test_integer_config_numbers_print_as_their_flags_do(subcommand, fmt, tmp_path, capsys):
    # tools/configs/int-numbers.json: "time": 1 must print as --time 1 does, 1.0
    path = tmp_path / "int-numbers.json"
    path.write_text(json.dumps({"interaction": "I", "state": [4, 0, 0], "scheme": "binary",
                                "time": 1, "theta_max": 2, "steps": 21}), encoding="utf-8")
    flags = ["--interaction", "I", "--state", "4,0,0", "--scheme", "binary",
             "--time", "1", "--theta-max", "2", "--steps", "21"]
    code, by_flags, _ = run_cli([subcommand, *flags, "--format", fmt], capsys)
    assert code == 0
    assert run_cli([subcommand, "--config", str(path), "--format", fmt], capsys) == (
        0, by_flags, "")


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"bogus": 1}', encoding="utf-8")
    code, _, err = run_cli(["fisher-scan", "--config", str(path)], capsys)
    assert code == 2
    assert "bogus" in err


# a JSON integer of 330 digits: a valid number, but beyond any float
HUGE = int("9" * 330)


@pytest.mark.parametrize(
    "key,config",
    [
        ("time", {"state": "2,1,1", "time": HUGE}),
        ("theta_max", {"state": "2,1,1", "theta_max": HUGE}),
        ("eps", {"state": "2,1,1", "eps": [0.1, HUGE, 0.1]}),
        ("alpha", {"alpha": [[1, 0], [HUGE, 0], [1, 0]]}),
    ],
)
def test_config_numbers_beyond_a_float_are_usage_errors(key, config, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(["fisher-scan", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    # the usage error and the usage hint, no traceback
    message, hint = err.splitlines()
    assert message == f"error: config value for {key!r} is too large for a float"
    assert hint.startswith("run 'tsense")


@pytest.mark.parametrize(
    "subcommand, config, flags, message",
    [
        ("fisher-scan", b'{"state": "2,1,1\xff"}', [], "invalid config file: 'utf-8' codec"),
        (
            "fisher-scan", b'{"state": "2,1,1", "steps": ' + b"9" * 5000 + b"}", [],
            "invalid config file: Exceeds the limit (4300 digits)",
        ),
        # checked as a Fock state before its square roots become amplitudes
        ("coherent-compare", None, ["--state=-1,2,2"], "occupations must be non-negative"),
    ],
    ids=["not-utf-8", "5000-digits", "negative-coherent-default"],
)
def test_input_past_python_limits_is_a_usage_error(
    subcommand, config, flags, message, tmp_path, capsys
):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_bytes(config)
        flags = [*flags, "--config", str(path)]
    code, out, err = run_cli([subcommand, *flags], capsys)
    assert code == 2
    assert out == ""
    line, hint = err.splitlines()
    assert line.startswith(f"error: {message}")
    assert hint.startswith("run 'tsense")


@pytest.mark.parametrize(
    "config",
    [
        {"state": "2,1,1", "time": "abc"},
        {"state": "2,1,1", "steps": "5"},
        {"state": 5},
        {"state": "2,1,1", "theta_max": None},
        {"state": "2,1,1", "steps": True},
        {"state": "2,1,1", "scheme": "bogus"},
        {"state": "2,1,1", "interaction": 1},
        {"state": [[2], 1, 1]},
        {"alpha": [1, 2, 3]},
        ["state", "2,1,1"],
        {"state": [2, 1.7, True]},
        {"state": [2, True, 1]},
        {"state": [2.0, 1, 1]},
        {"state": "2,2,2", "eps": [0.1, False, 0.1]},
        {"state": "2,2,2", "eps": ["0.1"]},
        {"alpha": [[1, True], [1, 0], [1, 0]]},
        {"alpha": [[1], [1, 0], [1, 0]]},
        {"alpha": [[1, 0, 0], [1, 0], [1, 0]]},
        {"alpha": [["1", 0], [1, 0], [1, 0]]},
    ],
)
def test_config_file_value_types_are_usage_errors(config, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(["fisher-scan", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "config, flags, message",
    [
        ({"state": 5}, ["--state", "1,1,1"], "config value for 'state' has the wrong type: 5"),
        ({"state": "2,1,a"}, ["--state", "1,1,1"], "cannot parse occupations from '2,1,a'"),
        ({"state": "1,1,1", "eps": "0.1,x"}, ["--eps", "0.1"], "cannot parse eps from '0.1,x'"),
        ({"alpha": "1,x,1"}, ["--alpha", "1,1,1"], "cannot parse amplitude 'x'"),
    ],
    ids=["wrong-type", "state", "eps", "alpha"],
)
def test_a_bad_preset_is_a_usage_error_even_when_overridden(
    config, flags, message, tmp_path, capsys
):
    # every config value is checked as the file is loaded, whichever flags follow
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(["fisher-scan", "--config", str(path), *flags, "--steps", "2"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}\n")


def test_json_outputs_validate_against_schema(tmp_path, capsys):
    schema = output_schema()
    jsonschema.Draft202012Validator.check_schema(schema)
    validator = jsonschema.Draft202012Validator(schema)
    runs = [
        ["fisher-scan", "--interaction", "I", "--state", "1,1,1", "--steps", "5",
         "--format", "json"],
        ["optimize", "--interaction", "I", "--total", "4"],
        ["optimize", "--interaction", "II", "--total", "1"],
        ["scaling", "--interaction", "I", "--n-max", "4", "--format", "json"],
        ["dynamic-range", "--interaction", "II", "--state", "0,4",
         "--scheme", "binary", "--theta-max", "2.0", "--steps", "201",
         "--format", "json"],
        ["noise-scan", "--interaction", "II", "--state", "1,3", "--eps", "0.05",
         "--steps", "5", "--format", "json"],
        ["coherent-compare", "--interaction", "II", "--state", "2,3", "--steps", "3",
         "--theta-max", "0.3", "--format", "json"],
    ]
    for args in runs:
        code, out, _ = run_cli(args, capsys)
        assert code == 0, args
        validator.validate(json.loads(out))


def test_probe_eigenvector_budget_is_a_resource_failure(monkeypatch, capsys):
    # 27 ladders, each under MAX_RUNGS rungs, would hold about 12.9 GiB of
    # eigenvectors; the probe is refused before any of them is diagonalized
    def refuse(offdiag):
        raise AssertionError(f"diagonalized a ladder of d = {offdiag.shape[-1] + 1}")

    monkeypatch.setattr(tsense.dynamics, "diagonalize", refuse)
    code, out, err = run_cli(
        ["fisher-scan", "--state", "2000,6000,6000", "--eps", "0.1", "--steps", "3"],
        capsys,
    )
    assert code == 4
    assert out == ""
    assert err.startswith("numeric failure: ")
    assert err.count("\n") == 1 and "27 ladders" in err


@pytest.mark.parametrize("command", [["noise-scan", "--eps", "0.1"], ["coherent-compare"]])
def test_two_probe_commands_refuse_before_diagonalizing(command, monkeypatch, capsys):
    # the pure Fock probe alone is one ladder of d = 8001, within the budget;
    # the noisy or coherent probe beside it is refused, and is scanned first
    def refuse(offdiag):
        raise AssertionError(f"diagonalized a ladder of d = {offdiag.shape[-1] + 1}")

    monkeypatch.setattr(tsense.dynamics, "diagonalize", refuse)
    code, out, err = run_cli(
        [*command, "--state", "2000,6000,6000", "--steps", "3"], capsys
    )
    assert code == 4
    assert out == ""
    assert err.startswith("numeric failure: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "interaction, total, expected", [("I", 524287, 0), ("I", 524288, 4), ("II", 2**21, 4)]
)
def test_optimize_total_cap(interaction, total, expected, capsys):
    code, out, err = run_cli(
        ["optimize", "--interaction", interaction, "--total", str(total)], capsys
    )
    assert code == expected
    if expected == 4:
        assert out == ""
        assert err.startswith("numeric failure: ") and err.count("\n") == 1


def test_huge_optimize_total_is_refused_before_allocating(monkeypatch, capsys):
    # 4.0e6 candidate rows
    def refuse(*args, **kwargs):
        raise AssertionError("allocated the candidates")

    monkeypatch.setattr(tsense.optimize, "_candidates", refuse)
    monkeypatch.setattr(np, "indices", refuse)
    code, out, err = run_cli(["optimize", "--total", "1000000"], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


def test_huge_steps_are_refused_before_allocating(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated the coupling grid")

    monkeypatch.setattr(np, "linspace", refuse)
    code, out, err = run_cli(
        ["fisher-scan", "--state", "1,0,0", "--steps", "2000000000"], capsys
    )
    assert code == 4
    assert out == ""
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    argvs = [
        ["dynamic-range", "--state", "2,1,1", "--scheme", "binary", "--steps", "5"],
        ["fisher-scan", "--bogus"],
        ["optimize", "--total", "4"],
        ["fisher-scan", "--state", "1,0,0", "--steps", "2"],
    ]
    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        assert run_cli(argvs[0], capsys)[0] == 0
        one_build = list(built)
        # the shared flags, the top-level parser and one per subcommand
        assert len(one_build) == 2 + len(COMMANDS)
        for argv in argvs * 5:
            run_cli(argv, capsys)
        assert built == one_build
    finally:
        cli._build_parser.cache_clear()
