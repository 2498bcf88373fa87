"""Command-line interface: subcommands, formats, exit codes."""

import json

import pytest

from mscrn.cli import cli

import conftest as fx


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "ab.mscrn"
    path.write_text(fx.AB_TEXT)
    return str(path)


@pytest.fixture()
def gene_file(tmp_path):
    path = tmp_path / "gene.mscrn"
    path.write_text(fx.GENE_TEXT)
    return str(path)


def test_analyze_json(gene_file, tmp_path, capsys):
    out = tmp_path / "analysis.json"
    assert cli(["analyze", gene_file, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "single"
    assert payload["discrete_species"] == ["G", "Ga"]
    assert payload["continuous_species"] == ["P"]


def test_analyze_two_scale(model_file, capsys):
    assert cli(["analyze", model_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "two"
    assert payload["fast_species"] == ["B"]
    assert payload["conserved_basis"]["vectors"] == []


def test_simulate_ssa_csv(model_file, tmp_path):
    out = tmp_path / "traj.csv"
    code = cli(["simulate", model_file, "--engine", "ssa", "--N", "50",
                "--t-end", "0.5", "--grid", "0.25,0.5", "--replicas", "5",
                "--seed", "3", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time,A_mean,A_se,B_mean,B_se"
    assert len(lines) == 3


def test_simulate_pdmp_json(model_file, capsys):
    code = cli(["simulate", model_file, "--engine", "pdmp",
                "--t-end", "1.0", "--grid", "0.5,1.0", "--replicas", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["observables"] == ["A"]
    assert len(payload["times"]) == 2


def test_reduce_output(model_file, capsys):
    assert cli(["reduce", model_file]) == 0
    text = capsys.readouterr().out
    assert text.startswith("reduced-model two")
    assert "k1*k2*vA/(k3+k1*vA)" in text


def test_avg_rates_csv(model_file, capsys):
    code = cli(["avg-rates", model_file, "--var", "A", "--values", "1.0",
                "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "reaction,state,rate,se,kind"
    assert lines[1] == "1,1.0,0.5,0.0,analytic"


@pytest.mark.parametrize("total", [1100, 5000])
def test_avg_rates_exact_position_sum_at_large_totals(tmp_path, total, capsys):
    # an expression law summed exactly over the total + 1 placements of A
    # on two compartments; comb(total, n) overflows a float from 1030
    # molecules on, so the probabilities are summed in logs
    path = tmp_path / "expr.mscrn"
    path.write_text("species A alpha=0 eta=1\ncompartments d1 d2\n"
                    "reaction A -> 0 @ expr 0.5*A beta=0\n"
                    "move A from d1 to d2 rate 1\nmove A from d2 to d1 rate 1\n")
    assert cli(["avg-rates", str(path), "--var", "A", "--values", str(total)]) == 0
    [row] = json.loads(capsys.readouterr().out)
    assert row["rate"] == pytest.approx(total / 2, rel=1e-9)


def test_verify_small(model_file, tmp_path):
    out = tmp_path / "report.json"
    code = cli(["verify", model_file, "--N", "10,50", "--replicas", "60",
                "--t-end", "0.5", "--grid", "0.5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert [entry["N"] for entry in payload["per_N"]] == [10, 50]


def test_verify_decreasing_ladder_exit_2(model_file, capsys):
    assert cli(["verify", model_file, "--N", "1000,100,10", "--replicas", "40"]) == 2
    assert "N ladder" in capsys.readouterr().err


def test_unknown_subcommand_exit_1(capsys):
    assert cli(["frobnicate"]) == 1


def test_missing_argument_exit_1(capsys):
    assert cli(["simulate"]) == 1


@pytest.mark.parametrize("args", [
    ["analyze", "--format", "csv"],
    ["analyze", "--seed", "1"],
    ["analyze", "--budget", "10"],
    ["reduce", "--format", "csv"],
], ids=["analyze-format", "analyze-seed", "analyze-budget", "reduce-format"])
def test_flag_a_subcommand_does_not_read_exit_1(model_file, args, capsys):
    # analyze runs no estimate and writes JSON only; reduce writes the
    # reduced-model text only
    assert cli([args[0], model_file] + args[1:]) == 1
    assert f"unrecognized arguments: {' '.join(args[1:])}" in capsys.readouterr().err


def test_bad_model_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mscrn"
    bad.write_text("species A alpha=nope\n")
    assert cli(["analyze", str(bad)]) == 2


def test_validation_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mscrn"
    bad.write_text("species A alpha=0\nreaction A + Q -> 0 @ mass-action kappa=1\n")
    assert cli(["analyze", str(bad)]) == 2


def test_missing_file_exit_2(capsys):
    assert cli(["analyze", "/nonexistent/model.mscrn"]) == 2


def test_unclassifiable_exit_2(tmp_path, capsys):
    bad = tmp_path / "frozen.mscrn"
    bad.write_text("species A alpha=2\n"
                   "reaction A -> 0 @ mass-action kappa=1 beta=1\n")
    assert cli(["analyze", str(bad)]) == 2


def test_numerical_failure_exit_3(tmp_path, capsys):
    # analytic mode on a fast tier with an expression law cannot proceed
    path = tmp_path / "expr.mscrn"
    path.write_text("species A alpha=1\nspecies B alpha=0\n"
                    "reaction A + B -> 0 @ mass-action kappa=1 beta=1\n"
                    "reaction 0 -> B @ expr 1.0 beta=1\n"
                    "reaction B -> 0 @ mass-action kappa=1 beta=1\n"
                    "init A 1\n")
    assert cli(["reduce", str(path), "--mode", "analytic"]) == 3


def test_simulate_overflowing_propensity_exit_3(tmp_path, capsys):
    # A * B overflows: the SSA stops on the infinite total instead of
    # spinning at t = 0 until the event cap
    path = tmp_path / "overflow.mscrn"
    path.write_text("species A alpha=0\nspecies B alpha=0\n"
                    "reaction A + B -> 0 @ mass-action kappa=1 beta=0\n"
                    "reaction 0 -> A @ mass-action kappa=1 beta=0\n"
                    "init A 1e200\ninit B 1e200\n")
    assert cli(["simulate", str(path), "--engine", "ssa", "--N", "1", "--t-end", "1"]) == 3
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "species A alpha=0\nreaction A -> 0 @ mass-action kappa=1 beta=31\ninit A 5\n",
    "species A alpha=0 eta=31\ncompartments d1 d2\n"
    "reaction A -> 0 @ mass-action kappa=1,1 beta=0\n"
    "move A from d1 to d2 rate 1\nmove A from d2 to d1 rate 1\n"
    "init A @ d1 5\ninit A @ d2 0\n"])
def test_simulate_overflowing_power_of_N_exit_3(tmp_path, text, capsys):
    # N^31 at N = 1e10 overflows a float, as a reaction's beta and as a
    # movement's eta: a numerical failure, not a traceback
    path = tmp_path / "power.mscrn"
    path.write_text(text)
    assert cli(["simulate", str(path), "--engine", "ssa", "--N", "1e10", "--t-end", "1"]) == 3
    assert "numerical failure: N^31 overflows a float at N = 1e+10" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["ssa", "pdmp"])
def test_simulate_zero_replicas_exit_2(gene_file, engine, capsys):
    assert cli(["simulate", gene_file, "--engine", engine, "--t-end", "1",
                "--replicas", "0"]) == 2
    assert "model error" in capsys.readouterr().err


def test_bad_mc_config_exit_2(model_file, capsys):
    assert cli(["avg-rates", model_file, "--var", "A", "--values", "1.0",
                "--mode", "montecarlo", "--budget", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("model error") and "budget >= 1" in err


@pytest.mark.parametrize("args", [
    ["avg-rates", "--var", "A", "--values", "x"],
    ["avg-rates", "--var", "A", "--values", "1", "--fix", "B"],
    ["simulate", "--t-end", "1", "--grid", "0.5,a"],
    ["verify", "--N", "10,x"],
])
def test_malformed_list_argument_exit_1(model_file, args, capsys):
    assert cli([args[0], model_file] + args[1:]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("N", ["nan", "inf"])
def test_simulate_non_finite_N_exit_2(model_file, N, capsys):
    assert cli(["simulate", model_file, "--t-end", "0.1", "--N", N]) == 2
    err = capsys.readouterr().err
    assert err.startswith("model error") and "N must be finite" in err


@pytest.mark.parametrize("text, args, message", [
    (fx.AB_TEXT, ["--observables", "Z"], "unknown species 'Z'"),
    (fx.AB_TEXT, ["--observables", "A,A@d9"], "'A@d9': the model has no compartments"),
    (fx.SPATIAL_AB_TEXT, ["--observables", "A@d9"], "unknown compartment 'd9'"),
    (fx.SPATIAL_AB_TEXT, ["--observables", "Q@d1"], "unknown species 'Q'"),
    (fx.AB_TEXT, ["--engine", "pdmp", "--observables", "A"], "applies to the ssa engine"),
], ids=["unknown-species", "at-without-compartments", "unknown-compartment",
        "unknown-spatial-species", "pdmp-engine"])
def test_bad_observables_exit_2(tmp_path, text, args, message, capsys):
    path = tmp_path / "model.mscrn"
    path.write_text(text)
    assert cli(["simulate", str(path), "--t-end", "0.1"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("model error") and message in err


@pytest.mark.parametrize("engine, grid", [("ssa", "nan"), ("pdmp", "0.5,nan")])
def test_non_finite_grid_exit_2(model_file, engine, grid, capsys):
    assert cli(["simulate", model_file, "--engine", engine, "--t-end", "1",
                "--grid", grid]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["simulate", "--N", "10", "--seed", "-1", "--t-end", "0.1"],
    ["simulate", "--engine", "pdmp", "--seed", "-1", "--t-end", "0.1"],
    ["verify", "--N", "10,20", "--replicas", "3", "--t-end", "0.1", "--grid", "0.1",
     "--seed", "-1"],
], ids=["simulate-ssa", "simulate-pdmp", "verify"])
def test_negative_seed_exit_2(model_file, args, capsys):
    assert cli([args[0], model_file] + args[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("model error") and "seed must be a nonnegative integer" in err
