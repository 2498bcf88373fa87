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


def test_verify_small(model_file, tmp_path):
    out = tmp_path / "report.json"
    code = cli(["verify", model_file, "--N", "10,50", "--replicas", "60",
                "--t-end", "0.5", "--grid", "0.5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert [entry["N"] for entry in payload["per_N"]] == [10, 50]


def test_unknown_subcommand_exit_1(capsys):
    assert cli(["frobnicate"]) == 1


def test_missing_argument_exit_1(capsys):
    assert cli(["simulate"]) == 1


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
