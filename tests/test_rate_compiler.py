"""One rate-law compiler, ``model.scaled_rate_function``, for the
finite-N chain and for its limits.

The SSA's propensity of reaction k in compartment d is the compiler at N
over the flat raw counts; the limit, averaged and spatial rates are the
compiler at N = 1. So at N = 1 every SSA channel equals the scaled rate
on its compartment's counts bit for bit, and an expression law is closed
in the limit wherever the chain closes it: while a discrete reactant has
fewer molecules than its order.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mscrn.averaging import McConfig, _fast_polynomial, averaged_rate_two_scale
from mscrn.classify import classify
from mscrn.cli import cli
from mscrn.errors import AnalyticUnavailable, MscrnError, RateEvaluationError
from mscrn.model import scaled_rate_function
from mscrn.parser import parse_document
from mscrn.pdmp import simulate_pdmp
from mscrn.reduce import build_reduced_model
from mscrn.ssa import _Compiled

sys.path.insert(0, str(Path(__file__).parent))
import conftest as fx  # noqa: E402
from test_averaging_parity import SPATIAL_EXPR_TEXT  # noqa: E402

# a discrete A dies at the constant expression rate 1
EXPR_DEATH_TEXT = "species A alpha=0\nreaction A -> 0 @ expr 1 beta=0\ninit A 2\n"

# AB with its fast titration written as an expression law
EXPR_AB_TEXT = """\
species A alpha=1
species B alpha=0
reaction A + B -> 0 @ expr 0.3*A*B + A^2 beta=1
reaction 0 -> B @ mass-action kappa=1 beta=1
reaction B -> 0 @ mass-action kappa=1 beta=1
"""

# a slow expression law over the fast Poisson(1) species B
SLOW_LAW_TEXT = """\
species S alpha=0
species B alpha=0
reaction S + B -> 0 @ expr {law} beta=0
reaction 0 -> B @ mass-action kappa=1 beta=1
reaction B -> 0 @ mass-action kappa=1 beta=1
reaction 0 -> S @ mass-action kappa=1 beta=0
"""

MODELS = {name: text for name, text in vars(fx).items() if name.endswith("_TEXT")}
MODELS.update(expr_death=EXPR_DEATH_TEXT, expr_ab=EXPR_AB_TEXT, spatial_expr=SPATIAL_EXPR_TEXT,
              slow_law=SLOW_LAW_TEXT.format(law="0.3*S*B + S^2"))


def _outcome(rate, values):
    try:
        return np.float64(rate(values)).tobytes()
    except MscrnError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_ssa_channel_at_unit_N_is_the_scaled_rate(name):
    doc = parse_document(MODELS[name])
    model = doc.model
    n, nd = model.network.n_species, model.n_compartments
    compiled = _Compiled(model, doc.scaling, 1.0)
    rng = np.random.default_rng(11)
    # counts 0-3 fall below every reactant order at some draws
    for x in rng.integers(0, 4, size=(40, n * nd)).astype(float):
        columns = x.reshape(n, nd)
        for (kind, ident), propensity in zip(compiled.ids, compiled.propensities):
            if kind != "reaction":
                continue
            k, d = ident[0], ident[1] or 0
            scaled = scaled_rate_function(model, k, d)
            assert _outcome(propensity, x.tolist()) == _outcome(scaled, columns[:, d])


def test_overflowing_power_of_N_raises_rate_evaluation_error():
    model = parse_document("species A alpha=0\n"
                           "reaction A -> 0 @ mass-action kappa=1 beta=31\n").model
    assert scaled_rate_function(model, 0, N=1e9)([5.0]) == pytest.approx(5e279)
    with pytest.raises(RateEvaluationError, match="N\\^31 overflows a float at N = 1e\\+10"):
        scaled_rate_function(model, 0, N=1e10)


def test_expression_death_limit_stops_at_zero(tmp_path):
    # the chain closes A -> 0 at A = 0, and now so does its limit
    doc = parse_document(EXPR_DEATH_TEXT)
    reduced = build_reduced_model(doc.model, doc.scaling)
    traj = simulate_pdmp(reduced.to_hybrid(), reduced.initial_state(doc.initial_scaled()),
                         5.0, seed=0, record=[1.0, 3.0, 5.0])
    assert traj.states[:, 0].tolist() == [2.0, 0.0, 0.0]
    path = tmp_path / "death.mscrn"
    path.write_text(EXPR_DEATH_TEXT)
    assert cli(["simulate", str(path), "--engine", "pdmp", "--t-end", "5",
                "--grid", "1,3,5"]) == 0


@pytest.mark.parametrize("mode", ["auto", "montecarlo"])
def test_expression_titration_reduces(mode):
    # the fast chain of B: births at 1, and from b >= 1 deaths at b plus
    # the titration at 0.3 vA b + vA^2, closed at b = 0
    doc = parse_document(EXPR_AB_TEXT)
    rate = averaged_rate_two_scale(classify(doc.model, doc.scaling), 0, mode=mode,
                                   mc=McConfig(budget=100_000, seed=1))
    v_a = 0.5
    weights = [1.0]
    for b in range(1, 60):
        weights.append(weights[-1] / (b + 0.3 * v_a * b + v_a ** 2))
    b = np.arange(60)
    law = np.where(b >= 1, 0.3 * v_a * b + v_a ** 2, 0.0)
    exact = float(np.dot(weights, law) / sum(weights))
    assert rate.kind == "montecarlo"
    value, se = rate([v_a]), rate.standard_error([v_a])
    assert 0 < se < 0.01 and abs(value - exact) <= 3 * se


def test_slow_law_over_a_fast_reactant_averages_its_gate():
    # at S = 2 the law is 0.6 B + 4 while B >= 1, and B is Poisson(1):
    # 0.6 + 4 (1 - e^-1); the ungated polynomial would give 4.6
    doc = parse_document(SLOW_LAW_TEXT.format(law="0.3*S*B + S^2"))
    cl = classify(doc.model, doc.scaling)
    assert _fast_polynomial(doc.model, 0, [1]) is None
    rate = averaged_rate_two_scale(cl, 0, mode="auto", mc=McConfig(budget=200_000, seed=1))
    assert rate.kind == "montecarlo"
    exact = 0.6 + 4 * (1 - math.exp(-1))
    assert abs(rate([2.0]) - exact) <= 3 * rate.standard_error([2.0])
    with pytest.raises(AnalyticUnavailable):
        averaged_rate_two_scale(cl, 0, mode="analytic")


def test_law_that_vanishes_below_its_orders_keeps_its_closed_form():
    # S*B is 0 at B = 0, so the gate changes nothing over the fast B;
    # the frozen S closes it at S = 0
    doc = parse_document(SLOW_LAW_TEXT.format(law="0.3*S*B"))
    rate = averaged_rate_two_scale(classify(doc.model, doc.scaling), 0, mode="analytic")
    assert rate.kind == "analytic"
    assert [rate([s]) for s in (0.0, 2.0)] == [0.0, 0.3 * 2.0]
    doc = parse_document(SLOW_LAW_TEXT.format(law="B"))
    rate = averaged_rate_two_scale(classify(doc.model, doc.scaling), 0, mode="analytic")
    assert [rate([s]) for s in (0.0, 1.0)] == [0.0, 1.0]
