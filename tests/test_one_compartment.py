"""A network is the one-compartment spatial model without movement.

The engines read both model kinds through one interface (``network``,
``n_compartments``, ``rate_law(k, d)``, ``movement``), so a network and
``SpatialModel(network, ["c"])`` must give the same numbers bit for bit:
the same trajectories, the same ensemble statistics on the lockstep and
the per-replica path, and the same rates, on the flat SSA pass and on
the blocked one.
"""

import numpy as np
import pytest

from mscrn.model import SpatialModel, State, evaluate_rate, scaled_rate_function
from mscrn.parser import parse_document
from mscrn.ssa import LOCKSTEP_REPLICAS, SimulationConfig, _Compiled, run_ensemble, simulate

import conftest as fx

# 41 birth-death pairs: 82 channels, enough for the blocked pass
WIDE_TEXT = "".join(f"species X{i} alpha=0\n"
                    f"reaction 0 -> X{i} @ mass-action kappa={0.1 + 0.37 * i:.2f} beta=0\n"
                    f"reaction X{i} -> 0 @ mass-action kappa=0.7 beta=0\n" for i in range(41))

# fixture text, initial scaled state; the expression fixture has no init line
CASES = {
    "gene": (fx.GENE_TEXT, None),
    "ab": (fx.AB_TEXT, None),
    "expr": (fx.EXPR_TIER_TEXT, [1.0, 2.0]),
    "wide": (WIDE_TEXT, [0.0] * 41),
}


def _pair(case):
    text, init = CASES[case]
    doc = parse_document(text)
    x0 = np.asarray(doc.initial_scaled() if init is None else init, dtype=float)
    return doc.model, SpatialModel(doc.model, ["c"]), doc.scaling, x0


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("record", [np.linspace(0.1, 1.0, 10), "events"])
def test_simulate_equal(case, record):
    network, spatial, scaling, x0 = _pair(case)
    cfg = SimulationConfig(N=30, t_end=1.0, seed=4, record=record)
    a = simulate(network, scaling, cfg, State(x0, scaled=True))
    b = simulate(spatial, scaling, cfg, State(x0[:, None], scaled=True))
    assert a.event_counts.sum() > 0
    for field in ("times", "event_counts"):
        assert _same(getattr(a, field), getattr(b, field)), field
    # the spatial run keeps its compartment axis
    assert _same(a.states, b.states[..., 0]) and _same(a.final_state, b.final_state[:, 0])
    assert a.event_log == b.event_log
    # only the channel ids tell the kinds apart
    assert [ident for _, ident in a.channels] == [(k, None) for k in range(network.n_reactions)]
    assert [ident for _, ident in b.channels] == [(k, 0) for k in range(network.n_reactions)]


def test_one_compartment_run_keeps_the_spatial_state_shape(ab_doc):
    # a one-compartment spatial state is (species, 1), in and out
    spatial = SpatialModel(ab_doc.model, ["c"])
    cfg = SimulationConfig(N=30, t_end=1.0, seed=4, record=np.linspace(0.1, 1.0, 10))
    traj = simulate(spatial, ab_doc.scaling, cfg, State([[1.0], [0.0]], scaled=True))
    assert traj.states.shape == (10, 2, 1) and traj.final_state.shape == (2, 1)
    assert traj.sums().shape == (10, 2)
    again = simulate(spatial, ab_doc.scaling, cfg, State(traj.final_state, scaled=True))
    assert again.states.shape == (10, 2, 1)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("replicas", [3, LOCKSTEP_REPLICAS])
def test_ensemble_equal(case, replicas):
    network, spatial, scaling, x0 = _pair(case)
    cfg = SimulationConfig(N=30, t_end=1.0, seed=7, record=[0.25, 0.5, 1.0])
    names = [s.name for s in network.species]
    a = run_ensemble(network, scaling, cfg, replicas, names, x0=State(x0, scaled=True))
    b = run_ensemble(spatial, scaling, cfg, replicas, names,
                     x0=State(x0[:, None], scaled=True))
    for field in ("mean", "variance"):
        assert _same(getattr(a, field), getattr(b, field)), field
    assert a.quantiles.keys() == b.quantiles.keys()
    assert all(_same(a.quantiles[q], b.quantiles[q]) for q in a.quantiles)
    # mass-action fixtures take the lockstep from LOCKSTEP_REPLICAS on,
    # and a model of BLOCKED_CHANNELS channels or more the blocked pass
    compiled = _Compiled(network, scaling, cfg.N)
    assert (compiled.table is not None) == (case != "expr")
    assert (compiled.blocks is not None) == (case == "wide")


@pytest.mark.parametrize("case", sorted(CASES))
def test_rates_equal(case):
    network, spatial, _, _ = _pair(case)
    rng = np.random.default_rng(0)
    for _ in range(5):
        values = rng.integers(0, 4, network.n_species).astype(float)
        for k in range(network.n_reactions):
            fa, fb = scaled_rate_function(network, k), scaled_rate_function(spatial, k, 0)
            assert fa(values) == fb(values)
            for scaled in (True, False):
                if not scaled and case == "expr" and k == 1:
                    continue   # expression laws evaluate on scaled states only
                a = evaluate_rate(network, k, State(values, scaled=scaled))
                b = evaluate_rate(spatial, k, State(values[:, None], scaled=scaled), 0)
                assert a == b and np.float64(a).tobytes() == np.float64(b).tobytes()


def test_network_reads_as_one_compartment(gene_doc):
    network = gene_doc.model
    assert network.network is network and network.n_compartments == 1
    assert network.rate_laws == tuple((r.rate_law,) for r in network.reactions)
    assert network.rate_law(2, 0) is network.reactions[2].rate_law
    assert network.movement.shape == (network.n_species, 1, 1)
    assert not network.movement.any() and not network.movement.flags.writeable
    # the kind flag stays: a network has no compartment names
    assert not network.is_spatial and not hasattr(network, "compartments")
