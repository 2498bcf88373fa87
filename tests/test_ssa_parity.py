"""Stochastic-engine output pinned to digests recorded before the event
loop kept a dependency graph, the blocked pass of the direct method
against the flat pass, and an event-by-event comparison with a
full-recompute reference on random spatial networks.

Every fixture with an initial state, a generated ring of eight
compartments, a spatial model with expression laws and one whose
expression law consumes a discrete species run at N = 10 and
100 and seeds 0-2 with ``record="events"``; the SHA-256 digests of
``times``, ``states``, ``event_counts`` and ``event_log`` must match
bit for bit (a run that hits the event cap records its exception). The
``run_ensemble`` means and variances on AB and on the ring, and the
pure-jump hybrid engine on the fast subsystems of AB and CONSERVED, are
pinned the same way; the AB ensemble (40 replicas) runs in lockstep.
The record ``ssa_parity.json`` was produced at commit 12bd14d by

    PYTHONPATH=src python tests/test_ssa_parity.py > tests/ssa_parity.json

and ``python tests/test_ssa_parity.py KEY ...`` rewrites only the named
keys of the record, leaving every other key as it is, byte for byte.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mscrn import expressions, ssa
from mscrn import rng as rng_mod
from mscrn.averaging import fast_subsystem
from mscrn.classify import classify
from mscrn.errors import EventCapExceeded, MscrnError, RateEvaluationError
from mscrn.model import MassAction, State
from mscrn.parser import parse_document
from mscrn.pdmp import simulate_pdmp
from mscrn.ssa import SimulationConfig, _simulate, run_ensemble

sys.path.insert(0, str(Path(__file__).parent))
import conftest as fx  # noqa: E402

RECORD = Path(__file__).with_name("ssa_parity.json")
N_VALUES = (10, 100)
SEEDS = (0, 1, 2)
T_END = 1.0
MAX_EVENTS = 20_000

# Expression laws over three compartments: a Hill-type birth of B read
# from C (a species the reaction neither consumes nor produces), a
# conversion on a continuous and a discrete species, and mass-action
# decay with compartment-dependent constants.
SPATIAL_EXPR_TEXT = """\
species A alpha=1 eta=1/2
species B alpha=0 eta=1/2
species C alpha=0 eta=1/2
compartments d1 d2 d3
reaction 0 -> B @ expr 2*C^2/(1+C^2) - -0.5 beta=1/2
reaction A + B -> C @ expr 0.5*A*B + (A - A) beta=1
reaction C -> 0 @ mass-action kappa=1,0.5,2 beta=0
reaction B -> 0 @ mass-action kappa=1 beta=1/2
move A from d1 to d2 rate 1
move A from d2 to d3 rate 1
move A from d3 to d1 rate 1
move B from d1 to d2 rate 2
move B from d2 to d1 rate 1
move C from d2 to d3 rate 1
move C from d3 to d2 rate 3
init A @ d1 1
init C @ d2 2
"""

# An expression law consuming a discrete species: its channel closes
# when A runs out in its compartment, so A is never drawn below zero.
OVERDRAW_TEXT = """\
species A alpha=0 eta=1/2
species B alpha=0 eta=1/2
compartments d1 d2
reaction A -> 0 @ expr 1 beta=1/2
reaction A -> A + B @ mass-action kappa=1 beta=0
move A from d1 to d2 rate 1
move A from d2 to d1 rate 2
move B from d1 to d2 rate 1
init A @ d1 2
"""


FIXTURES = {
    "gene": fx.GENE_TEXT, "ab": fx.AB_TEXT, "spatial_ab": fx.SPATIAL_AB_TEXT,
    "spatial_ab_homog": fx.SPATIAL_AB_HOMOGENEOUS_TEXT,
    "conserved": fx.CONSERVED_TEXT, "three_scale": fx.THREE_SCALE_TEXT,
    "spatial_gene": fx.SPATIAL_GENE_TEXT, "ring8": fx.ring_text(),
    "spatial_expr": SPATIAL_EXPR_TEXT, "overdraw": OVERDRAW_TEXT,
}


def _digest(array) -> str:
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def _trajectory_digests(traj) -> dict:
    log = traj.event_log
    return {"times": _digest(traj.times), "states": _digest(traj.states),
            "event_counts": _digest(traj.event_counts),
            "event_log": _digest(np.array([t for t, _ in log], dtype=float))
            + _digest(np.array([c for _, c in log], dtype=np.int64)),
            "events": int(traj.event_counts.sum())}


def _run(fn):
    try:
        return _trajectory_digests(fn())
    except MscrnError as exc:
        return f"error {type(exc).__name__}: {exc}"


def compute() -> dict:
    out = {}
    docs = {name: parse_document(text) for name, text in FIXTURES.items()}
    for name, doc in docs.items():
        x0 = State(doc.initial_scaled(), scaled=True)
        for N in N_VALUES:
            for seed in SEEDS:
                cfg = SimulationConfig(N=N, t_end=T_END, seed=seed, record="events",
                                       max_events=MAX_EVENTS)
                out[f"ssa.{name}.N{N}.seed{seed}"] = _run(
                    lambda: _simulate(doc.model, doc.scaling, cfg, x0))

    for name, replicas in (("ab", 40), ("ring8", 4)):
        doc = docs[name]
        cfg = SimulationConfig(N=50, t_end=T_END, seed=5, record=[0.25, 0.5, 1.0])
        stats = run_ensemble(doc.model, doc.scaling, cfg, replicas, ["A", "B"],
                             x0=State(doc.initial_scaled(), scaled=True))
        out[f"ensemble.{name}"] = {"mean": stats.mean.tolist(),
                                   "variance": _digest(stats.variance)}

    for name, frozen, v0 in (("ab", [0.7, 0.0], [0.0]),
                             ("conserved", [0.0, 0.0, 2.0], [5.0, 1.0])):
        doc = docs[name]
        system = fast_subsystem(classify(doc.model, doc.scaling), np.array(frozen))
        for seed in SEEDS:
            out[f"pure_jump.{name}.seed{seed}"] = _run(
                lambda: simulate_pdmp(system, v0, 20.0, record="events",
                                      rng=rng_mod.stream(seed), max_events=MAX_EVENTS))
    return out


def test_every_run_matches_record(monkeypatch):
    with open(RECORD) as fh:
        recorded = json.load(fh)
    lockstep, replicas = ssa._lockstep, []
    monkeypatch.setattr(ssa, "_lockstep",
                        lambda *args: replicas.append(args[4]) or lockstep(*args))
    computed = json.loads(json.dumps(compute()))
    # the 40-replica AB ensemble ran in lockstep
    assert 40 in replicas
    assert sorted(computed) == sorted(recorded)
    bad = {key: (computed[key], want) for key, want in recorded.items()
           if computed[key] != want}
    assert not bad


def test_blocked_pass_keeps_the_flat_channel_sequence(monkeypatch):
    # forced on every spatial fixture and on the 32-compartment ring, the
    # blocked pass chooses the channels the flat pass chooses on the same
    # stream; the totals add in another order, so the times agree to
    # rounding. A run that reaches the event cap is compared on a
    # twentieth of the horizon.
    texts = dict(FIXTURES, ring32=fx.ring_text(32))
    for name, text in texts.items():
        doc = parse_document(text)
        if not doc.model.is_spatial:
            continue
        x0 = State(doc.initial_scaled(), scaled=True)
        for N in N_VALUES:
            for seed in SEEDS:
                for t_end in (T_END, T_END / 20):
                    logs = []
                    for threshold in (1, math.inf):
                        monkeypatch.setattr(ssa, "BLOCKED_CHANNELS", threshold)
                        cfg = SimulationConfig(N=N, t_end=t_end, seed=seed, record="events",
                                               max_events=MAX_EVENTS)
                        try:
                            logs.append(_simulate(doc.model, doc.scaling, cfg, x0).event_log)
                        except MscrnError as exc:
                            logs.append(type(exc).__name__)
                    if logs[1] != "EventCapExceeded":
                        break
                got, want = logs
                if isinstance(want, str):
                    assert got == want, (name, N, seed)
                    continue
                assert [c for _, c in got] == [c for _, c in want], (name, N, seed)
                assert np.allclose([t for t, _ in got], [t for t, _ in want],
                                   rtol=1e-12, atol=0), (name, N, seed)


# -- event-by-event comparison with a full-recompute reference -------------


def _reference(model, scaling, config, x0, rng, log):
    """The direct method recomputing every propensity at every event,
    written from the model independently of the engine's channels; each
    (time, channel) pair is appended to ``log``. A discrete count below
    a term's order gives zero (movement included), an expression law
    whose discrete reactant has fewer molecules than its order gives
    zero, and a negative propensity raises."""
    network, nd, N = model.network, model.n_compartments, config.N
    scale = N ** np.array([float(a) for a in network.alphas])
    x = np.rint(x0.counts * scale[:, None])
    chans = []   # (rate function of the raw state, delta matrix), engine order
    for k, reaction in enumerate(network.reactions):
        for d in range(nd):
            delta = np.zeros_like(x)
            delta[:, d] = network.stoichiometric_matrix()[:, k]
            time, law = N ** float(reaction.beta + scaling.gamma), model.rate_law(k, d)
            if isinstance(law, MassAction):
                def rate(x, d=d, time=time, law=law, reactants=reaction.reactants):
                    out = law.kappa * time
                    for i, n in reactants:
                        out *= (x[i, d] / scale[i]) ** n if network.alphas[i] \
                            else math.prod(max(x[i, d] - j, 0.0) for j in range(n))
                    return out
            else:
                def rate(x, d=d, time=time, ast=law.ast, reactants=reaction.reactants):
                    if any(network.alphas[i] == 0 and x[i, d] < n for i, n in reactants):
                        return 0.0
                    env = {s.name: float(x[i, d] / scale[i])
                           for i, s in enumerate(network.species)}
                    return time * expressions.evaluate(ast, env)
            chans.append((rate, delta))
    for i, s in enumerate(network.species):
        for d1, d2 in zip(*np.nonzero(model.movement[i])):
            delta = np.zeros_like(x)
            delta[i, d1], delta[i, d2] = -1, 1
            m = N ** float(s.eta + scaling.gamma) * model.movement[i, d1, d2]
            chans.append((lambda x, i=i, d1=d1, m=m: m * max(x[i, d1], 0.0), delta))
    rand, t = rng_mod.Buffered(rng), 0.0
    while len(log) < config.max_events:
        prop = [rate(x) for rate, _ in chans]
        if min(prop) < 0:
            raise RateEvaluationError(f"negative propensity in {prop}")
        total = sum(prop)
        dt = rand.exponential() / total if total > 0 else math.inf
        if t + dt > config.t_end:
            return
        t += dt
        u, acc, chosen = rand.uniform() * total, 0.0, len(chans) - 1
        for c, p in enumerate(prop):
            acc += p
            if u < acc:
                chosen = c
                break
        x += chans[chosen][1]
        log.append((t, chosen))
    raise EventCapExceeded("reference cap")


def _random_spatial_model(data):
    """A random spatial network of up to 10 compartments: from a few
    channels to more than ``ssa.BLOCKED_CHANNELS``."""
    from hypothesis import strategies as st

    nd = data.draw(st.integers(1, 10))
    ns = data.draw(st.integers(1, 3))
    names = [f"S{i}" for i in range(ns)]
    lines = [f"species {n} alpha={data.draw(st.sampled_from(['0', '1']))} eta=1"
             for n in names]
    lines.append("compartments " + " ".join(f"d{d}" for d in range(nd)))
    for _ in range(data.draw(st.integers(1, 4))):
        left = [n for n in names if data.draw(st.booleans())]
        right = [n for n in names if data.draw(st.booleans())] or [names[0]]
        if sorted(left) == sorted(right):
            right = right + [names[-1]]
        lhs = " + ".join(left) or "0"
        if data.draw(st.booleans()):
            kappas = ",".join(repr(data.draw(st.floats(0.1, 3.0))) for _ in range(nd))
            law = f"mass-action kappa={kappas}"
        else:
            reader = data.draw(st.sampled_from(names))
            law = f"expr 0.5 + {reader}^2/(1+{reader}) + 0.25*{' * '.join(left) or '1'}"
        lines.append(f"reaction {lhs} -> {' + '.join(right)} @ {law} "
                     f"beta={data.draw(st.sampled_from(['0', '1/2']))}")
    for n in names:
        for d1 in range(nd):
            for d2 in range(nd):
                if d1 != d2 and data.draw(st.booleans()):
                    lines.append(f"move {n} from d{d1} to d{d2} "
                                 f"rate {data.draw(st.floats(0.1, 3.0))!r}")
    return parse_document("\n".join(lines) + "\n"), ns, nd


def test_matches_full_recompute_on_random_spatial_networks():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    blocked = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def run(data):
        doc, ns, nd = _random_spatial_model(data)
        blocked.append(ssa._Compiled(doc.model, doc.scaling, 1.0).blocks is not None)
        N = data.draw(st.sampled_from([1.0, 4.0]))
        alphas = np.array([float(a) for a in doc.model.network.alphas])
        raw = np.array([[data.draw(st.integers(0, 5)) for _ in range(nd)]
                        for _ in range(ns)], dtype=float)
        x0 = State(raw / (N ** alphas)[:, None], scaled=True)
        seed = data.draw(st.integers(0, 999))

        def config(t_end):
            return SimulationConfig(N=N, t_end=t_end, seed=seed, record="events",
                                    max_events=3000)

        # expression laws can draw a continuous count below zero, and a
        # later rate can then raise: both raise the same error,
        # and the engine run to just before the reference's last event
        # reproduces the reference's log up to there
        want = []
        try:
            _reference(doc.model, doc.scaling, config(1.0), x0, rng_mod.stream(seed), want)
            want_error, t_end = None, 1.0
        except MscrnError as exc:
            want_error = type(exc).__name__
            if not want:
                with pytest.raises(MscrnError):
                    _simulate(doc.model, doc.scaling, config(1.0), x0)
                return
            t_end = (want[-1][0] + (want[-2][0] if len(want) > 1 else 0.0)) / 2
            want.pop()
            with pytest.raises(MscrnError) as raised:
                _simulate(doc.model, doc.scaling, config(1.0), x0)
            assert type(raised.value).__name__ == want_error
        got = _simulate(doc.model, doc.scaling, config(t_end), x0).event_log
        # the reference multiplies in another order, so times agree to
        # rounding and the channel sequence exactly
        assert [c for _, c in got] == [c for _, c in want]
        assert np.allclose([t for t, _ in got], [t for t, _ in want], rtol=1e-12, atol=0)

    run()
    # the drawn models fall on both sides of the flat/blocked choice
    assert set(blocked) == {False, True}


if __name__ == "__main__":
    fx.rewrite_record(RECORD, compute, sys.argv[1:])
