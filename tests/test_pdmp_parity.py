"""Hybrid-engine output pinned to digests recorded while every hybrid run
still went through a scalar Cash-Karp loop, one replica after another,
plus a property test that an ensemble equals its replicas run one by one.

Single runs cover the GENE limit (grid and event log), the AB and
spatial AB reduced flows, the spatial GENE limit (averaged rates), the
CONSERVED reduction (pure jump), a stiff flow whose trial stages leave
the orthant, a flow-driven hazard, GENE with a minimum step longer than
the grid spacing, so that grid times fall inside jump intervals, and a
system of nine jump channels, whose total rate numpy sums pairwise (one
run on a made-up stream puts a uniform where only that total picks the
last channel; another, on ten channels with rate 0 at both ends, puts
uniforms past the in-order sums and at 0, where no channel of rate 0
may fire). Two failures are caught only by the orthant check of an
accepted step, in a single run and in an ensemble.
The SHA-256 digests of ``times``, ``states``, ``event_counts``,
``event_log`` and ``final_state`` must match bit for bit. Ensembles of
1, 7 and 40 replicas pin the digests of ``EnsembleStats`` mean, variance
and quantiles; failures pin the exception type and message. The record
``pdmp_parity.json`` was produced at commit 1723df2 (the nine-channel
and accepted-step keys at 33239fd, the zero-end key with the fix of the
jump choice that it pins) by

    PYTHONPATH=src python tests/test_pdmp_parity.py > tests/pdmp_parity.json

and ``python tests/test_pdmp_parity.py KEY ...`` rewrites only the named
keys of the record, leaving every other key as it is, byte for byte.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from mscrn import rng as rng_mod
from mscrn.errors import MscrnError, RateEvaluationError
from mscrn.model import MassAction, Network, Reaction, Species, scaled_rate_function
from mscrn.parser import parse_document
from mscrn.pdmp import HybridSystem, OdeConfig, run_ensemble_pdmp, simulate_pdmp
from mscrn.reduce import build_reduced_model
from mscrn.ssa import EnsembleStats

sys.path.insert(0, str(Path(__file__).parent))
import conftest as fx  # noqa: E402

RECORD = Path(__file__).with_name("pdmp_parity.json")
SEEDS = (0, 1, 2)
QUANTILES = (0.0, 0.1, 0.5, 0.9, 1.0)

# dv/dt = -400 v^2 from v = 3: the first trial step's stages overshoot
# below zero and are rejected
STIFF = HybridSystem(("C",), (), ((lambda v: 200.0 * v[0] ** 2, np.array([-2.0])),))
# dv/dt = 1 with jump rate v: the hazard grows along the flow
RAYLEIGH = HybridSystem(("V",), ((lambda v: v[0], np.array([0], dtype=np.int64)),),
                        ((lambda v: 1.0, np.array([1.0])),))
# a flow that drains C ever faster as X jumps up: runs end at the minimum
# step, by NegativeRate or OdeStepFailure, at a time that depends on the path
STIFFENING = HybridSystem(("X", "C"), ((lambda v: 2.0, np.array([1, 0])),),
                          ((lambda v: 10.0 ** (3 * v[0]) * v[1] ** 2, np.array([0.0, -1.0])),))
# constant drain from 0.05: the state leaves the orthant at t = 0.05
DRAIN = HybridSystem(("X",), (), ((lambda v: 1.0, np.array([-1.0])),))
# a clock X' = 1 and a drain C' = -35 X^4 / (1 + N), braked by jumps of N
# at rate 2: under loose tolerances the one step to t = 0.62 has every
# Cash-Karp stage in the orthant and is accepted, yet ends with C < 0, so
# only the orthant check of the accepted step catches it; a row whose N
# jumps first takes other steps and may end inside the orthant
BRAKED_DRAIN = HybridSystem(("N", "X", "C"), ((lambda v: 2.0, np.array([1, 0, 0])),),
                            ((lambda v: 1.0, np.array([0.0, 1.0, 0.0])),
                             (lambda v: 35.0 * v[1] ** 4 / (1.0 + v[0]),
                              np.array([0.0, 0.0, -1.0]))))
LOOSE = OdeConfig(rel_tol=1.0, abs_tol=1e-4, min_step=0.062)
# nine jump channels of uneven rates on a count N, births growing with a
# flow X that relaxes to N: numpy sums nine rates pairwise, not in order
_BIRTHS, _DEATHS = (0.013, 0.41, 0.0031, 0.77, 0.19), (2.7, 7.9, 1.3, 3.1)
MANY_JUMPS = HybridSystem(
    ("N", "X"),
    tuple((lambda v, c=c: c * (1.0 + 3.0 * v[1]), np.array([1, 0])) for c in _BIRTHS)
    + tuple((lambda v, c=c: c * v[0], np.array([-1, 0])) for c in _DEATHS),
    ((lambda v: v[0] - 0.5 * v[1], np.array([0.0, 1.0])),))
# nine jumps of rate 0.1 and a clock: numpy sums the nine rates pairwise to
# 0.9, in order they sum to 0.8999999999999999, so a uniform just above 8/9
# picks the last channel by numpy's total and the one before by the other
NINE_EQUAL = HybridSystem(("N", "X"), tuple((lambda v: 0.1, np.array([1, 0])) for _ in range(9)),
                          ((lambda v: 1.0, np.array([0.0, 1.0])),))
# ten jumps, the first and last of rate 0 (they raise Z), and a clock:
# numpy sums the rates pairwise to 3.81, in order to 3.809999999999999, so
# the largest uniform below 1 lands past the in-order sums, and a uniform
# of 0 on the first one; neither may fire a channel of rate 0
_ZERO_ENDS = (0.0, 0.7, 1.3, 0.07, 0.03, 1.3, 0.17, 0.17, 0.07, 0.0)
ZERO_ENDS = HybridSystem(
    ("N", "Z", "X"),
    tuple((lambda v, c=c: c, np.array([0, 1, 0] if c == 0 else [1, 0, 0])) for c in _ZERO_ENDS),
    ((lambda v: 1.0, np.array([0.0, 0.0, 1.0])),))


class _Uniforms:
    """Stands in for a numpy Generator whose first uniforms are ``values``
    and every later one 0.5."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size):
        out = np.full(size, 0.5)
        out[:len(self.values)] = self.values
        self.values = []
        return out


def _digest(array) -> str:
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def _trajectory_digests(traj) -> dict:
    log = traj.event_log or []
    return {"times": _digest(traj.times), "states": _digest(traj.states),
            "event_counts": _digest(traj.event_counts),
            "event_log": _digest(np.array([t for t, _ in log], dtype=float))
            + _digest(np.array([c for _, c in log], dtype=np.int64)),
            "final_state": _digest(traj.final_state),
            "events": int(traj.event_counts.sum())}


def _stats_digests(stats) -> dict:
    return {"mean": _digest(stats.mean), "variance": _digest(stats.variance),
            "quantiles": {str(q): _digest(v) for q, v in stats.quantiles.items()}}


def _run(fn, digests=_trajectory_digests):
    try:
        return digests(fn())
    except MscrnError as exc:
        return f"error {type(exc).__name__}: {exc}"


def _limit(text):
    doc = parse_document(text)
    reduced = build_reduced_model(doc.model, doc.scaling)
    return reduced.to_hybrid(), reduced.initial_state(doc.initial_scaled())


def compute() -> dict:
    out = {}
    gene, gene_v0 = _limit(fx.GENE_TEXT)
    grid = np.linspace(0.25, 4.0, 16)
    coarse = OdeConfig(rel_tol=1e-3, min_step=0.05)
    fine = np.linspace(0.01, 2.0, 200)
    singles = {
        "gene.grid": lambda s: simulate_pdmp(gene, gene_v0, 4.0, seed=s, record=grid),
        "gene.events": lambda s: simulate_pdmp(gene, gene_v0, 4.0, seed=s, record="events"),
        "gene.grid_in_jumps": lambda s: simulate_pdmp(gene, gene_v0, 2.0, seed=s,
                                                      ode_config=coarse, record=fine),
        "stiff": lambda s: simulate_pdmp(STIFF, [3.0], 0.5, seed=s,
                                         record=np.linspace(0.1, 0.5, 5)),
        "rayleigh": lambda s: simulate_pdmp(RAYLEIGH, [0.0], 3.0, seed=s, record="events"),
        "many_jumps": lambda s: simulate_pdmp(MANY_JUMPS, [2.0, 1.0], 10.0, seed=s,
                                              record="events"),
    }
    for name, text in (("ab", fx.AB_TEXT), ("spatial_ab", fx.SPATIAL_AB_TEXT),
                       ("spatial_gene", fx.SPATIAL_GENE_TEXT),
                       ("conserved", fx.CONSERVED_TEXT)):
        system, v0 = _limit(text)
        singles[f"{name}.grid"] = (lambda s, system=system, v0=v0:
                                   simulate_pdmp(system, v0, 2.0, seed=s,
                                                 record=np.linspace(0.25, 2.0, 8)))
    for name, run in singles.items():
        for seed in SEEDS:
            out[f"single.{name}.seed{seed}"] = _run(lambda: run(seed))
    # thresholds ln 2 (a jump near t = 0.77, none after), then the choice
    out["single.nine_equal.total"] = _run(
        lambda: simulate_pdmp(NINE_EQUAL, [0.0, 0.0], 1.0, record="events",
                              rng=_Uniforms([0.5, 0.888888888888889, 0.5])))
    # thresholds ln 2, a choice past the in-order sums, then one at 0
    out["single.zero_ends.choice"] = _run(
        lambda: simulate_pdmp(ZERO_ENDS, [0.0, 0.0, 0.0], 1.0, record="events",
                              rng=_Uniforms([0.5, 1.0 - 2.0 ** -53, 0.5, 0.0])))

    errors = {
        "negative_rate": lambda: simulate_pdmp(DRAIN, [0.05], 10.0, seed=0),
        "event_cap": lambda: simulate_pdmp(gene, gene_v0, 4.0, seed=0, max_events=3),
        "ode_step_failure": lambda: simulate_pdmp(STIFFENING, [0.0, 1.0], 3.0, seed=1,
                                                  ode_config=OdeConfig(min_step=1e-4)),
        "ensemble": lambda: run_ensemble_pdmp(STIFFENING, [0.0, 1.0], 3.0, 3, 7, [1.5, 3.0],
                                              np.eye(2), ode_config=OdeConfig(min_step=1e-4)),
        "accepted_step_orthant": lambda: simulate_pdmp(BRAKED_DRAIN, [0.0, 0.0, 0.5], 0.62,
                                                       seed=4, ode_config=LOOSE),
        # rows 3 and 5 fail with different states; row 3's error is raised
        "accepted_step_orthant.ensemble": lambda: run_ensemble_pdmp(
            BRAKED_DRAIN, [0.0, 0.0, 0.5], 0.62, 8, 6, [0.62], np.eye(3), ode_config=LOOSE),
    }
    for name, run in errors.items():
        out[f"error.{name}"] = _run(run)

    times = np.array([1.0, 2.0, 3.0, 4.0])
    for replicas in (1, 7, 40):
        out[f"ensemble.gene.r{replicas}"] = _run(
            lambda: run_ensemble_pdmp(gene, gene_v0, 4.0, 11, replicas, times, np.eye(3),
                                      quantiles=QUANTILES), _stats_digests)
    out["ensemble.gene.grid_in_jumps.r7"] = _run(
        lambda: run_ensemble_pdmp(gene, gene_v0, 2.0, 5, 7, fine, np.eye(3),
                                  ode_config=coarse, quantiles=QUANTILES), _stats_digests)
    out["ensemble.rayleigh.r40"] = _run(
        lambda: run_ensemble_pdmp(RAYLEIGH, [0.0], 3.0, 2, 40, [1.0, 2.0, 3.0], [[1.0]],
                                  quantiles=QUANTILES), _stats_digests)
    out["ensemble.many_jumps.r40"] = _run(
        lambda: run_ensemble_pdmp(MANY_JUMPS, [2.0, 1.0], 10.0, 6, 40, [2.5, 5.0, 10.0],
                                  np.eye(2), quantiles=QUANTILES), _stats_digests)
    out["ensemble.conserved.r7"] = _run(
        lambda: run_ensemble_pdmp(*_limit(fx.CONSERVED_TEXT), 2.0, 4, 7, [1.0, 2.0],
                                  np.eye(2), quantiles=QUANTILES), _stats_digests)
    return out


def test_every_run_matches_record():
    with open(RECORD) as fh:
        recorded = json.load(fh)
    computed = json.loads(json.dumps(compute()))
    assert sorted(computed) == sorted(recorded)
    bad = {key: (computed[key], want) for key, want in recorded.items()
           if computed[key] != want}
    assert not bad


# -- ensembles against their replicas run one by one -----------------------

def _draw_system(data, failing):
    """A hybrid system on up to six discrete and six continuous
    coordinates with mass-action rates compiled from a network (discrete
    orders up to 3, continuous orders up to 2), some of them wrapped so
    that they are opaque. A reaction lowers a coordinate only by what its
    reactants hold there; a reaction that raises a coordinate has total
    order at most one, so no path explodes. With ``failing`` one rate
    fails once coordinate 0 reaches a drawn level: a jump rate turns
    negative, or a flow rate raises, with the continuous state in the
    message, so replicas fail with different messages."""
    from hypothesis import strategies as st

    n_disc = data.draw(st.integers(1, 6))
    n_cont = data.draw(st.integers(1, 6))
    dim = n_disc + n_cont
    species = [Species(f"x{i}", 0 if i < n_disc else 1) for i in range(dim)]

    def reaction(first, last):
        reactants = {}
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, dim - 1))
            reactants[i] = data.draw(st.integers(1, 3 if i < n_disc else 2))
        order = sum(reactants.values())
        column = np.zeros(dim)
        for i in range(first, last):
            if data.draw(st.integers(0, 2)) == 0:
                column[i] = data.draw(st.integers(-reactants.get(i, 0), 2 if order <= 1 else 0))
        if not column.any():
            own = [i for i in sorted(reactants) if first <= i < last]
            if own:
                column[own[0]] = -1
            else:
                if order > 1:
                    reactants = {}
                column[first] = 1
        law = Reaction(tuple(sorted(reactants.items())), ((0, 1),),
                       rate_law=MassAction(data.draw(st.floats(0.1, 2.0))))
        rate = scaled_rate_function(Network(species, [law]), 0)
        if data.draw(st.booleans()):
            rate = (lambda v, rate=rate: rate(v))
        return rate, column

    jumps = [reaction(0, n_disc) for _ in range(data.draw(st.integers(1, 3)))]
    jumps = [(rate, column.astype(np.int64)) for rate, column in jumps]
    flows = [reaction(n_disc, dim) for _ in range(data.draw(st.integers(1, 3)))]
    if failing:
        level = data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            rate, column = jumps[0]

            def bad(v, rate=rate):
                return rate(v) if v[0] < level else -1.0 - float(v[n_disc:].sum())
            jumps[0] = (bad, column)
            jumps.append((lambda v: 1.0, np.eye(dim, dtype=np.int64)[0]))
        else:
            rate, column = flows[0]

            def bad(v, rate=rate):
                if v[0] >= level:
                    raise RateEvaluationError(f"flow stopped at {v[n_disc:].tolist()}")
                return rate(v)
            flows[0] = (bad, column)
            jumps.append((lambda v: 2.0, np.eye(dim, dtype=np.int64)[0]))
    v0 = [float(data.draw(st.integers(0, 4))) for _ in range(n_disc)] \
        + [data.draw(st.floats(0.0, 3.0)) for _ in range(n_cont)]
    labels = tuple(f"x{i}" for i in range(dim))
    return HybridSystem(labels, tuple(jumps), tuple(flows)), v0


def test_ensemble_equals_replicas_run_one_by_one():
    # an R-replica ensemble gives the statistics of R single runs on the
    # streams (seed, r) bit for bit; when replicas fail, the ensemble
    # raises the error of the lowest-numbered failing one
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        system, v0 = _draw_system(data, failing=data.draw(st.booleans()))
        replicas = data.draw(st.integers(1, 6))
        seed = data.draw(st.integers(0, 999))
        grid = np.array([0.1, 0.25, 0.5])
        samples = np.empty((replicas, system.dim, len(grid)))
        want = None
        for r in range(replicas):
            try:
                traj = simulate_pdmp(system, v0, 0.5, rng=rng_mod.stream(seed, r), record=grid)
            except MscrnError as exc:
                want = exc
                break
            samples[r] = traj.states.T
        try:
            got = run_ensemble_pdmp(system, v0, 0.5, seed, replicas, grid, np.eye(system.dim),
                                    quantiles=QUANTILES)
        except MscrnError as exc:
            assert want is not None, f"ensemble raised {exc!r}"
            assert (type(exc), str(exc)) == (type(want), str(want))
            return
        assert want is None, f"ensemble did not raise {want!r}"
        expected = EnsembleStats.from_samples(grid, system.labels, samples, QUANTILES)
        assert _stats_digests(got) == _stats_digests(expected)

    check()


if __name__ == "__main__":
    fx.rewrite_record(RECORD, compute, sys.argv[1:])
