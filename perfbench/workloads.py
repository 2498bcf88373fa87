"""The four benchmark workloads: model texts, set-up, main call, gates.

Each workload is run in-process through the library calls the CLI
subcommands make. ``setup`` builds everything the main call needs from
the model text (this is ``setup_s``); ``run`` is the timed main call
(``run_s``); ``checks`` grades its output and returns one
``(label, passed)`` pair per correctness check. Every check a workload
can make is counted in ``n_checks`` so that a run that raises before
grading still counts its checks as failed.

The model texts are generated here; the seed given on the command line
drives the simulation streams only, so the models (and the reference
values the gates compare against) are the same for every seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from mscrn import parser, pdmp, reduce, ssa, verify
from mscrn.averaging import McConfig
from mscrn.model import State

# Titration of abundant A by a fast-turnover intermediate B. With all
# kappas 1 the reduced model is the pure flow dv/dt = -v/(1+v), v(0)=1,
# whose solution satisfies ln v + v = 1 - t.
AB_TEXT = """\
species A alpha=1
species B alpha=0
reaction A + B -> 0 @ mass-action kappa=1 beta=1
reaction 0 -> B @ mass-action kappa=1 beta=1
reaction B -> 0 @ mass-action kappa=1 beta=1
init A 1
"""

# Self-regulating gene: G/Ga switching is a pair of jumps, protein P a
# flow. Single-scale, so the reduced rates are the identity rates.
GENE_TEXT = """\
species G alpha=0
species Ga alpha=0
species P alpha=1
reaction G + P -> Ga + P @ mass-action kappa=1 beta=0
reaction Ga -> G @ mass-action kappa=1 beta=0
reaction Ga -> Ga + P @ mass-action kappa=2 beta=1
reaction P -> 0 @ mass-action kappa=1 beta=1
init Ga 1
"""

RING_COMPARTMENTS = 32
RING_MOVE_RATE = 4

# Number of standard errors a sampled mean may sit from its reference.
K_SE = 5.0
# Absolute tolerance on the Monte Carlo-averaged AB flow against its
# closed form. At budget 1000 the largest grid-time error over 45
# iteration seeds had mean 0.0057 and maximum 0.014 (v is about 0.8), so
# 0.04 sits about five spreads out.
MC_FLOW_TOL = 0.04
# Tolerance on the closed-form limit side of verify_ab.
LIMIT_TOL = 1e-5

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def ring_text(n_comp: int = RING_COMPARTMENTS, move_rate: float = RING_MOVE_RATE) -> str:
    """AB titration in every compartment of a ring, kappa_1 varying by
    compartment, nearest-neighbour moves both ways for both species.

    Both species have eta=1/2 (movement-speed case 4), so the model
    also passes ``mscrn analyze``.
    """
    comps = [f"d{d}" for d in range(n_comp)]
    kappa1 = ",".join(repr(1.0 + (d % 4) / 4) for d in range(n_comp))
    ones = ",".join("1" for _ in range(n_comp))
    lines = ["species A alpha=1 eta=1/2",
             "species B alpha=0 eta=1/2",
             "compartments " + " ".join(comps),
             f"reaction A + B -> 0 @ mass-action kappa={kappa1} beta=1",
             f"reaction 0 -> B @ mass-action kappa={ones} beta=1",
             f"reaction B -> 0 @ mass-action kappa={ones} beta=1"]
    for name in ("A", "B"):
        for d in range(n_comp):
            for step in (1, -1):
                lines.append(f"move {name} from d{d} to d{(d + step) % n_comp} "
                             f"rate {move_rate}")
    lines.append("init A @ d0 1")
    return "\n".join(lines) + "\n"


def ab_exact(t) -> np.ndarray:
    """Solution of ln v + v = 1 - t (the AB limit flow from v=1)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    v = np.ones_like(t)
    for _ in range(60):
        v = v - (np.log(v) + v - (1.0 - t)) / (1.0 / v + 1.0)
    return v


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _within_reference(label, mean, ref, replicas):
    """One check per grid time: |mean - ref| <= K_SE combined SEs, the
    run's SE taken from the reference spread (few replicas estimate
    their own spread poorly)."""
    out = []
    for j, t in enumerate(ref["times"]):
        se = math.sqrt(ref[label]["sd"][j] ** 2 / replicas + ref[label]["se"][j] ** 2)
        ok = abs(float(mean[j]) - ref[label]["mean"][j]) <= K_SE * se
        out.append((f"{label}@{t:g}", bool(ok)))
    return out


class _Null:
    """Tracer stand-in for untraced runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def instrument_reduced(self, reduced):
        return None


NULL_TRACER = _Null()


def _reduced_setup(text, tracer, mode="auto", mc=None):
    doc = tracer.call("parser.parse", parser.parse_document, text)
    reduced = tracer.call("reduce.build", reduce.build_reduced_model, doc.model,
                          doc.scaling, mode=mode, mc=mc, base=doc.initial_scaled())
    tracer.instrument_reduced(reduced)
    system = reduced.to_hybrid()
    return doc, reduced, system


class VerifyAB:
    """verify_convergence on AB: the N ladder against the closed-form limit."""

    name = "verify_ab"
    full = {"replicas": 150, "n_grid": (10, 100, 1000)}
    tiny = {"replicas": 60, "n_grid": (10, 100)}
    times = (0.25, 0.5, 0.75, 1.0)
    n_checks = 4

    def setup(self, size, seed, tracer=NULL_TRACER):
        doc, reduced, _ = _reduced_setup(AB_TEXT, tracer)
        return {"doc": doc, "reduced": reduced, "size": size, "seed": seed}

    def run(self, ctx, tracer=NULL_TRACER):
        doc = ctx["doc"]
        return tracer.call("verify", verify.verify_convergence, doc.model, doc.scaling,
                           list(ctx["size"]["n_grid"]), ctx["size"]["replicas"],
                           list(self.times), doc.initial_scaled(), seed=ctx["seed"],
                           reduced=ctx["reduced"])

    def checks(self, ctx, report):
        reduced_mean = np.asarray(report.reduced_mean)
        denom = np.abs(reduced_mean) + 1.0
        final = float(np.max(np.abs(np.asarray(report.per_n_mean[-1]) - reduced_mean)
                             / denom))
        limit_err = float(np.max(np.abs(reduced_mean[0] - ab_exact(report.times))))
        return [("verify.passed", bool(report.passed)),
                ("verify.trend", report.trend == "decreasing"),
                ("verify.final_error", final <= report.threshold),
                ("verify.limit_exact", limit_err <= LIMIT_TOL)]


class SsaRing32:
    """SSA ensemble on the generated 32-compartment ring (224 channels)."""

    name = "ssa_ring32"
    full = {"replicas": 2}
    tiny = {"replicas": 1}
    N = 100.0
    t_end = 1.0
    times = (0.25, 0.5, 0.75, 1.0)
    n_checks = 8

    def setup(self, size, seed, tracer=NULL_TRACER):
        doc = tracer.call("parser.parse", parser.parse_document, ring_text())
        return {"doc": doc, "size": size, "seed": seed}

    def run(self, ctx, tracer=NULL_TRACER):
        doc = ctx["doc"]
        cfg = ssa.SimulationConfig(N=self.N, t_end=self.t_end, seed=ctx["seed"],
                                   record=np.array(self.times))
        return ssa.run_ensemble(doc.model, doc.scaling, cfg, ctx["size"]["replicas"],
                                ["A", "B"], x0=State(doc.initial_scaled(), scaled=True))

    def checks(self, ctx, stats):
        ref = load_reference()[self.name]
        out = []
        for o, label in enumerate(("A", "B")):
            out += _within_reference(label, stats.mean[o], ref, stats.replicas)
        return out


class PdmpMcAB:
    """AB reduced by Monte Carlo averaging, then the limit flow to t=0.25.

    The Monte Carlo rate is a noisy function of the state, so with the
    default tolerances the adaptive step rejects at random and the
    number of averaged-rate evaluations depends on the seed more than on
    the code. The step is therefore capped at t_end/8 with a relative
    tolerance of 1e-2, loose enough that no step is rejected: every run
    makes the same 60 evaluations, and the flow error stays far below
    the Monte Carlo error of the rates.
    """

    name = "pdmp_mc_ab"
    full = {"budget": 1000, "steps": 8}
    tiny = {"budget": 1000, "steps": 2}
    t_end = 0.25
    n_checks = 4

    def setup(self, size, seed, tracer=NULL_TRACER):
        mc = McConfig(budget=size["budget"], seed=seed)
        doc, reduced, system = _reduced_setup(AB_TEXT, tracer, mode="montecarlo", mc=mc)
        return {"doc": doc, "reduced": reduced, "system": system, "size": size,
                "seed": seed}

    def grid(self):
        return np.linspace(self.t_end / 4, self.t_end, 4)

    def run(self, ctx, tracer=NULL_TRACER):
        reduced = ctx["reduced"]
        v0 = reduced.initial_state(ctx["doc"].initial_scaled())
        ode = pdmp.OdeConfig(rel_tol=1e-2, max_step=self.t_end / ctx["size"]["steps"])
        return pdmp.simulate_pdmp(ctx["system"], v0, self.t_end, seed=ctx["seed"],
                                  ode_config=ode, record=self.grid())

    def checks(self, ctx, traj):
        exact = ab_exact(self.grid())
        return [(f"A@{t:g}", bool(abs(float(traj.states[j, 0]) - exact[j]) <= MC_FLOW_TOL))
                for j, t in enumerate(self.grid())]


class PdmpGene:
    """PDMP ensemble on GENE: jumps and flow with cheap identity rates."""

    name = "pdmp_gene"
    full = {"replicas": 250}
    tiny = {"replicas": 40}
    t_end = 4.0
    times = (1.0, 2.0, 3.0, 4.0)
    n_checks = 8

    def setup(self, size, seed, tracer=NULL_TRACER):
        doc, reduced, system = _reduced_setup(GENE_TEXT, tracer)
        return {"doc": doc, "reduced": reduced, "system": system, "size": size,
                "seed": seed}

    def run(self, ctx, tracer=NULL_TRACER):
        reduced = ctx["reduced"]
        v0 = reduced.initial_state(ctx["doc"].initial_scaled())
        return pdmp.run_ensemble_pdmp(ctx["system"], v0, self.t_end, ctx["seed"],
                                      ctx["size"]["replicas"], np.array(self.times),
                                      np.eye(reduced.dim),
                                      labels=list(reduced.state_labels))

    def checks(self, ctx, stats):
        labels = list(stats.observables)
        g, ga, p = (labels.index(x) for x in ("G", "Ga", "P"))
        out = [(f"G+Ga@{t:g}", bool(abs(stats.mean[g, j] + stats.mean[ga, j] - 1.0) <= 1e-12))
               for j, t in enumerate(self.times)]
        ref = load_reference()[self.name]
        return out + _within_reference("P", stats.mean[p], ref, stats.replicas)


WORKLOADS = {w.name: w for w in (VerifyAB(), SsaRing32(), PdmpMcAB(), PdmpGene())}
