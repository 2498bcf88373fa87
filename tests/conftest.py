"""Shared model fixtures.

Expected values asserted in the test suite are derived by hand from the
closed forms noted next to each fixture, independent of the code under
test.
"""

import json
import sys

import numpy as np
import pytest

from mscrn.parser import parse_document

# Self-regulating gene: switching between inactive G and active Ga is a
# slow pair of jumps, protein P follows fast production/degradation.
# Single-scale: jumps for (G, Ga), flow for P.
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

# Titration of abundant A by a fast-turnover intermediate B.
# Two-scale: B is fast discrete, A slow continuous. With all kappas 1,
# the fast chain given v_A is birth-death with Poisson(1/(1+v_A)) law,
# and the reduced flow is dv_A/dt = -v_A/(1+v_A).
AB_TEXT = """\
species A alpha=1
species B alpha=0
reaction A + B -> 0 @ mass-action kappa=1 beta=1
reaction 0 -> B @ mass-action kappa=1 beta=1
reaction B -> 0 @ mass-action kappa=1 beta=1
init A 1
"""

# Spatial variant with heterogeneous constants over two compartments.
# Movement equilibria: pi_A = (2/3, 1/3), pi_B = (1/2, 1/2).
# Averaged constants for the fast-movement cases:
#   kbar_1 = 1*(2/3)(1/2) + 2*(1/3)(1/2) = 2/3
#   kbar_2 = 1.5 + 0.5 = 2
#   kbar_3 = 0.7/2 + 1.3/2 = 1
SPATIAL_AB_TEXT = """\
species A alpha=1 eta=2
species B alpha=0 eta=3
compartments d1 d2
reaction A + B -> 0 @ mass-action kappa=1,2 beta=1
reaction 0 -> B @ mass-action kappa=1.5,0.5 beta=1
reaction B -> 0 @ mass-action kappa=0.7,1.3 beta=1
move A from d1 to d2 rate 1
move A from d2 to d1 rate 2
move B from d1 to d2 rate 1
move B from d2 to d1 rate 1
init A @ d1 1
init A @ d2 0
"""

# Homogeneous spatial variant (uniform movement, equal constants): all
# four movement-speed cases must produce identical reduced rates.
SPATIAL_AB_HOMOGENEOUS_TEXT = """\
species A alpha=1 eta=2
species B alpha=0 eta=3
compartments d1 d2
reaction A + B -> 0 @ mass-action kappa=1,1 beta=1
reaction 0 -> B @ mass-action kappa=1,1 beta=1
reaction B -> 0 @ mass-action kappa=1,1 beta=1
move A from d1 to d2 rate 1
move A from d2 to d1 rate 1
move B from d1 to d2 rate 1
move B from d2 to d1 rate 1
init A @ d1 0.5
init A @ d2 0.5
"""

# Fast activation/deactivation pair with conserved total E + Ea that is
# created and destroyed on the slow timescale, plus a slow readout S.
# Constrained fast stationary given total n: Ea ~ Binomial(n, 1/3).
CONSERVED_TEXT = """\
species E alpha=0
species Ea alpha=0
species S alpha=0
reaction E -> Ea @ mass-action kappa=1 beta=1
reaction Ea -> E @ mass-action kappa=2 beta=1
reaction 0 -> E @ mass-action kappa=0.5 beta=0
reaction Ea -> 0 @ mass-action kappa=0.8 beta=0
reaction Ea -> Ea + S @ mass-action kappa=1 beta=0
init E 3
"""

# Three-tier linear chain: F fastest (Poisson mean v_M/2 given M),
# M middle (Poisson mean 3), S slow.
# Hand-composed reduced rate: 0.5 * v_S * (v_M/2) averaged over M
# equals 0.5 * v_S * 3/2 = 0.75 v_S.
THREE_SCALE_TEXT = """\
species F alpha=0
species M alpha=0
species S alpha=1
reaction M -> M + F @ mass-action kappa=1 beta=1
reaction F -> 0 @ mass-action kappa=2 beta=1
reaction 0 -> M @ mass-action kappa=3 beta=1/2
reaction M -> 0 @ mass-action kappa=1 beta=1/2
reaction F + S -> F @ mass-action kappa=0.5 beta=1
init S 1
"""

# Spatial activation/deactivation with conserved per-block totals, fast
# species moving slower than the fast reactions (case 3 regime).
# Oracles for s_c = 3 with symmetric movement: the conserved amount
# splits evenly (1.5 per compartment); activation shares are
# p = (1/3, 3/4), so the slow readout rate is 1*(1/3)*1.5 + 2*(3/4)*1.5
# = 2.75, injection 0.5+0.5 = 1, removal 0.8*0.5 + 0.4*1.125 = 0.85.
SPATIAL_CONSERVED_TEXT = """\
species E alpha=0 eta=1/2
species Ea alpha=0 eta=1/2
species S alpha=0 eta=2
compartments d1 d2
reaction E -> Ea @ mass-action kappa=1,3 beta=1
reaction Ea -> E @ mass-action kappa=2,1 beta=1
reaction 0 -> E @ mass-action kappa=0.5,0.5 beta=0
reaction Ea -> 0 @ mass-action kappa=0.8,0.4 beta=0
reaction Ea -> Ea + S @ mass-action kappa=1,2 beta=0
move E from d1 to d2 rate 1
move E from d2 to d1 rate 1
move Ea from d1 to d2 rate 1
move Ea from d2 to d1 rate 1
move S from d1 to d2 rate 1
move S from d2 to d1 rate 1
"""

# Spatial self-regulating gene with constants matched to the homogeneity
# condition (uniform movement): the movement-averaged constants equal
# the single-compartment ones (1, 1, 2, 1).
SPATIAL_GENE_TEXT = """\
species G alpha=0 eta=1
species Ga alpha=0 eta=1
species P alpha=1 eta=1
compartments d1 d2
reaction G + P -> Ga + P @ mass-action kappa=2,2 beta=0
reaction Ga -> G @ mass-action kappa=1,1 beta=0
reaction Ga -> Ga + P @ mass-action kappa=2,2 beta=1
reaction P -> 0 @ mass-action kappa=1,1 beta=1
move G from d1 to d2 rate 1
move G from d2 to d1 rate 1
move Ga from d1 to d2 rate 1
move Ga from d2 to d1 rate 1
move P from d1 to d2 rate 1
move P from d2 to d1 rate 1
init Ga @ d1 1
"""

# Mixed fast tier: B is birth-death at rate 1 (Poisson(1) law), C a fast
# flow with dC/dt = B - C, and A + C -> 0 is slow. The stationary mean of
# C is that of B, so the averaged rate of reaction 4 is v_A * E[C] = v_A.
MIXED_TIER_TEXT = """\
species A alpha=1
species B alpha=0
species C alpha=1
reaction 0 -> B @ mass-action kappa=1 beta=1
reaction B -> 0 @ mass-action kappa=1 beta=1
reaction B -> B + C @ mass-action kappa=1 beta=2
reaction C -> 0 @ mass-action kappa=1 beta=2
reaction A + C -> 0 @ mass-action kappa=1 beta=1
init A 1
"""

# Flow-only fast tier: dC/dt = 2 - C settles at the fixed point C = 2, so
# the averaged rate of reaction 2 (A + C -> 0) is 2 v_A.
FLOW_TIER_TEXT = """\
species A alpha=1
species C alpha=1
reaction 0 -> C @ mass-action kappa=2 beta=2
reaction C -> 0 @ mass-action kappa=1 beta=2
reaction A + C -> 0 @ mass-action kappa=1 beta=1
init A 1
"""

# Expression-law fast tier: B is born at rate 1 + A^2/(1 + B), a law with
# no mass-action orders, and dies at rate B; A + B -> 0 is slow.
EXPR_TIER_TEXT = """\
species A alpha=1
species B alpha=0
reaction A + B -> 0 @ mass-action kappa=1 beta=1
reaction 0 -> B @ expr 1 + A*A/(1 + B) beta=1
reaction B -> 0 @ mass-action kappa=1 beta=1
"""

# Pure movement of one discrete species on two compartments;
# stationary occupancy (2/3, 1/3).
MOVEMENT_TEXT = """\
species W alpha=0 eta=1
compartments d1 d2
move W from d1 to d2 rate 1
move W from d2 to d1 rate 2
"""


def ring_text(n_comp: int = 8, move_rate: float = 4.0) -> str:
    """AB titration in every compartment of a ring, kappa_1 varying by
    compartment, nearest-neighbour moves both ways for both species."""
    kappa1 = ",".join(repr(1.0 + (d % 4) / 4) for d in range(n_comp))
    lines = ["species A alpha=1 eta=1/2", "species B alpha=0 eta=1/2",
             "compartments " + " ".join(f"d{d}" for d in range(n_comp)),
             f"reaction A + B -> 0 @ mass-action kappa={kappa1} beta=1",
             "reaction 0 -> B @ mass-action kappa=1 beta=1",
             "reaction B -> 0 @ mass-action kappa=1 beta=1"]
    for name in ("A", "B"):
        for d in range(n_comp):
            for step in (1, -1):
                lines.append(f"move {name} from d{d} to d{(d + step) % n_comp} "
                             f"rate {move_rate}")
    lines.append("init A @ d0 1")
    return "\n".join(lines) + "\n"


def _doc(text):
    return parse_document(text)


@pytest.fixture(scope="session")
def gene_doc():
    return _doc(GENE_TEXT)


@pytest.fixture(scope="session")
def ab_doc():
    return _doc(AB_TEXT)


@pytest.fixture(scope="session")
def spatial_ab_doc():
    return _doc(SPATIAL_AB_TEXT)


@pytest.fixture(scope="session")
def spatial_ab_homog_doc():
    return _doc(SPATIAL_AB_HOMOGENEOUS_TEXT)


@pytest.fixture(scope="session")
def conserved_doc():
    return _doc(CONSERVED_TEXT)


@pytest.fixture(scope="session")
def three_scale_doc():
    return _doc(THREE_SCALE_TEXT)


@pytest.fixture(scope="session")
def movement_doc():
    return _doc(MOVEMENT_TEXT)


@pytest.fixture(scope="session")
def spatial_conserved_doc():
    return _doc(SPATIAL_CONSERVED_TEXT)


@pytest.fixture(scope="session")
def spatial_gene_doc():
    return _doc(SPATIAL_GENE_TEXT)


def rewrite_record(record, compute, keys) -> None:
    """The command line of a parity test: print the whole record that
    ``compute()`` gives, or with ``keys`` rewrite just those keys of the
    JSON file ``record``, leaving every other key as it is, byte for
    byte."""
    def write(entries, fh):
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")

    computed = compute()
    if not keys:
        write(computed, sys.stdout)
        return
    unknown = sorted(set(keys) - set(computed))
    if unknown:
        sys.exit(f"unknown keys: {' '.join(unknown)}")
    with open(record) as fh:
        entries = json.load(fh)
    entries.update((key, computed[key]) for key in keys)
    with open(record, "w") as fh:
        write(entries, fh)


def state_of(model, values, scaled=True):
    from mscrn.model import State
    return State(np.asarray(values, dtype=float), scaled=scaled)
