"""Exact stationary moments of affine fast tiers.

Oracles, each derived by hand from the stationary moment equations
E[L phi] = 0 of the tier (Gadgil, Lee & Othmer 2005):

- catalytic production ``B -> B + C``: C is not Poisson. With B born at
  rate 1 and dying at rate 2, C made at rate B and dying at rate 1,
  E[B] = 1/2, E[B^2] = 3/4, 3 E[BC] = E[C] + E[B^2] gives E[BC] = 5/12,
  and E[C(C-1)] = E[BC] = 5/12, where a Poisson law would give 1/4;
- the open chain ``0 -> B -> C -> 0`` with ``A + C -> 0``: every B
  becomes a C, so E[C] = 1/(2 + v_A) and the rate of ``A + C -> 0`` is
  v_A/(2 + v_A), 1/3 at v_A = 1;
- supercritical branching ``B -> B + B`` at rate 2B against deaths at
  rate (1 + v_A) B: no stationary law for v_A < 1, mean 1/(v_A - 1)
  beyond, 1/2 at v_A = 3; the open chain with ``C -> C + B`` at rate 4C
  likewise has none for v_A < 2;
- the THREE_SCALE middle tier with an expression law ``M + 0*F``, which
  averages over the inner moment law through its power moments.

Each test names the deliberately broken solver it catches (run on a
copy of the code, not kept): "no conservation rows" drops the rows
E[(c.x - T) phi] = 0, "catalytic read as Poisson" returns
E[(x)_n] = E[x]^n and products of means across variables, and "no
eigenvalue check" solves the moment equations of an unstable tier.

A hypothesis test draws affine tiers (births, deaths, conversions and
catalytic productions over 1-4 discrete species, some deaths and births
with a frozen catalyst, and an optional closed conversion block) and
checks every moment of degree 1 and 2: against independent closed
forms, Poisson means births over deaths and multinomial laws of the
block's chain (``averaging.chain_equilibrium``, the GTH solve of the
movement equilibria, which shares no code with ``AffineMoments``), where
the tier is a birth-death family or one closed block, and against a
jump-path estimate within 4 standard errors everywhere else.
"""

import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mscrn.averaging import (McConfig, averaged_rate_three_scale, averaged_rate_two_scale,
                             chain_equilibrium, stationary_fast)
from mscrn.classify import classify, conserved_basis
from mscrn.errors import AnalyticUnavailable
from mscrn.parser import parse_document
from mscrn.reduce import build_reduced_model, serialize_reduced

sys.path.insert(0, str(Path(__file__).parent))
import conftest as fx  # noqa: E402

CATALYTIC_TEXT = """\
species A alpha=1
species B alpha=0
species C alpha=0
reaction 0 -> B @ mass-action kappa=1 beta=1
reaction B -> 0 @ mass-action kappa=2 beta=1
reaction B -> B + C @ mass-action kappa=1 beta=1
reaction C -> 0 @ mass-action kappa=1 beta=1
reaction 2 C -> 2 C + A @ mass-action kappa=1 beta=1
reaction C -> C + A @ mass-action kappa=1 beta=1
"""

OPEN_CHAIN_TEXT = """\
species A alpha=1
species B alpha=0
species C alpha=0
reaction 0 -> B @ mass-action kappa=1 beta=1
reaction B -> C @ mass-action kappa=1 beta=1
reaction C -> 0 @ mass-action kappa=2 beta=1
reaction A + C -> 0 @ mass-action kappa=1 beta=1
"""

SUPERCRITICAL_TEXT = """\
species A alpha=1
species B alpha=0
reaction 0 -> B @ mass-action kappa=1 beta=1
reaction B -> B + B @ mass-action kappa=2 beta=1
reaction B -> 0 @ mass-action kappa=1 beta=1
reaction A + B -> 0 @ mass-action kappa=1 beta=1
"""


def _classified(text):
    doc = parse_document(text)
    return classify(doc.model, doc.scaling)


def test_catalytic_production_is_not_poisson():
    # catches "catalytic read as Poisson" (1/4 against 5/12)
    c = _classified(CATALYTIC_TEXT)
    measure = stationary_fast(c, np.zeros(3), mode="analytic")
    assert measure.mean_vector().tolist() == [pytest.approx(0.5, rel=1e-12)] * 2
    assert measure.expect_mass_action(1.0, [1, 1])[0] == pytest.approx(5 / 12, rel=1e-12)
    assert measure.expect_mass_action(1.0, [0, 2]) == (pytest.approx(5 / 12, rel=1e-12), 0.0)
    pair, single = averaged_rate_two_scale(c, 4), averaged_rate_two_scale(c, 5)
    assert pair.kind == single.kind == "analytic"
    assert pair([1.0]) == pytest.approx(5 / 12, rel=1e-12)
    assert single([1.0]) == pytest.approx(0.5, rel=1e-12)


def test_open_chain_rate():
    c = _classified(OPEN_CHAIN_TEXT)
    rate = averaged_rate_two_scale(c, 3, mode="analytic")
    for v in (0.25, 1.0, 3.0):
        assert rate([v]) == pytest.approx(v / (2 + v), rel=1e-12)
        measure = stationary_fast(c, np.array([v, 0.0, 0.0]), mode="analytic")
        assert measure.mean_vector().tolist() == [pytest.approx(1.0, rel=1e-12),
                                                  pytest.approx(1 / (2 + v), rel=1e-12)]


def test_supercritical_tier_is_refused():
    # catches "no eigenvalue check", which reads a mean of -2 at v_A = 1/2
    c = _classified(SUPERCRITICAL_TEXT)
    with pytest.raises(AnalyticUnavailable):
        stationary_fast(c, np.array([0.5, 0.0]), mode="analytic")
    measure = stationary_fast(c, np.array([3.0, 0.0]), mode="analytic")
    assert measure.mean_vector().tolist() == [pytest.approx(0.5, rel=1e-12)]
    # at unit frozen factors births and deaths balance: no closed form
    with pytest.raises(AnalyticUnavailable):
        averaged_rate_two_scale(c, 3, mode="analytic")
    # a loop of two variables, C making B and B becoming C: the drift
    # [[-1, 4], [1, -(2 + v_A)]] has determinant v_A - 2, so the tier is
    # refused at v_A = 1 (where the means would read -3 and -1) and at
    # v_A = 3 has E[B] = 5, E[C] = 1
    loop = _classified(OPEN_CHAIN_TEXT + "reaction C -> C + B @ mass-action kappa=4 beta=1\n")
    with pytest.raises(AnalyticUnavailable):
        stationary_fast(loop, np.array([1.0, 0.0, 0.0]), mode="analytic")
    measure = stationary_fast(loop, np.array([3.0, 0.0, 0.0]), mode="analytic")
    assert measure.mean_vector().tolist() == [pytest.approx(5.0, rel=1e-12),
                                              pytest.approx(1.0, rel=1e-12)]


def test_mixed_tier_is_exact_in_auto_mode():
    # B is Poisson(1) and dC/dt = B - C, so E[C] = 1 and E[C^2] = 3/2;
    # catches "catalytic read as Poisson" (E[C^2] = 1)
    c = _classified(fx.MIXED_TIER_TEXT)
    measure = stationary_fast(c, np.array([1.0, 0.0, 0.0]))
    assert measure.variant == "moments"
    assert measure.expect_mass_action(1.0, [0, 2])[0] == pytest.approx(1.5, rel=1e-12)
    rate = averaged_rate_two_scale(c, 4)
    assert rate.kind == "analytic"
    assert rate([2.0]) == pytest.approx(2.0, rel=1e-12)


def test_rate_formula_printed_for_birth_death_tiers_only():
    # a formula read off births and deaths is wrong on any other shape:
    # the open chain, the catalytic tier and the mixed tier print "analytic"
    assert averaged_rate_two_scale(_classified(fx.AB_TEXT), 0).text == "k1*k2*vA/(k3+k1*vA)"
    for text, k in ((OPEN_CHAIN_TEXT, 3), (CATALYTIC_TEXT, 4), (CATALYTIC_TEXT, 5),
                    (fx.MIXED_TIER_TEXT, 4)):
        rate = averaged_rate_two_scale(_classified(text), k)
        assert rate.kind == "analytic" and rate.text is None
        doc = parse_document(text)
        lines = serialize_reduced(build_reduced_model(doc.model, doc.scaling)).splitlines()
        assert next(line for line in lines
                    if line.startswith(f"reaction {k + 1} ")).endswith("rate analytic")


def test_three_scale_expression_law_over_moment_law():
    # the middle tier's death M -> 0 reads the fast F through an expression
    # law; over the inner moment law its average is the power moment M.
    # Fails (AnalyticUnavailable) where a moment law is only sampled.
    text = fx.THREE_SCALE_TEXT.replace("reaction M -> 0 @ mass-action kappa=1 beta=1/2",
                                       "reaction M -> 0 @ expr M + 0*F beta=1/2")
    c = _classified(text)
    rate = averaged_rate_three_scale(c, 4, mc=McConfig(budget=2000, seed=5))
    value, se = rate([1.0]), rate.standard_error([1.0])
    assert 0 < se < 0.1
    assert abs(value - 0.75) < 3 * se


def test_three_scale_non_polynomial_law_falls_back_to_monte_carlo():
    # M/(1 + F) has no power moments: mode 'auto' averages it over the
    # Monte Carlo law of the inner tier, mode 'analytic' refuses
    text = fx.THREE_SCALE_TEXT.replace("reaction M -> 0 @ mass-action kappa=1 beta=1/2",
                                       "reaction M -> 0 @ expr M/(1 + F) beta=1/2")
    c = _classified(text)
    rate = averaged_rate_three_scale(c, 4, mc=McConfig(budget=400, seed=5))
    assert rate([1.0]) > 0 and rate.standard_error([1.0]) > 0
    with pytest.raises(AnalyticUnavailable):
        averaged_rate_three_scale(c, 4, mode="analytic", mc=McConfig(budget=400, seed=5))([1.0])


def test_two_scale_law_kind_follows_its_polynomial_form():
    # the open chain with A's consumption A -> 0 read through C: C dies at
    # rate 2 only, so E[C] = 1/2, and A*C averages in closed form to v_A/2;
    # A/(1 + C) is not polynomial, so mode 'auto' runs Monte Carlo (read as
    # analytic it fails at every state) and mode 'analytic' refuses it
    poly = _classified(OPEN_CHAIN_TEXT.replace("A + C -> 0 @ mass-action kappa=1",
                                               "A -> 0 @ expr A*C"))
    rate = averaged_rate_two_scale(poly, 3)
    assert rate.kind == "analytic"
    assert rate([3.0]) == pytest.approx(1.5, rel=1e-12)
    c = _classified(OPEN_CHAIN_TEXT.replace("A + C -> 0 @ mass-action kappa=1",
                                            "A -> 0 @ expr A/(1 + C)"))
    rate = averaged_rate_two_scale(c, 3, mc=McConfig(budget=400, seed=1))
    assert rate.kind == "montecarlo"
    assert rate([1.0]) > 0 and rate.standard_error([1.0]) > 0
    with pytest.raises(AnalyticUnavailable):
        averaged_rate_two_scale(c, 3, mode="analytic")


def test_conserved_zero_moments_are_not_negative():
    # 2E + Ea is conserved: at total 0 every moment vanishes, at total 1
    # E = 0 and Ea = 1, so (E)_2, E*Ea, E*G and (Ea)_2 vanish while G is
    # Poisson(11/130). A least-squares solve leaves these zeros as
    # round-off of either sign, and a reduced rate of -1e-16 would be
    # refused as a negative jump rate.
    c = _classified("""\
species S alpha=0
species E alpha=0
species Ea alpha=0
species G alpha=0
reaction E -> Ea + Ea @ mass-action kappa=3.7 beta=1
reaction Ea -> Ea + G @ mass-action kappa=11 beta=1
reaction G -> 0 @ mass-action kappa=130 beta=1
reaction Ea -> Ea + S @ mass-action kappa=1 beta=0
""")
    basis = conserved_basis(c)
    assert basis.vectors == ((2, 1, 0),)
    for total, zeros in ((0.0, ([2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1])),
                         (1.0, ([2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0]))):
        measure = stationary_fast(c, np.ones(4), mode="analytic", conserved=basis,
                                  conserved_values=[total])
        for alpha in zeros:
            assert 0.0 <= measure.expect_mass_action(1.0, alpha)[0] < 1e-12, (total, alpha)
    assert measure.expect_mass_action(1.0, [0, 1, 1])[0] == pytest.approx(11 / 130, rel=1e-12)


# ---------------------------------------------------------------------------
# drawn affine tiers


def _draw_affine_tier(data):
    """(text, fast reactions, block size, v_A) of a drawn affine tier over
    discrete X0..X{n-1} with a slow continuous A, frozen at v_A. The first
    ``size`` variables (none, or 2..n) form a closed conversion block: a cycle of
    conversions plus drawn extra ones, and no reaction that adds or
    removes a block molecule. Every other variable has a death, some
    catalysed by A, and may be born (some births catalysed by A),
    converted to another open variable, or made by a catalyst of any
    variable. At v_A a death outweighs the catalytic productions of its
    variable, so the open columns of the first-moment drift sum to less
    than 0 and the tier is stable. Each reaction is (kind, source,
    target, kappa, catalysed by A)."""
    from hypothesis import strategies as st

    v_a = data.draw(st.floats(0.3, 3.0))
    n = data.draw(st.integers(1, 4))
    size = data.draw(st.sampled_from([0] + list(range(2, n + 1))))
    open_vars = list(range(size, n))
    mixing = data.draw(st.booleans())
    kappa = st.floats(0.2, 2.0)
    reactions = [("convert", i, (i + 1) % size, data.draw(kappa), False) for i in range(size)]
    for _ in range(data.draw(st.integers(0, 2)) if size else 0):
        i, j = data.draw(st.permutations(range(size)))[:2]
        reactions.append(("convert", i, j, data.draw(kappa), False))
    made = {j: 0.0 for j in open_vars}
    for _ in range(data.draw(st.integers(0, 3)) if mixing and open_vars else 0):
        target = data.draw(st.sampled_from(open_vars))
        if data.draw(st.booleans()):
            source = data.draw(st.sampled_from(range(n)))
            reactions.append(("catalyse", source, target, data.draw(kappa), False))
            if source in made:
                made[source] += reactions[-1][3]
        elif len(open_vars) > 1:
            source = data.draw(st.sampled_from([j for j in open_vars if j != target]))
            reactions.append(("convert", source, target, data.draw(kappa), False))
    for j in open_vars:
        if data.draw(st.booleans()):
            reactions.append(("birth", None, j, data.draw(kappa), data.draw(st.booleans())))
        catalysed = data.draw(st.booleans())
        death = (data.draw(kappa) + made[j]) / (v_a if catalysed else 1.0)
        reactions.append(("death", j, None, death, catalysed))
    lines = ["species A alpha=1"] + [f"species X{j} alpha=0" for j in range(n)]
    lines.append("reaction A -> 0 @ mass-action kappa=1 beta=1")
    for kind, source, target, k, by_a in reactions:
        left, right = {"birth": ("0", f"X{target}"), "death": (f"X{source}", "0"),
                       "convert": (f"X{source}", f"X{target}"),
                       "catalyse": (f"X{source}", f"X{source} + X{target}")}[kind]
        if by_a:
            left, right = ("A" if left == "0" else f"A + {left}",
                           "A" if right == "0" else f"{right} + A")
        lines.append(f"reaction {left} -> {right} @ mass-action kappa={k!r} beta=1")
    return "\n".join(lines) + "\n", reactions, size, v_a


def _closed_form(reactions, size, n, v_a, total):
    """Exponents -> E[falling factorials] of a birth-death family
    (Poisson of mean births over deaths per variable) or of one closed
    block (multinomial of ``total`` over the stationary law of one
    molecule's conversion chain); None for any other tier."""
    kinds = {kind for kind, *_ in reactions}
    if size == 0 and kinds <= {"birth", "death"}:
        births, deaths = [0.0] * n, [0.0] * n
        for kind, source, target, k, by_a in reactions:
            rate = k * (v_a if by_a else 1.0)
            if kind == "birth":
                births[target] += rate
            else:
                deaths[source] += rate
        return lambda alpha: math.prod((b / d) ** a for b, d, a in zip(births, deaths, alpha))
    if size == n:
        rates = [[0.0] * n for _ in range(n)]
        for _, source, target, k, _ in reactions:
            rates[source][target] += k
        pi = chain_equilibrium(rates).tolist()
        return lambda alpha: (math.prod(total - i for i in range(sum(alpha)))
                              * math.prod(p ** a for p, a in zip(pi, alpha)))
    return None


def test_drawn_affine_tiers_match_closed_forms_and_monte_carlo():
    """Moments of degree 1 and 2 of drawn affine tiers; catches "no
    conservation rows" and "catalytic read as Poisson". Where a birth-death
    family or one closed block has an independent closed form they agree
    to 1e-12 relative. Elsewhere each moment must lie within 4 SE of a
    jump-path estimate at budget 20000. A calibrated normal estimate
    strays that far with probability 6.3e-5; the batch-means SE
    undercovers, and over 940 drawn Monte Carlo tiers (8823 moments) 7
    moments strayed; the two examined were moments of a Poisson variable
    and of a binomial pair, whose exact values the closed forms of those
    laws confirm. So each of the 15 Monte Carlo draws here fails on fresh
    seeds with probability about 0.7 %, and a run on fresh draws about
    once in ten. The draws are fixed (``derandomize``), so the test is
    deterministic."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    seen = {"closed": 0, "montecarlo": 0}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        text, reactions, size, v_a = _draw_affine_tier(data)
        n = sum(1 for line in text.splitlines() if line.startswith("species X"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c = _classified(text)
        basis = conserved_basis(c)
        assert basis.vectors == (((1,) * size + (0,) * (n - size),) if size else ())
        total = data.draw(st.integers(0, 5))
        frozen = np.array([v_a] + [0.0] * n)
        options = dict(conserved=basis, conserved_values=[float(total)]) if size else {}
        exact = stationary_fast(c, frozen, mode="analytic", **options)
        orders = sorted({tuple(picks.count(j) for j in range(n)) for d in (1, 2)
                         for picks in itertools.combinations_with_replacement(range(n), d)})
        oracle = _closed_form(reactions, size, n, v_a, total)
        if oracle is not None:
            seen["closed"] += 1
            for alpha in orders:
                assert exact.expect_mass_action(1.0, alpha)[0] == pytest.approx(
                    oracle(alpha), rel=1e-12, abs=1e-14), alpha
            return
        seen["montecarlo"] += 1
        mc = stationary_fast(c, frozen, mode="montecarlo",
                             mc=McConfig(budget=20_000, seed=data.draw(st.integers(0, 999))),
                             **options)
        for alpha in orders:
            value, se = mc.expect_mass_action(1.0, alpha)
            want = exact.expect_mass_action(1.0, alpha)[0]
            assert abs(value - want) <= 4 * se + 1e-12, (alpha, value, se, want)

    check()
    assert seen["closed"] >= 5 and seen["montecarlo"] >= 5
