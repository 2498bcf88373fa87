"""Parse and serialize the line-oriented ``.mscrn`` model format.

The format is purpose-built so the scaling exponents have a first-class
home::

    # self-regulating gene
    species G  alpha=0
    species Ga alpha=0
    species P  alpha=1
    reaction G + P -> Ga + P @ mass-action kappa=1 beta=0
    reaction Ga -> G         @ mass-action kappa=1 beta=0
    reaction Ga -> Ga + P    @ mass-action kappa=2 beta=1
    reaction P ->            @ mass-action kappa=1 beta=1
    init Ga 1

Spatial models add ``compartments d1 d2``, per-compartment rate
constants (``kappa=1,2`` ordered as the compartments line), movement
lines (``move B from d1 to d2 rate 1.5``) and per-compartment initial
values (``init A @ d1 0.5``). Rational exponents are written ``p/q`` or
as decimals (converted exactly). Serialization is byte-deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import expressions
from .errors import ParseError, ValidationError
from .exact import format_rational, parse_rational
from .model import (Expression, MassAction, Model, Network, Reaction, ScalingSpec,
                    SpatialModel, Species)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


@dataclass
class ModelDocument:
    """A parsed model file: the model, its scaling, and initial values
    in scaled units (per compartment for spatial models)."""

    model: Model
    scaling: ScalingSpec
    init: dict = field(default_factory=dict)

    def initial_scaled(self) -> np.ndarray | None:
        """Initial state as an array, or None when no init lines exist."""
        if not self.init:
            return None
        model = self.model
        if not model.is_spatial:       # keyed by species: a 1-D state
            return np.array([float(self.init.get(s.name, 0.0)) for s in model.species])
        out = np.zeros((model.network.n_species, model.n_compartments))
        for (name, comp), value in self.init.items():
            out[model.index[name], model.compartments.index(comp)] = value
        return out


class _Line:
    def __init__(self, text: str, number: int):
        self.text = text
        self.number = number
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek_word(self) -> str | None:
        self.skip_ws()
        match = re.match(r"[^\s]+", self.text[self.pos:])
        return match.group(0) if match else None

    def take_word(self, what: str = "token") -> tuple[str, int]:
        self.skip_ws()
        match = re.match(r"[^\s]+", self.text[self.pos:])
        if not match:
            raise ParseError(f"expected {what}", self.number, self.pos + 1)
        start = self.pos
        self.pos += match.end()
        return match.group(0), start + 1

    def rest(self) -> tuple[str, int]:
        self.skip_ws()
        return self.text[self.pos:], self.pos + 1

    def expect_end(self):
        self.skip_ws()
        if self.pos < len(self.text):
            raise ParseError(f"unexpected trailing input {self.text[self.pos:]!r}",
                             self.number, self.pos + 1)


def _key_value(token: str, key: str, line: _Line, col: int) -> str:
    if not token.startswith(key + "="):
        raise ParseError(f"expected {key}=...", line.number, col, col + len(token))
    return token[len(key) + 1:]


def _parse_rational_token(token: str, line: _Line, col: int) -> Fraction:
    try:
        return parse_rational(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {token!r}", line.number, col, col + len(token))


def _parse_float_token(token: str, line: _Line, col: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad number {token!r}", line.number, col, col + len(token))


def _check_name(token: str, line: _Line, col: int) -> str:
    if not _NAME_RE.match(token):
        raise ParseError(f"bad identifier {token!r}", line.number, col, col + len(token))
    return token


def _parse_side(text: str, line: _Line, col: int) -> list[tuple[str, int]]:
    """Parse a reactant or product list like ``A + 2 B`` ( ``0`` = empty)."""
    text = text.strip()
    if text in ("", "0"):
        return []
    out = []
    for part in text.split("+"):
        part = part.strip()
        match = re.match(r"(?:(\d+)\s*)?([A-Za-z_][A-Za-z0-9_]*)$", part)
        if not match:
            raise ParseError(f"bad species term {part!r}", line.number, col, col + len(text))
        count = int(match.group(1)) if match.group(1) else 1
        out.append((match.group(2), count))
    return out


@dataclass
class _RawReaction:
    reactants: list
    products: list
    law_kind: str            # 'mass-action' | 'expr'
    kappas: list[float] | None
    expr_source: str | None
    beta: Fraction
    line: int


def parse_document(text: str) -> ModelDocument:
    """Parse a full model file into a validated :class:`ModelDocument`."""
    species: list[tuple[str, Fraction, Fraction | None, int]] = []
    compartments: list[str] = []
    compartments_line = None
    raw_reactions: list[_RawReaction] = []
    moves: list[tuple[str, str, str, float, int]] = []
    gamma = Fraction(0)
    init: dict = {}

    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        line = _Line(stripped, number)
        keyword, kw_col = line.take_word("keyword")

        if keyword == "species":
            name_tok, col = line.take_word("species name")
            name = _check_name(name_tok, line, col)
            alpha = Fraction(0)
            eta = None
            while line.peek_word():
                token, col = line.take_word()
                if token.startswith("alpha="):
                    alpha = _parse_rational_token(token[6:], line, col + 6)
                elif token.startswith("eta="):
                    eta = _parse_rational_token(token[4:], line, col + 4)
                else:
                    raise ParseError(f"unknown species attribute {token!r}",
                                     number, col, col + len(token))
            species.append((name, alpha, eta, number))

        elif keyword == "compartments":
            if compartments_line is not None:
                raise ParseError("duplicate compartments line", number, kw_col)
            compartments_line = number
            while line.peek_word():
                token, col = line.take_word()
                compartments.append(_check_name(token, line, col))
            if not compartments:
                raise ParseError("compartments line needs at least one name", number, kw_col)

        elif keyword == "reaction":
            body, body_col = line.rest()
            if "->" not in body:
                raise ParseError("reaction needs '->'", number, body_col)
            left, right = body.split("->", 1)
            if "@" not in right:
                raise ParseError("reaction needs '@ rate-law'", number, body_col)
            right, law_text = right.split("@", 1)
            reactants = _parse_side(left, line, body_col)
            products = _parse_side(right, line, body_col + len(left) + 2)
            law_col = body_col + len(left) + 2 + len(right) + 1
            tokens = law_text.split()
            if not tokens:
                raise ParseError("missing rate law", number, law_col)
            beta = Fraction(0)
            if tokens and tokens[-1].startswith("beta="):
                beta = _parse_rational_token(tokens[-1][5:], line, law_col)
                tokens = tokens[:-1]
            if not tokens:
                raise ParseError("missing rate law", number, law_col)
            kind = tokens[0]
            if kind == "mass-action":
                if len(tokens) != 2 or not tokens[1].startswith("kappa="):
                    raise ParseError("mass-action law needs kappa=...", number, law_col)
                kappas = [_parse_float_token(tok, line, law_col)
                          for tok in tokens[1][6:].split(",")]
                raw_reactions.append(_RawReaction(reactants, products, "mass-action",
                                                  kappas, None, beta, number))
            elif kind == "expr":
                source = " ".join(tokens[1:])
                if not source:
                    raise ParseError("empty expression", number, law_col)
                raw_reactions.append(_RawReaction(reactants, products, "expr",
                                                  None, source, beta, number))
            else:
                raise ParseError(f"unknown rate law {kind!r}", number, law_col)

        elif keyword == "move":
            name_tok, col = line.take_word("species name")
            name = _check_name(name_tok, line, col)
            for expected in ("from",):
                token, col = line.take_word()
                if token != expected:
                    raise ParseError(f"expected {expected!r}", number, col, col + len(token))
            src, col = line.take_word("compartment")
            token, col = line.take_word()
            if token != "to":
                raise ParseError("expected 'to'", number, col, col + len(token))
            dst, col = line.take_word("compartment")
            token, col = line.take_word()
            if token != "rate":
                raise ParseError("expected 'rate'", number, col, col + len(token))
            rate_tok, col = line.take_word("rate value")
            rate = _parse_float_token(rate_tok, line, col)
            line.expect_end()
            moves.append((name, src, dst, rate, number))

        elif keyword == "scaling":
            token, col = line.take_word("gamma=...")
            gamma = _parse_rational_token(_key_value(token, "gamma", line, col), line, col)
            line.expect_end()

        elif keyword == "init":
            name_tok, col = line.take_word("species name")
            name = _check_name(name_tok, line, col)
            token, col = line.take_word("value")
            comp = None
            if token == "@":
                comp, col = line.take_word("compartment")
                token, col = line.take_word("value")
            value = _parse_float_token(token, line, col)
            line.expect_end()
            init[(name, comp)] = value

        else:
            raise ParseError(f"unknown keyword {keyword!r}", number, kw_col,
                             kw_col + len(keyword))

    return _assemble(species, compartments, raw_reactions, moves, gamma, init)


def _assemble(species_decls, compartments, raw_reactions, moves, gamma, init) -> ModelDocument:
    if not species_decls:
        raise ValidationError("model declares no species")
    seen = set()
    for name, _, _, number in species_decls:
        if name in seen:
            raise ValidationError(f"duplicate species {name!r} (line {number})")
        seen.add(name)
    species = [Species(name, alpha, eta) for name, alpha, eta, _ in species_decls]
    index = {s.name: i for i, s in enumerate(species)}
    spatial = bool(compartments) or bool(moves)
    if moves and not compartments:
        raise ValidationError("movement lines require a compartments line")
    nd = len(compartments) if spatial else 1

    reactions = []
    law_table = []
    for raw in raw_reactions:
        for name, _ in raw.reactants + raw.products:
            if name not in index:
                raise ValidationError(f"undeclared species {name!r} (line {raw.line})")
        reactants = {}
        for name, count in raw.reactants:
            reactants[index[name]] = reactants.get(index[name], 0) + count
        products = {}
        for name, count in raw.products:
            products[index[name]] = products.get(index[name], 0) + count
        if raw.law_kind == "mass-action":
            kappas = raw.kappas
            if any(k < 0 for k in kappas):
                raise ValidationError(f"negative kappa (line {raw.line})")
            if len(kappas) == 1:
                kappas = kappas * nd
            if len(kappas) != nd:
                raise ValidationError(
                    f"reaction on line {raw.line}: {len(raw.kappas)} kappas for {nd} compartments")
            laws = [MassAction(k) for k in kappas]
        else:
            law = Expression(raw.expr_source)
            for symbol in _expr_symbols(law):
                if symbol not in index:
                    raise ValidationError(
                        f"expression references undeclared species {symbol!r} (line {raw.line})")
            laws = [law] * nd
        reactions.append(Reaction.make(reactants, products, raw.beta, laws[0]))
        law_table.append(laws)

    network = Network(species, reactions)

    if spatial:
        comp_index = {c: d for d, c in enumerate(compartments)}
        movement = np.zeros((len(species), nd, nd))
        for name, src, dst, rate, number in moves:
            if name not in index:
                raise ValidationError(f"undeclared species {name!r} (line {number})")
            for c in (src, dst):
                if c not in comp_index:
                    raise ValidationError(f"undeclared compartment {c!r} (line {number})")
            if src == dst:
                raise ValidationError(f"move from {src!r} to itself (line {number})")
            if rate < 0:
                raise ValidationError(f"negative movement rate (line {number})")
            movement[index[name], comp_index[src], comp_index[dst]] += rate
        model: Model = SpatialModel(network, compartments, law_table, movement)
    else:
        model = network

    checked_init = {}
    for (name, comp), value in init.items():
        if name not in index:
            raise ValidationError(f"init references undeclared species {name!r}")
        if value < 0:
            raise ValidationError(f"negative initial value for {name!r}")
        if spatial:
            if comp is None:
                raise ValidationError(f"init for {name!r} needs a compartment in spatial models")
            if comp not in compartments:
                raise ValidationError(f"init references undeclared compartment {comp!r}")
            checked_init[(name, comp)] = value
        else:
            if comp is not None:
                raise ValidationError("compartment init in a non-spatial model")
            checked_init[name] = value

    return ModelDocument(model, ScalingSpec(gamma), checked_init)


def _expr_symbols(law: Expression) -> set[str]:
    return expressions.variables(law.ast)


def parse_model(text: str) -> tuple[Model, ScalingSpec]:
    doc = parse_document(text)
    return doc.model, doc.scaling


def _format_float(x: float) -> str:
    return repr(float(x))


def _format_side(entries, species) -> str:
    if not entries:
        return "0"
    parts = []
    for i, n in entries:
        parts.append(species[i].name if n == 1 else f"{n} {species[i].name}")
    return " + ".join(parts)


def serialize_model(model: Model, scaling: ScalingSpec | None = None,
                    init: dict | None = None) -> str:
    """Canonical text form; ``parse(serialize(m))`` equals ``m``."""
    network = model.network
    lines = []
    for s in network.species:
        line = f"species {s.name} alpha={format_rational(s.alpha)}"
        if s.eta is not None:
            line += f" eta={format_rational(s.eta)}"
        lines.append(line)
    if model.is_spatial:
        lines.append("compartments " + " ".join(model.compartments))
    if scaling is not None and scaling.gamma != 0:
        lines.append(f"scaling gamma={format_rational(scaling.gamma)}")
    for k, r in enumerate(network.reactions):
        left = _format_side(r.reactants, network.species)
        right = _format_side(r.products, network.species)
        laws = model.rate_laws[k]
        if isinstance(laws[0], MassAction):
            kappas = [law.kappa for law in laws]
            if len(set(kappas)) == 1:
                kappa_text = _format_float(kappas[0])
            else:
                kappa_text = ",".join(_format_float(x) for x in kappas)
            law_text = f"mass-action kappa={kappa_text}"
        else:
            law_text = f"expr {laws[0].source}"
        lines.append(f"reaction {left} -> {right} @ {law_text} beta={format_rational(r.beta)}")
    for i, d1, d2 in zip(*np.nonzero(model.movement > 0)):
        rate = _format_float(model.movement[i, d1, d2])
        lines.append(f"move {network.species[i].name} from {model.compartments[d1]} "
                     f"to {model.compartments[d2]} rate {rate}")
    if init:
        for key in sorted(init, key=lambda k: k if isinstance(k, tuple) else (k, "")):
            if isinstance(key, tuple):
                name, comp = key
                lines.append(f"init {name} @ {comp} {_format_float(init[key])}")
            else:
                lines.append(f"init {key} {_format_float(init[key])}")
    return "\n".join(lines) + "\n"


def models_equal(a: Model, b: Model) -> bool:
    """Structural equality (species, exponents, stoichiometry, laws,
    movement): the oracle of the serialize/parse round-trip tests."""
    if a.is_spatial != b.is_spatial or (a.is_spatial and a.compartments != b.compartments):
        return False
    na, nb = a.network, b.network
    if na.species != nb.species or len(na.reactions) != len(nb.reactions):
        return False
    if any((ra.reactants, ra.products, ra.beta) != (rb.reactants, rb.products, rb.beta)
           for ra, rb in zip(na.reactions, nb.reactions)):
        return False
    return np.array_equal(a.movement, b.movement) and all(
        _laws_equal(x, y) for row_a, row_b in zip(a.rate_laws, b.rate_laws)
        for x, y in zip(row_a, row_b))


def _laws_equal(x, y) -> bool:
    if isinstance(x, MassAction) and isinstance(y, MassAction):
        return x.kappa == y.kappa
    if isinstance(x, Expression) and isinstance(y, Expression):
        return x.source == y.source
    return False
