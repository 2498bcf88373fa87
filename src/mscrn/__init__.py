"""Multiscale spatial chemical reaction networks: static scaling-limit
reduction and stochastic simulation of both the finite-N model and its
limit process."""

from . import errors
from .classify import classify, conserved_basis, spatial_case_for
from .model import (Expression, MassAction, Network, Reaction, ScalingSpec,
                    SpatialModel, Species, State, evaluate_rate)
from .parser import parse_document, parse_model, serialize_model
from .reduce import ReducedModel, build_reduced_model, serialize_reduced
from .verify import VerifyReport, verify_convergence

__all__ = [
    "errors",
    "classify", "conserved_basis", "spatial_case_for",
    "Expression", "MassAction", "Network", "Reaction", "ScalingSpec",
    "SpatialModel", "Species", "State", "evaluate_rate",
    "parse_document", "parse_model", "serialize_model",
    "ReducedModel", "build_reduced_model", "serialize_reduced",
    "VerifyReport", "verify_convergence",
]

__version__ = "0.1.0"
