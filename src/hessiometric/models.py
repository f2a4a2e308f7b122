"""Potential models: named entropy expressions over a thermodynamic chart.

A model supplies the entropy S as an expression in its coordinates; the
geometric potential is always the negative entropy.  Domain constraints
are expressions required to be strictly positive.

Built-in systems: the monatomic-style ideal gas, the ideal paramagnetic
solid (entropy obtained by inverting its fundamental equation in closed
form), and the Kerr-Newman black hole in two charts -- the naive
(mass, charge^1, momentum) chart, which is not degree-one homogeneous,
and the (mass^2, charge^2, momentum) chart, which is.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Mapping, Tuple

import numpy as np

from . import expr
from .errors import DomainError, ModelSchemaError
from .expr import Ast
from .jets import Jet


@dataclass(frozen=True)
class PotentialModel:
    name: str
    coordinates: Tuple[str, ...]
    parameters: Mapping[str, float]
    entropy: Ast
    domain: Tuple[Ast, ...] = field(default_factory=tuple)

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def entropy_jet(self, point, order: int = 4) -> Jet:
        return expr.eval_jet(self.entropy, self.coordinates, point,
                             self.parameters, order)

    def potential_jet(self, point, order: int = 4) -> Jet:
        """Jet of the potential (negative entropy) at ``point``."""
        return -self.entropy_jet(point, order)

    def entropy_value(self, point) -> float:
        return self.entropy_jet(point, order=1).value

    def domain_check(self, point):
        """True iff ``point`` is finite and every domain constraint is
        evaluable there (its value is finite) and strictly positive; a mask
        for points (P, dim), where a failed evaluation marks only its own
        point.  Values only: one order-0 walk per constraint."""
        x = np.atleast_1d(np.asarray(point, dtype=float))
        if x.shape[-1] != self.dim:
            raise ValueError(f"point has {x.shape[-1]} components, model "
                             f"dimension is {self.dim}")
        if x.ndim == 1:
            env = self._values(x)  # the coordinates as floats
            return (all(math.isfinite(env[c]) for c in self.coordinates)
                    and all(self._positive(ast, x, env) for ast in self.domain))
        inside = np.isfinite(x).all(axis=1)
        for constraint in self.domain:
            if inside.any():
                rest = x[inside]
                inside[inside] = self._positive(constraint, rest, self._values(rest))
        return inside

    def _values(self, x):
        """Order-0 environment at ``x`` (a batch for points (P, dim))."""
        return expr.environment(self.coordinates, self.parameters, x.T,
                                np.eye(self.dim), order=0)

    def _positive(self, constraint: Ast, x, env):
        try:
            value = expr.eval_on(constraint, env).value
        except DomainError:  # a batch retries point by point
            return x.ndim > 1 and np.array([self._positive(constraint, p, self._values(p))
                                            for p in x])
        return (value > 0.0) & (value < np.inf)

    def require_domain(self, point) -> None:
        """Raise DomainError unless :meth:`domain_check` holds (everywhere)."""
        inside = np.atleast_1d(self.domain_check(point))
        if not inside.all():
            bad = np.atleast_2d(np.asarray(point))[~inside][0]
            raise DomainError(f"point {bad.tolist()} violates "
                              f"the domain of model {self.name!r}")


_SCHEMA_KEYS = {"name", "coordinates", "parameters", "entropy", "domain"}
_REQUIRED_KEYS = {"name", "coordinates", "entropy"}


def _build(name, coordinates, parameters, entropy_text, domain_texts) -> PotentialModel:
    entropy = expr.parse(entropy_text)
    expr.validate(entropy, coordinates, list(parameters))
    domain = []
    for text in domain_texts:
        ast = expr.parse(text)
        expr.validate(ast, coordinates, list(parameters))
        domain.append(ast)
    return PotentialModel(name=name,
                          coordinates=tuple(coordinates),
                          parameters=dict(parameters),
                          entropy=entropy,
                          domain=tuple(domain))


def load_model(document: str) -> PotentialModel:
    """Load a model from its JSON text form.

    Schema: {"name": str, "coordinates": [str, ...],
    "parameters": {str: number, ...}, "entropy": str,
    "domain": [str, ...]}.  Unknown keys are rejected; parameters and
    domain may be omitted.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as e:
        raise ModelSchemaError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ModelSchemaError("model document must be a JSON object")
    unknown = set(doc) - _SCHEMA_KEYS
    if unknown:
        raise ModelSchemaError("unknown key(s): " + ", ".join(sorted(unknown)))
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise ModelSchemaError("missing key(s): " + ", ".join(sorted(missing)))
    name = doc["name"]
    coordinates = doc["coordinates"]
    parameters = doc.get("parameters", {})
    domain = doc.get("domain", [])
    if not isinstance(name, str):
        raise ModelSchemaError("'name' must be a string")
    if (not isinstance(coordinates, list) or not coordinates
            or not all(isinstance(c, str) for c in coordinates)):
        raise ModelSchemaError("'coordinates' must be a non-empty list of strings")
    if len(set(coordinates)) != len(coordinates):
        raise ModelSchemaError("coordinate names must be distinct")
    if (not isinstance(parameters, dict)
            or not all(isinstance(k, str) and isinstance(v, (int, float))
                       and not isinstance(v, bool) for k, v in parameters.items())):
        raise ModelSchemaError("'parameters' must map strings to numbers")
    if not isinstance(doc["entropy"], str):
        raise ModelSchemaError("'entropy' must be an expression string")
    if not isinstance(domain, list) or not all(isinstance(d, str) for d in domain):
        raise ModelSchemaError("'domain' must be a list of expression strings")
    return _build(name, coordinates, parameters, doc["entropy"], domain)


_BUILTINS = {
    "ideal_gas": {
        "coordinates": ("U", "V", "N"),
        "parameters": {"R": 1.0, "c": 1.5, "K": 1.0, "S0": 0.0},
        "entropy": "N*R*ln(K*V*U^c*N^(-(c+1))) + S0",
        "domain": ("U", "V", "N"),
        "positive": ("R", "c", "K"),
    },
    "paramagnet": {
        "coordinates": ("U", "I", "N"),
        "parameters": {"R": 1.0, "T0": 1.0, "I0": 1.0},
        "entropy": "N*R*(ln(U/(N*R*T0)) - I^2/(N^2*I0^2))",
        "domain": ("U", "N"),
        "positive": ("R", "T0", "I0"),
    },
    "kerr_newman_radiant": {
        "coordinates": ("u", "q", "j"),
        "parameters": {},
        "entropy": "0.25*(u + sqrt(u^2 - q*u - j^2) - q/2)",
        "domain": ("u", "u^2 - q*u - j^2"),
        "positive": (),
    },
    "kerr_newman_naive": {
        "coordinates": ("M", "Q", "J"),
        "parameters": {},
        "entropy": "0.25*(M^2 + M^2*sqrt(1 - Q^2/M^2 - J^2/M^4) - Q^2/2)",
        "domain": ("M", "1 - Q^2/M^2 - J^2/M^4"),
        "positive": (),
    },
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, **overrides) -> PotentialModel:
    """One of the built-in models, with optional parameter overrides."""
    try:
        entry = _BUILTINS[name]
    except KeyError:
        raise ModelSchemaError(f"unknown builtin model {name!r}") from None
    params = dict(entry["parameters"])
    unknown = set(overrides) - set(params)
    if unknown:
        raise ModelSchemaError(f"{name} has no parameter(s): "
                               + ", ".join(sorted(unknown)))
    params.update({k: float(v) for k, v in overrides.items()})
    for p in entry["positive"]:
        if not params[p] > 0.0:
            raise ModelSchemaError(f"parameter {p} of {name} must be positive, "
                                   f"got {params[p]}")
    return replace(_parsed_builtin(name), parameters=params)


@lru_cache(maxsize=None)
def _parsed_builtin(name: str) -> PotentialModel:
    """A builtin at its defaults, parsed once per process (ASTs are immutable)."""
    e = _BUILTINS[name]
    return _build(name, e["coordinates"], e["parameters"], e["entropy"], e["domain"])
