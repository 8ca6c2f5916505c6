"""Test-function catalog: smooth and singular families addressable by key.

Keys look like ``"singular_power:beta=0.5"`` or
``"smooth_poly:coeffs=0;1;2"``: kind, colon, comma-separated ``name=value``
pairs, with ``;`` separating the entries of a coefficient list.

Each kind is one ``_KINDS`` entry: its parameters with their defaults, and
its rule ``f(x, params, xi)``.  A kind is singular at xi when it takes
``beta``; the weighted class then needs beta < alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .blend import Weight
from .errors import DomainError, MembershipError, SampleError
from .smoothstep import _horner

# kind -> (its parameters with their defaults, its rule f(x, params, xi));
# the defaults of beta and coeffs fail the checks, so those must be given
_KINDS = {
    "smooth_sin": ({"freq": 1.0}, lambda x, p, xi: np.sin(np.pi * p["freq"] * x)),
    "smooth_poly": ({"coeffs": ()}, lambda x, p, xi: _horner(x, p["coeffs"])),
    "singular_power": ({"beta": 0.0}, lambda x, p, xi: _checked_distance(x, xi) ** -p["beta"]),
    "singular_osc": ({"beta": 0.0, "freq": 1.0}, lambda x, p, xi: (
        (d := _checked_distance(x, xi)) ** -p["beta"] * np.sin(1.0 / d + p["freq"]))),
}
# singular kinds refuse x this near xi; the evaluation grid leaves those x out
_SINGULAR_EXCLUSION = 1e-12

DEFAULT_KEYS = (
    "smooth_sin:freq=1",
    "smooth_poly:coeffs=0;1",
    "singular_power:beta=0.5",
    "singular_osc:beta=0.5,freq=1",
)


@dataclass(frozen=True, eq=False)
class FunctionSpec:
    kind: str
    params: Mapping[str, object]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"unknown function kind {self.kind!r}; "
                              f"choose from {', '.join(_KINDS)}")
        defaults = _KINDS[self.kind][0]
        unknown = sorted(set(self.params) - set(defaults))
        if unknown:
            raise DomainError(f"{self.kind} takes only {'/'.join(defaults)}, got {unknown}")
        p = {**defaults, **self.params}
        if "freq" in p:
            p["freq"] = _finite("freq", p["freq"])
        if self.kind == "smooth_sin" and p["freq"] <= 0:
            raise DomainError("smooth_sin frequency must be positive")
        if "coeffs" in p:
            p["coeffs"] = tuple(_finite("coeffs", c) for c in np.ravel(p["coeffs"]))
            if not p["coeffs"]:
                raise DomainError("smooth_poly needs at least one coefficient")
        if "beta" in p:
            p["beta"] = _finite("beta", p["beta"])
            if not p["beta"] > 0.0:
                raise DomainError("singular kinds need beta > 0")
        object.__setattr__(self, "params", p)

    @property
    def is_singular(self) -> bool:
        return "beta" in _KINDS[self.kind][0]


def _finite(name: str, value) -> float:
    if np.ndim(value) != 0:
        raise DomainError(f"parameter {name} takes one number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"parameter {name} must be finite, got {value!r}")
    return value


def parse_spec(key: str) -> FunctionSpec:
    """Parse a catalog key string into a FunctionSpec."""
    kind, _, rest = key.partition(":")
    kind = kind.strip()
    params: dict[str, object] = {}
    if rest.strip():
        for chunk in rest.split(","):
            name, sep, value = chunk.partition("=")
            if not sep:
                raise DomainError(f"malformed parameter {chunk!r} in key {key!r}")
            name = name.strip()
            if name in params:
                raise DomainError(f"parameter {name} given twice in key {key!r}")
            try:
                params[name] = tuple(map(float, value.split(";"))) if ";" in value else float(value)
            except ValueError:
                raise DomainError(f"parameter {name} takes numbers, got {value!r} "
                                  f"in key {key!r}") from None
    return FunctionSpec(kind=kind, params=params)


def make_function(spec: FunctionSpec, weight: Weight):
    """Build the evaluation rule for ``spec`` against ``weight``, on 1-d arrays.

    Singular kinds require beta < weight.alpha (so the weighted function
    vanishes at the singularity) and refuse evaluation within 1e-12 of it.
    """
    # read once: a later change to spec.params leaves f as built
    p, rule, xi = dict(spec.params), _KINDS[spec.kind][1], weight.xi
    if spec.is_singular and p["beta"] >= weight.alpha:
        raise MembershipError(f"beta={p['beta']} >= alpha={weight.alpha}: weighted function "
                              "does not vanish at the singularity")

    def f(x):
        return rule(x, p, xi)

    return f


def _checked_distance(x: np.ndarray, xi: float) -> np.ndarray:
    d = np.abs(x - xi)
    near = d <= _SINGULAR_EXCLUSION
    if near.any():
        x_bad = float(x[np.argmax(near)])
        raise SampleError(f"singular function sampled at x={x_bad!r}", x_bad)
    return d
