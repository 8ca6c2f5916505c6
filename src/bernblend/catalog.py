"""Test-function catalog: smooth and singular families addressable by key.

Keys look like ``"singular_power:beta=0.5"`` or
``"smooth_poly:coeffs=0;1;2"``: kind, colon, comma-separated ``name=value``
pairs, with ``;`` separating the entries of a coefficient list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .blend import Weight
from .errors import DomainError, MembershipError, SampleError
from .smoothstep import _horner

# the parameters each kind accepts
_PARAMS = {
    "smooth_sin": ("freq",),
    "smooth_poly": ("coeffs",),
    "singular_power": ("beta",),
    "singular_osc": ("beta", "freq"),
}
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
        allowed = _PARAMS.get(self.kind)
        if allowed is None:
            raise DomainError(f"unknown function kind {self.kind!r}")
        p = dict(self.params)
        unknown = sorted(set(p) - set(allowed))
        if unknown:
            raise DomainError(f"{self.kind} takes only {'/'.join(allowed)}, got {unknown}")
        if "freq" in allowed:
            p["freq"] = _finite("freq", p.get("freq", 1.0))
        if self.kind == "smooth_sin" and p["freq"] <= 0:
            raise DomainError("smooth_sin frequency must be positive")
        if self.kind == "smooth_poly":
            coeffs = tuple(_finite("coeffs", c) for c in np.ravel(p.get("coeffs", ())))
            if not coeffs:
                raise DomainError("smooth_poly needs at least one coefficient")
            p["coeffs"] = coeffs
        if self.is_singular:
            p["beta"] = _finite("beta", p.get("beta", 0.0))
            if not p["beta"] > 0.0:
                raise DomainError("singular kinds need beta > 0")
        object.__setattr__(self, "params", p)

    @property
    def is_smooth(self) -> bool:
        return self.kind.startswith("smooth")

    @property
    def is_singular(self) -> bool:
        return not self.is_smooth


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
    xi = weight.xi
    if spec.is_singular:
        beta = float(spec.params["beta"])
        if beta >= weight.alpha:
            raise MembershipError(
                f"beta={beta} >= alpha={weight.alpha}: weighted function "
                "does not vanish at the singularity"
            )

    if spec.kind == "smooth_sin":
        freq = float(spec.params["freq"])

        def f(x):
            return np.sin(np.pi * freq * x)

    elif spec.kind == "smooth_poly":
        coeffs = np.asarray(spec.params["coeffs"], dtype=float)

        def f(x):
            return _horner(x, coeffs)

    elif spec.kind == "singular_power":

        def f(x):
            d = _checked_distance(x, xi)
            return d ** -beta

    else:  # singular_osc
        freq = float(spec.params["freq"])

        def f(x):
            d = _checked_distance(x, xi)
            return d ** -beta * np.sin(1.0 / d + freq)

    return f


def _checked_distance(x: np.ndarray, xi: float) -> np.ndarray:
    d = np.abs(x - xi)
    near = d <= _SINGULAR_EXCLUSION
    if near.any():
        x_bad = float(x[np.argmax(near)])
        raise SampleError(f"singular function sampled at x={x_bad!r}", x_bad)
    return d
