"""The blended combination operator and its 2r-th derivative.

The operator applies a moment-killing Bernstein combination not to f
itself but to its blended extension around the weight center, one
extension per ladder degree.

The 2r-th derivative uses the classical identity

    B_n^{(m)}(g, x) = n!/(n-m)! * sum_k  dm_k  p_{n-m,k}(x),

where dm_k is the m-th forward lattice difference of the samples with
step 1/n.  The falling factorial n!/(n-m)! is taken as an exact integer
(well inside double range for every degree this package handles), and
the alternating lattice differences are accumulated with fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import SampleVector, _unwrap, basis_matrix
from .blend import BlendSpec, Weight, blend_eval, build_blend_spec
from .combination import CombinationScheme, build_scheme, combine_samples
from .errors import DomainError
from .smoothstep import SmoothstepPoly, build_smoothstep


@dataclass(frozen=True, eq=False)
class ModifiedOperator:
    """A combination scheme bound to per-degree blend geometry."""

    scheme: CombinationScheme
    weight: Weight
    step: SmoothstepPoly
    specs: tuple[BlendSpec, ...]

    def __post_init__(self):
        if self.step.r != self.scheme.r:
            raise DomainError("smoothstep order must equal the combination order")
        if len(self.specs) != self.scheme.r:
            raise DomainError("need one blend spec per ladder degree")
        for spec, n in zip(self.specs, self.scheme.nodes):
            if spec.r != self.scheme.r:
                raise DomainError("blend spec order must equal the combination order")
            if spec.weight is not self.weight and (
                spec.weight.xi != self.weight.xi or spec.weight.alpha != self.weight.alpha
            ):
                raise DomainError("all blend specs must share the operator weight")
            if spec.n != n:
                raise DomainError(
                    f"blend spec degree {spec.n} does not match ladder node {n}"
                )


def build_modified_operator(base_n: int, r: int, weight: Weight) -> ModifiedOperator:
    scheme = build_scheme(base_n, r)
    step = build_smoothstep(r)
    specs = tuple(build_blend_spec(n, r, weight) for n in scheme.nodes)
    return ModifiedOperator(scheme, weight, step, specs)


def blended_samples(op: ModifiedOperator, f: Callable) -> list[SampleVector]:
    """Blended-extension samples of f on each ladder degree's lattice."""
    out = []
    for n_i, spec in zip(op.scheme.nodes, op.specs):
        lattice = np.arange(n_i + 1) / n_i
        out.append(SampleVector(n_i, blend_eval(f, spec, op.step, lattice)))
    return out


def modified_operator(op: ModifiedOperator, f: Callable, x):
    """Apply the blended combination to f at scalar or array x."""
    return combine_samples(op.scheme, blended_samples(op, f), x)


def _lattice_forward_diffs(values: np.ndarray, order: int) -> np.ndarray:
    coeffs = [(-1) ** j * math.comb(order, j) for j in range(order + 1)]
    vals = values.tolist()
    m = len(vals) - order
    if m < 1:
        raise DomainError(f"degree too small for order-{order} lattice differences")
    out = np.empty(m)
    for k in range(m):
        out[k] = math.fsum(c * vals[k + order - j] for j, c in enumerate(coeffs))
    return out


def operator_derivative_2r(op: ModifiedOperator, f: Callable, x):
    """The 2r-th derivative of the blended combination at scalar or array x."""
    order = 2 * op.scheme.r
    if op.scheme.base_n <= order:
        raise DomainError(
            f"base degree {op.scheme.base_n} must exceed the derivative order {order}"
        )
    samples = blended_samples(op, f)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(xs.size)
    for c, n_i, sv in zip(op.scheme.coeffs.tolist(), op.scheme.nodes, samples):
        diffs = _lattice_forward_diffs(sv.values, order)
        factor = float(math.perm(n_i, order))
        out += c * factor * (basis_matrix(n_i - order, xs) * diffs).sum(axis=1)
    return _unwrap(x, out)
