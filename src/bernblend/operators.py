"""The blended combination operator and its 2r-th derivative.

The operator applies a moment-killing Bernstein combination not to f
itself but to its blended extension around the weight center, one
extension per ladder degree.  Everything it needs follows from (base_n, r,
weight): the scheme from (base_n, r), and each degree's blend spec, its
smoothstep included, from (degree, r, weight).

The 2r-th derivative is an ordinary Bernstein apply, by the classical
identity (Lorentz, Bernstein Polynomials, 1953)

    B_n^{(m)}(g, x) = B_{n-m}(h, x),   h_k = n!/(n-m)! * dm_k,

where dm_k is the m-th forward lattice difference of the samples with
step 1/n.  ``lattice_derivative`` builds h: the alternating differences
summed with a compensated (TwoSum) cascade, times the falling factorial
n!/(n-m)! rounded once to a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import SampleVector, _compensated_sum, bernstein_apply_grid
# kept as a module attribute: perfbench/sweeps.py wraps it here to trace calls
from .basis import basis_matrix  # noqa: F401
from .blend import BlendSpec, Weight, blend_eval
from .combination import (CombinationScheme, build_scheme, combine_applied,
                          combine_samples)


@dataclass(frozen=True, eq=False)
class ModifiedOperator:
    """A scheme with, in ladder order, each degree's blend spec for
    ``weight`` in ``specs``."""

    scheme: CombinationScheme
    weight: Weight
    specs: tuple[BlendSpec, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(BlendSpec(n, self.scheme.r, self.weight)
                                                for n in self.scheme.nodes))


def build_modified_operator(base_n: int, r: int, weight: Weight) -> ModifiedOperator:
    return ModifiedOperator(build_scheme(base_n, r), weight)


def blended_samples(op: ModifiedOperator, f: Callable) -> list[SampleVector]:
    """Blended-extension samples of f on each ladder degree's lattice."""
    return [SampleVector(spec.n, blend_eval(f, spec, np.arange(spec.n + 1) / spec.n))
            for spec in op.specs]


def modified_operator(op: ModifiedOperator, f: Callable, xs: np.ndarray) -> np.ndarray:
    """Apply the blended combination to f on the 1-d array ``xs``."""
    return combine_samples(op.scheme, blended_samples(op, f), xs)


def lattice_derivative(sv: SampleVector, order: int) -> SampleVector:
    """Samples of degree n - order whose Bernstein apply is B_n^{(order)}:
    n!/(n-order)! times the order-th forward lattice differences of ``sv``."""
    # no differences for n < order; SampleVector then refuses the degree
    m = max(sv.n + 1 - order, 0)
    # dm_k = sum_j (-1)^j C(order, j) values[k + order - j], for all k at once, one j
    # at a time into the cascade
    terms = ((-1) ** j * math.comb(order, j) * sv.values[order - j:order - j + m]
             for j in range(order + 1))
    return SampleVector(sv.n - order, float(math.perm(sv.n, order)) * _compensated_sum(terms))


def operator_derivative_2r(op: ModifiedOperator, f: Callable, xs: np.ndarray):
    """The 2r-th derivative of the blended combination on the 1-d array ``xs``."""
    order = 2 * op.scheme.r
    applied = {sv.n: bernstein_apply_grid(lattice_derivative(sv, order), xs)
               for sv in blended_samples(op, f)}
    return combine_applied(op.scheme, applied)
