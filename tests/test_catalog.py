"""Catalog keys, function construction, and class-membership checks."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from bernblend import (DEFAULT_KEYS, DomainError, FunctionSpec,
                       MembershipError, SampleError, Weight, evaluate,
                       make_function, make_grid, parse_spec)


def shell_maxima(spec, weight, grid):
    """max |w f| over the grid points within 0.04, 0.005 and 6.25e-4 of xi."""
    f = make_function(spec, weight)
    dist = np.abs(grid.points - weight.xi)
    shells = [grid.points[dist <= radius] for radius in (0.04, 0.005, 6.25e-4)]
    return [float(np.max(np.abs(weight(xs) * f(xs)))) for xs in shells]


def halves(tops):
    return all(cur < 0.5 * prev for prev, cur in zip(tops, tops[1:]))


class TestParse:
    def test_examples(self):
        spec = parse_spec("singular_power:beta=0.5")
        assert spec.kind == "singular_power"
        assert spec.params["beta"] == 0.5
        assert spec.is_singular and not spec.is_smooth

        spec = parse_spec("smooth_poly:coeffs=0;1;2")
        assert spec.params["coeffs"] == (0.0, 1.0, 2.0)
        assert spec.is_smooth

        spec = parse_spec("smooth_sin:freq=2")
        assert spec.params["freq"] == 2.0

        spec = parse_spec("singular_osc:beta=0.5,freq=3")
        assert spec.params["beta"] == 0.5
        assert spec.params["freq"] == 3.0

    def test_single_coefficient_promoted(self):
        assert parse_spec("smooth_poly:coeffs=7").params["coeffs"] == (7.0,)

    def test_default_frequency(self):
        assert parse_spec("smooth_sin").params["freq"] == 1.0
        assert parse_spec("singular_osc:beta=0.25").params["freq"] == 1.0

    def test_malformed(self):
        with pytest.raises(DomainError):
            parse_spec("no_such_kind:beta=1")
        with pytest.raises(DomainError):
            parse_spec("singular_power:beta")
        with pytest.raises(ValueError):
            parse_spec("singular_power:beta=abc")

    def test_repeated_parameter(self):
        key = "singular_power:beta=0.5,beta=0.6"
        with pytest.raises(DomainError, match=f"parameter beta given twice in key '{key}'"):
            parse_spec(key)

    @pytest.mark.parametrize("key, name, value", [
        ("smooth_poly:coeffs=1;;2", "coeffs", "1;;2"),
        ("singular_osc:beta=x", "beta", "x"),
        ("singular_osc:beta=0.5,freq=", "freq", ""),
    ])
    def test_non_numeric_value_named(self, key, name, value):
        with pytest.raises(DomainError) as info:
            parse_spec(key)
        assert str(info.value) == (f"parameter {name} takes numbers, got {value!r} "
                                   f"in key {key!r}")

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            FunctionSpec("smooth_sin", {"freq": -1.0})
        with pytest.raises(DomainError):
            FunctionSpec("smooth_poly", {"coeffs": ()})
        with pytest.raises(DomainError):
            FunctionSpec("singular_power", {})
        with pytest.raises(DomainError):
            FunctionSpec("singular_power", {"beta": -0.5})

    @pytest.mark.parametrize("key", [
        "smooth_sin:freq=1;2",
        "smooth_sin:bogus=3",
        "smooth_poly:coeffs=1,freq=2",
        "singular_power:beta=0.5,freq=1",
        "singular_osc:beta=0.5;0.25",
        "singular_osc:beta=0.5,freq=1;2",
        "smooth_sin:freq=inf",
        "smooth_sin:freq=nan",
        "singular_power:beta=inf",
        "singular_power:beta=nan",
        "singular_osc:beta=0.5,freq=nan",
        "smooth_poly:coeffs=0;inf",
        "smooth_poly:coeffs=nan",
    ])
    def test_rejected_parameters(self, key):
        # unknown names, lists for scalar parameters, non-finite values
        with pytest.raises(DomainError):
            parse_spec(key)

    def test_list_for_scalar_parameter_direct(self):
        with pytest.raises(DomainError):
            FunctionSpec("smooth_sin", {"freq": [1.0, 2.0]})
        with pytest.raises(DomainError):
            FunctionSpec("singular_power", {"beta": np.array([0.5, 0.25])})


class TestMakeFunction:
    def test_smooth_sin(self, weight513):
        f = make_function(parse_spec("smooth_sin:freq=1"), weight513)
        np.testing.assert_allclose(f(np.array([0.5, 0.0])), [1.0, 0.0], rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(
            f(np.array([0.25, 0.75])),
            [np.sin(np.pi * 0.25), np.sin(np.pi * 0.75)],
            rtol=1e-15,
        )

    def test_smooth_poly(self, weight513):
        f = make_function(parse_spec("smooth_poly:coeffs=1;0;2"), weight513)
        assert f(np.array([0.5]))[0] == pytest.approx(1.5, rel=1e-15)

    @pytest.mark.parametrize("coeffs", ["0;1", "1;0;2", "0.2;-1.0;0.5;0.3", "-0",
                                        "0;-0", "-0;0;-0", "1e308;1e308"])
    def test_smooth_poly_is_polyval(self, coeffs, weight513):
        # the values of numpy.polynomial's polyval, sign bits included
        spec = parse_spec(f"smooth_poly:coeffs={coeffs}")
        xs = np.concatenate((np.linspace(0.0, 1.0, 101), [5e-324, 1.0 - 2.0**-53]))
        with np.errstate(over="ignore", invalid="ignore"):
            got = make_function(spec, weight513)(xs)
            want = npoly.polyval(xs, np.array(spec.params["coeffs"]))
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_singular_power_values(self, weight513):
        # f(x) = |x - xi|^(-beta); at distance 0.01 with beta=0.5: 10
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        np.testing.assert_allclose(f(np.array([0.513 + 0.01, 0.513 - 0.01])), 10.0, rtol=1e-12)

    def test_singular_osc_formula(self, weight513):
        f = make_function(parse_spec("singular_osc:beta=0.5,freq=2"), weight513)
        d = 0.04
        want = d**-0.5 * np.sin(1.0 / d + 2.0)
        assert f(np.array([0.513 + d]))[0] == pytest.approx(want, rel=1e-12)

    def test_scalar_vs_array(self, weight513):
        # each point alone, as a one-element array, gives its array value
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        xs = np.array([0.1, 0.9])
        arr = f(xs)
        assert arr.dtype == float
        assert arr[0] == f(xs[:1])[0] and arr[1] == f(xs[1:])[0]

    def test_membership_enforced_at_build(self, weight513):
        with pytest.raises(MembershipError):
            make_function(parse_spec("singular_power:beta=1.5"), weight513)
        with pytest.raises(MembershipError):
            make_function(parse_spec("singular_power:beta=1.0"), weight513)

    def test_singularity_exclusion_zone(self, weight513):
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        with pytest.raises(SampleError) as exc:
            f(np.array([0.2, 0.513]))
        assert exc.value.x == 0.513
        with pytest.raises(SampleError):
            f(np.array([0.1, 0.513 + 1e-13]))
        # just outside the exclusion zone evaluation succeeds
        assert np.isfinite(f(np.array([0.513 + 1e-11]))).all()

    @pytest.mark.parametrize("key", ["smooth_sin:freq=1e308", "smooth_poly:coeffs=1e308;1e308",
                                     "singular_power:beta=500",
                                     "singular_osc:beta=500,freq=1"])
    def test_overflow_is_quiet(self, key):
        # a huge parameter makes f overflow: evaluate refuses the value with
        # no numpy warning (an error in this suite)
        f = make_function(parse_spec(key), Weight(0.513, 1000.0))
        with pytest.raises(SampleError, match="non-finite value of f"):
            evaluate(f, np.linspace(0.3, 0.9, 5))


class TestMembership:
    # the weighted function vanishes at xi: its max over shells shrinking by
    # 1/8 toward xi at least halves from shell to shell

    @pytest.mark.parametrize("key", DEFAULT_KEYS)
    def test_default_catalog_members(self, key, weight513, grid513):
        assert halves(shell_maxima(parse_spec(key), weight513, grid513))

    def test_marginal_exponent_rejected(self, weight513, grid513):
        # beta just below alpha: |w f| = |x - xi|^0.0001 barely shrinks
        spec = FunctionSpec("singular_power", {"beta": 0.9999})
        assert not halves(shell_maxima(spec, weight513, grid513))

    def test_beta_at_alpha_rejected(self, weight513, grid513):
        with pytest.raises(MembershipError):
            shell_maxima(FunctionSpec("singular_power", {"beta": 1.0}), weight513, grid513)

    def test_smooth_with_strong_weight(self):
        w = Weight(0.513, 2.0)
        assert halves(shell_maxima(parse_spec("smooth_sin:freq=1"), w, make_grid(w, 401)))
