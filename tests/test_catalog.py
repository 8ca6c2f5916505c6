"""Catalog keys, function construction, and class-membership checks."""

import numpy as np
import pytest

from bernblend import (DEFAULT_KEYS, DomainError, FunctionSpec,
                       MembershipError, SampleError, Weight, make_function,
                       make_grid, membership_check, parse_spec)


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
        assert f(0.5) == pytest.approx(1.0, rel=1e-15)
        assert f(0.0) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(
            f(np.array([0.25, 0.75])),
            [np.sin(np.pi * 0.25), np.sin(np.pi * 0.75)],
            rtol=1e-15,
        )

    def test_smooth_poly(self, weight513):
        f = make_function(parse_spec("smooth_poly:coeffs=1;0;2"), weight513)
        assert f(0.5) == pytest.approx(1.5, rel=1e-15)

    def test_singular_power_values(self, weight513):
        # f(x) = |x - xi|^(-beta); at distance 0.01 with beta=0.5: 10
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        assert f(0.513 + 0.01) == pytest.approx(10.0, rel=1e-12)
        assert f(0.513 - 0.01) == pytest.approx(10.0, rel=1e-12)

    def test_singular_osc_formula(self, weight513):
        f = make_function(parse_spec("singular_osc:beta=0.5,freq=2"), weight513)
        d = 0.04
        want = d**-0.5 * np.sin(1.0 / d + 2.0)
        assert f(0.513 + d) == pytest.approx(want, rel=1e-12)

    def test_scalar_vs_array(self, weight513):
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        xs = np.array([0.1, 0.9])
        arr = f(xs)
        assert isinstance(f(0.1), float)
        assert arr[0] == f(0.1) and arr[1] == f(0.9)

    def test_membership_enforced_at_build(self, weight513):
        with pytest.raises(MembershipError):
            make_function(parse_spec("singular_power:beta=1.5"), weight513)
        with pytest.raises(MembershipError):
            make_function(parse_spec("singular_power:beta=1.0"), weight513)

    def test_singularity_exclusion_zone(self, weight513):
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        with pytest.raises(SampleError) as exc:
            f(0.513)
        assert exc.value.x == 0.513
        with pytest.raises(SampleError):
            f(np.array([0.1, 0.513 + 1e-13]))
        # just outside the exclusion zone evaluation succeeds
        assert np.isfinite(f(0.513 + 1e-11))


class TestMembership:
    @pytest.mark.parametrize("key", DEFAULT_KEYS)
    def test_default_catalog_members(self, key, weight513, grid513):
        assert membership_check(parse_spec(key), weight513, grid513)

    def test_marginal_exponent_rejected(self, weight513, grid513):
        # beta just below alpha: shells shrink too slowly to halve
        spec = FunctionSpec("singular_power", {"beta": 0.9999})
        assert not membership_check(spec, weight513, grid513)

    def test_beta_at_alpha_rejected(self, weight513, grid513):
        assert not membership_check(
            FunctionSpec("singular_power", {"beta": 1.0}), weight513, grid513
        )

    def test_smooth_with_strong_weight(self, grid513):
        w = Weight(0.513, 2.0)
        grid = make_grid(w, 401)
        assert membership_check(parse_spec("smooth_sin:freq=1"), w, grid)
