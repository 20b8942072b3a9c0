"""Every numeric parameter of the public API is checked by one of two rules,
integer or finite real, with one message per rule naming the parameter and
the value; every mean over a count divides by one rule too."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradsketch._params import divide_by_count, integer, real
from gradsketch.cluster import partition_batch, run_training
from gradsketch.heavyhitters import heavymix, top_pk_candidates, topk_indices
from gradsketch.optim import OptimizerConfig, lr_at, lr_theory, rho_for
from gradsketch.problems import HingeSVMProblem, LogisticProblem, QuadraticProblem, split_dataset, synth_data
from gradsketch.sketch import SketchConfig, size_for, sketch_vector

_SKETCH = sketch_vector(SketchConfig(d=16, r=3, c=5, seed=0), np.arange(16.0) - 7.5)
_TRAIN, _TEST = split_dataset(synth_data(20, 3, 1.0, seed=0), 10)
_EMPIRICAL = OptimizerConfig(mode="empirical")
_QUADRATIC = QuadraticProblem(np.ones(3), 0.1, 4, 0)
_VANILLA = OptimizerConfig(mode="empirical", algorithm="vanilla", t_rounds=0)
_RUN = {"batch_size": 4, "data_seed": 0, "rng_seed": 0}

# (where, parameter name, a call passing the value as that parameter, a value out of range)
_INTEGERS = [
    ("OptimizerConfig", "k", lambda v: OptimizerConfig(mode="empirical", k=v), 0),
    ("OptimizerConfig", "p", lambda v: OptimizerConfig(mode="empirical", p=v), 0),
    ("OptimizerConfig", "t_rounds", lambda v: OptimizerConfig(mode="empirical", t_rounds=v), -1),
    ("OptimizerConfig", "w_workers", lambda v: OptimizerConfig(mode="empirical", w_workers=v), 0),
    ("OptimizerConfig", "bias_indices[1]", lambda v: OptimizerConfig(mode="empirical", bias_indices=(4, v)), -1),
    ("SketchConfig", "d", lambda v: SketchConfig(d=v, r=3, c=4, seed=0), 2**32 + 1),
    ("SketchConfig", "r", lambda v: SketchConfig(d=8, r=v, c=4, seed=0), 2**32),
    ("SketchConfig", "c", lambda v: SketchConfig(d=8, r=3, c=v, seed=0), 2**32),
    ("SketchConfig", "seed", lambda v: SketchConfig(d=8, r=3, c=4, seed=v), 2**64),
    ("size_for", "k", lambda v: size_for(v, 10, 0.1), 11),
    ("size_for", "d", lambda v: size_for(1, v, 0.1), 0),
    ("topk_indices", "k", lambda v: topk_indices(np.arange(6.0), v), 7),
    ("top_pk_candidates", "p", lambda v: top_pk_candidates(_SKETCH, v, 2), 0),
    ("top_pk_candidates", "k", lambda v: top_pk_candidates(_SKETCH, 2, v), 17),
    ("heavymix", "k", lambda v: heavymix(_SKETCH, v, 0), 0),
    ("lr_theory", "t", lambda v: lr_theory(v, 5.0), 0),
    ("lr_at", "t", lambda v: lr_at(v, _EMPIRICAL), 0),
    ("QuadraticProblem", "n_samples", lambda v: QuadraticProblem(np.ones(3), 0.1, v, 0), 0),
    ("QuadraticProblem", "seed", lambda v: QuadraticProblem(np.ones(3), 0.1, 2, v), 2**64),
    ("synth_data", "n", lambda v: synth_data(v, 3, 1.0, 0), 0),
    ("synth_data", "d", lambda v: synth_data(5, v, 1.0, 0), 0),
    ("synth_data", "seed", lambda v: synth_data(5, 3, 1.0, v), -1),
    *[("run_training", name, lambda v, name=name: run_training(_QUADRATIC, _VANILLA, None, **_RUN | {name: v}), bad)
      for name, bad in (("batch_size", 5), ("data_seed", -1), ("rng_seed", 2**64))],
    ("partition_batch", "w_workers", lambda v: partition_batch(np.arange(4), v), 0),
]
_REALS = [
    ("OptimizerConfig", "lr", lambda v: OptimizerConfig(mode="empirical", lr=v), 0.0),
    ("OptimizerConfig", "momentum", lambda v: OptimizerConfig(mode="empirical", momentum=v), 1.0),
    ("OptimizerConfig", "beta", lambda v: OptimizerConfig(mode="theory", xi=50.0, beta=v), 4.0),
    ("OptimizerConfig", "mu_scale", lambda v: OptimizerConfig(mode="theory", xi=50.0, mu_scale=v), 0.0),
    ("OptimizerConfig", "xi", lambda v: OptimizerConfig(mode="theory", xi=v), -1.0),
    ("OptimizerConfig", "lr_points[1] t", lambda v: OptimizerConfig(mode="empirical", lr_points=((1.0, 0.5), (v, 0.1))), 0.5),
    ("OptimizerConfig", "lr_points[0] lr", lambda v: OptimizerConfig(mode="empirical", lr_points=((1.0, v),)), 0.0),
    ("rho_for", "beta", rho_for, 4.0),
    ("size_for", "delta", lambda v: size_for(1, 10, v), 1.0),
    ("lr_theory", "xi", lambda v: lr_theory(1, v), 0.0),
    ("lr_theory", "mu_scale", lambda v: lr_theory(1, 5.0, v), -1.0),
    ("QuadraticProblem", "noise_sigma", lambda v: QuadraticProblem(np.ones(3), v, 2, 0), -0.1),
    ("synth_data", "class_separation", lambda v: synth_data(10, 3, v, 0), -1.0),
    ("LogisticProblem", "lam", lambda v: LogisticProblem(_TRAIN, _TEST, v), -0.5),
    ("HingeSVMProblem", "lam", lambda v: HingeSVMProblem(_TRAIN, _TEST, v), -0.5),
    ("CountSketch.scale", "alpha", _SKETCH.scale, None),  # every finite real is a scale factor
]
_CASES = [
    pytest.param(call, name, "an integer in \\[", value, id=f"{where}-{name}-{value!r}")
    for where, name, call, out_of_range in _INTEGERS
    for value in (True, 2.5, np.float64(2.0), out_of_range)
] + [
    pytest.param(call, name, "a finite real in [\\[(]", value, id=f"{where}-{name}-{value!r}")
    for where, name, call, out_of_range in _REALS
    for value in (True, math.nan, math.inf, out_of_range)
    if value is not None
]


@pytest.mark.parametrize("call, name, rule, value", _CASES)
def test_each_numeric_parameter_is_checked_where_it_enters(call, name, rule, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be {rule}.*, got {re.escape(repr(value))}$"):
        call(value)


def test_the_rules_return_python_numbers():
    assert type(integer("k", np.uint64(2**64 - 1), 0, 2**64 - 1)) is int
    assert type(real("lr", np.float32(0.5), "(0, 1]")) is float and real("lr", Fraction(1, 2)) == 0.5
    assert real("beta", 10**300) == 1e300


@pytest.mark.parametrize("value", [10**400, -(10**400), Fraction(10**400, 3)], ids=["huge", "-huge", "fraction"])
def test_a_real_past_the_float_range_is_not_finite(value):
    # such a value is a real, but float() of it would overflow
    with pytest.raises(ValueError, match="^alpha must be a finite real in"):
        real("alpha", value)


@pytest.mark.parametrize("interval, inside, outside", [
    ("[0, 1)", [0, 0.5], [1, -1e-300]),
    ("(0, 1]", [1, 1e-300], [0, 1.5]),
    ("(4, inf)", [4.5, 1e308], [4, -math.inf]),
])
def test_real_bounds_follow_their_brackets(interval, inside, outside):
    for value in inside:
        assert real("x", value, interval) == value
    for value in outside:
        with pytest.raises(ValueError, match=re.escape(f"x must be a finite real in {interval}, got {value!r}")):
            real("x", value, interval)


# float64 bit patterns: any at all; every subnormal and the lowest normal
# binades, whose quotients by the counts below underflow or round into the
# subnormals; signed zeros, infinities and the normal/subnormal boundary;
# and NaNs of either sign with any payload, quiet or signalling
_SIGN = 1 << 63
_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.tuples(st.booleans(), st.integers(0, 40 << 52)).map(lambda t: t[0] * _SIGN | t[1]),
    st.sampled_from([0, _SIGN, 0x7FF << 52, _SIGN | 0x7FF << 52, 1, 1 << 52, (1 << 52) - 1, _SIGN | 1]),
    st.tuples(st.booleans(), st.integers(1, 2**52 - 1)).map(lambda t: t[0] * _SIGN | 0x7FF << 52 | t[1]),
)
_COUNTS = [2**j for j in range(21)] + [3, 5, 6, 12]


@given(bits=st.lists(_BITS, max_size=64), n=st.sampled_from(_COUNTS))
def test_divide_by_count_has_the_bits_of_the_quotient(bits, n):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    with np.errstate(invalid="ignore"):  # a signalling NaN raises the invalid flag either way
        expected = values / n
        out = divide_by_count(values, n)
    assert out is values
    assert out.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
