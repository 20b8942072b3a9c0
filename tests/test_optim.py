"""Round-level tests for the sketched optimizers and their baselines."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsketch.cluster import MeteredChannel
from gradsketch.heavyhitters import KSparseVector, topk_indices
from gradsketch.optim import (
    ALGORITHMS,
    IterateAverage,
    OptimizerConfig,
    _accumulate,
    _apply,
    _union,
    empirical_round,
    local_topk_step,
    lr_at,
    lr_theory,
    make_states,
    min_xi,
    rho_for,
    theory_round,
    true_topk_step,
    vanilla_step,
)
from gradsketch.sketch import SketchConfig, sketch_vector
from oracles import dense


class TestSchedule:
    def test_lr_values(self):
        assert lr_theory(1, 3.0) == 0.25
        assert lr_theory(7, 3.0) == 0.1
        assert lr_theory(1, 3.0, mu_scale=2.0) == 0.125

    def test_lr_is_one_based(self):
        with pytest.raises(ValueError):
            lr_theory(0, 3.0)

    def test_lr_at_is_one_based_in_empirical_mode(self):
        with pytest.raises(ValueError, match=re.escape("t must be an integer in [1, inf], got 0")):
            lr_at(0, OptimizerConfig(mode="empirical"))

    def test_lr_theory_rejects_non_positive_mu_scale(self):
        with pytest.raises(ValueError, match=re.escape("mu_scale must be a finite real in (0, inf), got 0")):
            lr_theory(1, 10.0, mu_scale=0)

    def test_rho_value(self):
        assert rho_for(5.0) == pytest.approx(5.0 / 9.0)
        with pytest.raises(ValueError):
            rho_for(4.0)

    def test_min_xi_frozen_values(self):
        # 2 + d(1+beta) / (k(1+rho)) with rho(5) = 5/9
        assert min_xi(784, 10, 5.0) == pytest.approx(304.4)
        assert min_xi(4, 2, 5.0) == pytest.approx(2.0 + 4.0 * 6.0 / (2.0 * (14.0 / 9.0)))


class TestOptimizerConfig:
    def test_rejects_unknown_mode_and_algorithm(self):
        with pytest.raises(ValueError):
            OptimizerConfig(mode="mystery")
        with pytest.raises(ValueError):
            OptimizerConfig(mode="empirical", algorithm="magic")

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            OptimizerConfig(mode="empirical", k=0)
        with pytest.raises(ValueError):
            OptimizerConfig(mode="empirical", p=0)
        with pytest.raises(ValueError):
            OptimizerConfig(mode="empirical", w_workers=0)
        with pytest.raises(ValueError):
            OptimizerConfig(mode="empirical", momentum=1.0)

    def test_theory_mode_constraints(self):
        with pytest.raises(ValueError, match="momentum"):
            OptimizerConfig(mode="theory", xi=50.0, momentum=0.5)
        with pytest.raises(ValueError, match="xi"):
            OptimizerConfig(mode="theory")
        with pytest.raises(ValueError, match="xi"):
            OptimizerConfig(mode="theory", xi=-1.0)
        with pytest.raises(ValueError, match="bias"):
            OptimizerConfig(mode="theory", xi=50.0, bias_indices=(3,))
        # the schedule offset is required even for uncompressed baselines
        with pytest.raises(ValueError, match="xi"):
            OptimizerConfig(mode="theory", algorithm="vanilla")

    @pytest.mark.parametrize("mode", ["empirical", "theory"])
    @pytest.mark.parametrize("field", ["lr", "beta", "mu_scale", "xi"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_floats(self, mode, field, value):
        kwargs = {"mode": mode, "algorithm": "sketched", "xi": 50.0, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be a finite real in \(\d, inf\), got {value}$"):
            OptimizerConfig(**kwargs)

    @pytest.mark.parametrize("point, named", [((np.nan, 0.1), "t"), ((1.0, np.nan), "lr"), ((np.inf, 0.1), "t"),
                                              ((1.0, -np.inf), "lr")])
    def test_rejects_non_finite_lr_points(self, point, named):
        value = point[0] if named == "t" else point[1]
        with pytest.raises(ValueError, match=rf"^lr_points\[1\] {named} must be a finite real in .*, got {value}$"):
            OptimizerConfig(mode="empirical", lr_points=((1.0, 0.5), point))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"mu_scale": 0.0}, "mu_scale must be a finite real in (0, inf), got 0.0"),
            ({"mu_scale": -1.0}, "mu_scale must be a finite real in (0, inf), got -1.0"),
            ({"lr": 0.0}, "lr must be a finite real in (0, inf), got 0.0"),
            ({"lr": -0.5}, "lr must be a finite real in (0, inf), got -0.5"),
            ({"lr_points": ((0.5, 0.1),)}, "lr_points[0] t must be a finite real in [1, inf), got 0.5"),
            ({"lr_points": ((1.0, 0.0),)}, "lr_points[0] lr must be a finite real in (0, inf), got 0.0"),
            ({"lr_points": ((2.0, 0.1), (1.0, 0.1))}, "lr_points breakpoints must be strictly increasing in t"),
            ({"lr_points": ((1.0, 0.1), (1.0, 0.2))}, "lr_points breakpoints must be strictly increasing in t"),
            ({"t_rounds": -1}, "t_rounds must be an integer in [0, inf], got -1"),
        ],
        ids=["mu_scale-zero", "mu_scale-negative", "lr-zero", "lr-negative", "lr_points-t",
             "lr_points-lr", "lr_points-decreasing", "lr_points-repeated", "t_rounds"],
    )
    def test_rejects_out_of_range_values(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            OptimizerConfig(mode="empirical", **fields)

    def test_rejects_duplicate_bias(self):
        with pytest.raises(ValueError):
            OptimizerConfig(mode="empirical", bias_indices=(1, 1))

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"k": 2.5}, "k must be an integer in [1, inf], got 2.5"),
            ({"k": True}, "k must be an integer in [1, inf], got True"),
            ({"p": np.float64(2.0)}, "p must be an integer in [1, inf], got np.float64(2.0)"),
            ({"t_rounds": 3.0}, "t_rounds must be an integer in [0, inf], got 3.0"),
            ({"w_workers": 2.0}, "w_workers must be an integer in [1, inf], got 2.0"),
            ({"bias_indices": (1.5,)}, "bias_indices[0] must be an integer in [0, inf], got 1.5"),
            ({"bias_indices": (0, False)}, "bias_indices[1] must be an integer in [0, inf], got False"),
        ],
        ids=["k-float", "k-bool", "p-numpy-float", "t_rounds-float", "w_workers-float", "bias-float", "bias-bool"],
    )
    def test_rejects_non_integer_counts(self, fields, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            OptimizerConfig(mode="empirical", **fields)

    def test_accepts_numpy_integer_counts(self):
        cfg = OptimizerConfig(mode="empirical", k=np.int64(4), p=np.int32(2), t_rounds=np.uint8(3),
                              w_workers=np.int64(2), bias_indices=(np.int64(9), 1))
        assert (cfg.k, cfg.p, cfg.t_rounds, cfg.w_workers, cfg.bias_indices) == (4, 2, 3, 2, (1, 9))
        assert all(type(v) is int for v in (cfg.k, cfg.p, cfg.t_rounds, cfg.w_workers, *cfg.bias_indices))
        # kept as Python ints, so p * k cannot wrap (np.int8(10) * np.int8(100) overflows)
        OptimizerConfig(mode="empirical", k=np.int8(100), p=np.int8(10), bias_indices=(0,)).validate_for_dimension(5000)

    @pytest.mark.parametrize(
        "mode, algorithm, fields, unread",
        [
            # the run-matrix configs that set a field their run ignores
            ("empirical", "vanilla", {"momentum": 0.9}, "momentum"),
            ("empirical", "vanilla", {"bias_indices": (0, 1)}, "bias_indices"),
            ("empirical", "vanilla", {"momentum": 0.9, "bias_indices": (0, 1)}, "momentum"),
            *[("empirical", algorithm, {"momentum": momentum, "bias_indices": (0, 1)}, "bias_indices")
              for algorithm in ("true-topk", "local-topk") for momentum in (0.0, 0.9)],
            # the step-size fields of the other mode
            *[("theory", algorithm, {name: value}, name) for algorithm in ALGORITHMS
              for name, value in (("lr", 0.05), ("lr_points", ((1.0, 0.1),)))],
            *[("empirical", algorithm, {name: value}, name) for algorithm in ALGORITHMS
              for name, value in (("xi", 100.0), ("beta", 6.0), ("mu_scale", 0.5))],
            *[("theory", algorithm, {"beta": 6.0}, "beta") for algorithm in ("vanilla", "true-topk", "local-topk")],
        ],
    )
    def test_rejects_a_field_the_run_does_not_read(self, mode, algorithm, fields, unread):
        step = {"xi": 100.0} if mode == "theory" else {}
        with pytest.raises(ValueError, match=re.escape(f"{unread} is not read by {mode} {algorithm} runs")):
            OptimizerConfig(mode=mode, algorithm=algorithm, **step | fields)

    def test_sequence_fields_are_tuples_before_the_read_rule(self):
        # an empty list is the default () for a run that does not read it
        cfg = OptimizerConfig(mode="theory", xi=50.0, lr_points=[], bias_indices=[])
        assert cfg.lr_points == () and cfg.bias_indices == ()
        cfg = OptimizerConfig(mode="empirical", lr_points=[[1, 0.1], [5, 0.01]])
        assert cfg.lr_points == ((1, 0.1), (5, 0.01))
        assert hash(cfg) == hash(OptimizerConfig(mode="empirical", lr_points=((1, 0.1), (5, 0.01))))

    def test_dimension_checks(self):
        cfg = OptimizerConfig(mode="empirical", k=5)
        with pytest.raises(ValueError, match=re.escape("k must be an integer in [1, 4], got 5")):
            cfg.validate_for_dimension(4)
        cfg = OptimizerConfig(mode="empirical", k=1, bias_indices=(9, 0))  # kept sorted: (0, 9)
        with pytest.raises(ValueError, match=re.escape("bias_indices[1] must be an integer in [0, 7], got 9")):
            cfg.validate_for_dimension(8)
        # candidate budget after excluding bias must still cover k
        cfg = OptimizerConfig(mode="empirical", k=1, p=1, bias_indices=(0,))
        with pytest.raises(ValueError, match=re.escape("p = 1 gives a candidate budget of min(p * k, d) = 1, "
                                                       "fewer than k + len(bias_indices) = 2")):
            cfg.validate_for_dimension(8)

    def test_xi_lower_bound_applies_to_sketched_only(self):
        small = OptimizerConfig(mode="theory", algorithm="sketched", k=10, xi=300.0)
        with pytest.raises(ValueError, match="xi"):
            small.validate_for_dimension(784)  # bound is 304.4
        ok = OptimizerConfig(mode="theory", algorithm="sketched", k=10, xi=305.0)
        ok.validate_for_dimension(784)
        baseline = OptimizerConfig(mode="theory", algorithm="vanilla", k=10, xi=300.0)
        baseline.validate_for_dimension(784)

    @pytest.mark.parametrize("d, k, beta", [(784, 10, 5.0), (32, 4, 5.0), (4, 2, 6.5)])
    def test_xi_lower_bound_is_exclusive(self, d, k, beta):
        bound = min_xi(d, k, beta)
        at_bound = OptimizerConfig(mode="theory", k=k, beta=beta, xi=bound)
        with pytest.raises(ValueError, match=re.escape(f"xi must be a finite real in ({bound!r}, inf), got {bound!r}")):
            at_bound.validate_for_dimension(d)
        OptimizerConfig(mode="theory", k=k, beta=beta, xi=float(np.nextafter(bound, np.inf))).validate_for_dimension(d)


class TestMakeStates:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_every_replica_is_a_copy_of_the_start_point(self, n_workers):
        # the caller's array is never stepped, so one start point can seed
        # several state lists
        w0 = np.random.default_rng(n_workers).standard_normal(9)
        w0[2] = -0.0
        states = make_states(w0, n_workers)
        assert len(states) == n_workers
        for i, st in enumerate(states):
            assert st.w.tobytes() == w0.tobytes() and st.w.dtype == np.float64
            assert not any(np.shares_memory(st.w, other) for other in [w0] + [o.w for o in states[:i]])

    def test_a_start_point_that_is_not_float64_is_converted(self):
        states = make_states([1, 2, 3], 2)
        for st in states:
            assert st.w.dtype == np.float64 and st.w.tolist() == [1.0, 2.0, 3.0]
        assert not np.shares_memory(states[0].w, states[1].w)


class TestIterateAverage:
    def test_weighted_average_frozen(self):
        avg = IterateAverage(xi=3.0)
        avg.add(1, np.array([1.0]))
        avg.add(2, np.array([2.0]))
        # weights (3+1)^2 = 16 and (3+2)^2 = 25
        assert avg.finalize()[0] == pytest.approx((16.0 + 50.0) / 41.0)

    def test_empty_average_raises(self):
        with pytest.raises(ValueError):
            IterateAverage(xi=3.0).finalize()

    def test_in_place_sum_has_the_bits_of_a_fresh_sum(self):
        rng = np.random.default_rng(5)
        iterates = [rng.standard_normal(1000) * 10.0**e for e in (-3, 0, 5, 0, -8, 2)]
        kept = [w.copy() for w in iterates]
        avg = IterateAverage(xi=7.5)
        expected = None
        for t, w in enumerate(iterates, start=1):
            avg.add(t, w)
            q = (7.5 + t) ** 2
            expected = q * w if expected is None else expected + q * w
            assert avg.weighted_sum.tobytes() == expected.tobytes()
        assert all(np.array_equal(w, v) for w, v in zip(iterates, kept))
        assert avg.finalize().tobytes() == (expected / avg.total_weight).tobytes()


class TestTheoryRound:
    def _config(self, k, xi, workers):
        return OptimizerConfig(mode="theory", k=k, w_workers=workers, xi=xi)

    def test_closed_form_two_workers(self):
        # d=4, k=2, xi=10 (bound is 9.714...), eta = 1/11.  Worker gradients
        # [4,2,0,0] and [0,2,0,0] merge to mean [2,2,0,0]; both spikes clear
        # the heavy threshold, so the update is exactly eta*[2,2] on {0,1}
        # and the error accumulators keep each worker's deviation from the
        # mean.  All quantities are power-of-two scalings, so equality is
        # exact.
        cfg = self._config(k=2, xi=10.0, workers=2)
        cfg.validate_for_dimension(4)
        skc = SketchConfig(d=4, r=9, c=64, seed=0)
        states = make_states(np.zeros(4), 2)
        g1 = np.array([4.0, 2.0, 0.0, 0.0])
        g2 = np.array([0.0, 2.0, 0.0, 0.0])
        update = theory_round(states, [g1, g2], lr_theory(1, 10.0), cfg, skc, rng_seed=0, channel=MeteredChannel())
        eta = 1.0 / 11.0
        assert list(update.indices) == [0, 1]
        assert np.array_equal(update.values, np.array([2 * eta, 2 * eta]))
        for stt in states:
            assert np.array_equal(stt.w, np.array([-2 * eta, -2 * eta, 0.0, 0.0]))
        assert np.array_equal(states[0].accum, np.array([2 * eta, 0.0, 0.0, 0.0]))
        assert np.array_equal(states[1].accum, np.array([-2 * eta, 0.0, 0.0, 0.0]))

    def test_nothing_lost_over_many_rounds(self):
        # With one worker the error accumulator must equal the scaled
        # gradient mass that has not yet been applied: a_T = sum eta_t g_t -
        # sum update_t, up to float roundoff.
        d, k, xi = 32, 4, 40.0
        cfg = self._config(k=k, xi=xi, workers=1)
        cfg.validate_for_dimension(d)
        skc = SketchConfig(d=d, r=9, c=48, seed=3)
        states = make_states(np.zeros(d), 1)
        rng = np.random.default_rng(99)
        scaled_grads = np.zeros(d)
        applied = np.zeros(d)
        for t in range(1, 61):
            g = rng.standard_normal(d)
            update = theory_round(states, [g], lr_theory(t, xi), cfg, skc, rng_seed=1000 + t, channel=MeteredChannel())
            assert len(update) == k
            scaled_grads += lr_theory(t, xi) * g
            applied += dense(update)
        assert np.allclose(states[0].accum, scaled_grads - applied, rtol=0.0, atol=1e-12)
        assert np.allclose(states[0].w, -applied, rtol=0.0, atol=1e-12)

    def test_zero_gradients_change_nothing(self):
        cfg = self._config(k=2, xi=40.0, workers=2)
        cfg.validate_for_dimension(16)
        skc = SketchConfig(d=16, r=9, c=48, seed=5)
        states = make_states(np.ones(16), 2)
        zero = np.zeros(16)
        update = theory_round(states, [zero, zero], lr_theory(1, 40.0), cfg, skc, rng_seed=7, channel=MeteredChannel())
        assert len(update) == 2
        assert np.all(update.values == 0.0)
        for stt in states:
            assert np.array_equal(stt.w, np.ones(16))
            assert np.all(stt.accum == 0.0)

    def test_duplicating_a_worker_is_invisible(self):
        # Two workers fed identical gradients must reproduce the single
        # worker run bit for bit: the merge averages two equal sketches and
        # the exact lookups average two equal values.
        d, k, xi = 16, 3, 30.0
        skc = SketchConfig(d=d, r=9, c=48, seed=11)
        solo_cfg = self._config(k=k, xi=xi, workers=1)
        duo_cfg = self._config(k=k, xi=xi, workers=2)
        solo_cfg.validate_for_dimension(d)
        duo_cfg.validate_for_dimension(d)
        solo = make_states(np.zeros(d), 1)
        duo = make_states(np.zeros(d), 2)
        rng = np.random.default_rng(4)
        for t in range(1, 6):
            g = rng.standard_normal(d)
            u1 = theory_round(solo, [g], lr_theory(t, xi), solo_cfg, skc, rng_seed=t, channel=MeteredChannel())
            u2 = theory_round(duo, [g, g.copy()], lr_theory(t, xi), duo_cfg, skc, rng_seed=t, channel=MeteredChannel())
            assert np.array_equal(u1.indices, u2.indices)
            assert np.array_equal(u1.values, u2.values)
        assert np.array_equal(solo[0].w, duo[0].w)
        assert np.array_equal(duo[0].w, duo[1].w)


class TestEmpiricalRound:
    def test_two_round_hand_trace(self):
        # d=4, one worker, k=1, P=4 (candidates cover everything, so sketch
        # noise cannot perturb the trace), momentum 0.5, lr 0.1.
        cfg = OptimizerConfig(mode="empirical", k=1, p=4, w_workers=1, momentum=0.5)
        cfg.validate_for_dimension(4)
        skc = SketchConfig(d=4, r=5, c=32, seed=7)
        states = make_states(np.zeros(4), 1)

        u1 = empirical_round(
            states, [np.array([3.0, 1.0, 0.0, 0.0])], 0.1, cfg, skc, rng_seed=1, channel=MeteredChannel()
        )
        assert list(u1.indices) == [0] and u1.values[0] == 3.0
        assert np.array_equal(states[0].w, np.array([-(0.1 * 3.0), 0.0, 0.0, 0.0]))
        assert np.array_equal(states[0].momentum, np.array([0.0, 1.0, 0.0, 0.0]))
        assert np.array_equal(states[0].accum, np.array([0.0, 1.0, 0.0, 0.0]))

        u2 = empirical_round(
            states, [np.array([0.0, 1.0, 2.0, 0.0])], 0.1, cfg, skc, rng_seed=2, channel=MeteredChannel()
        )
        # momentum buffer becomes [0, 1.5, 2, 0]; accumulator [0, 2.5, 2, 0]
        assert list(u2.indices) == [1] and u2.values[0] == 2.5
        assert np.array_equal(states[0].w, np.array([-(0.1 * 3.0), -(0.1 * 2.5), 0.0, 0.0]))
        assert np.array_equal(states[0].accum, np.array([0.0, 0.0, 2.0, 0.0]))

    def test_matches_exact_topk_when_candidates_cover_everything(self):
        # With P*k >= d the candidate set is every coordinate regardless of
        # the sketch content, and the exact lookup restores the true mean
        # accumulator, so the round must equal the true top-k baseline bit
        # for bit, momentum included.
        d, k, workers = 24, 3, 2
        cfg = OptimizerConfig(mode="empirical", k=k, p=8, w_workers=workers, momentum=0.3)
        cfg.validate_for_dimension(d)
        skc = SketchConfig(d=d, r=5, c=64, seed=11)
        sketched = make_states(np.zeros(d), workers)
        exact = make_states(np.zeros(d), workers)
        rng = np.random.default_rng(1234)
        for t in range(10):
            grads = [rng.standard_normal(d) for _ in range(workers)]
            ue = empirical_round(sketched, grads, 0.05, cfg, skc, rng_seed=t, channel=MeteredChannel())
            ut = true_topk_step(exact, grads, 0.05, cfg, None, t, MeteredChannel())
            assert np.array_equal(ue.indices, ut.indices)
            assert np.array_equal(ue.values, ut.values)
        for se, sx in zip(sketched, exact):
            assert np.array_equal(se.w, sx.w)
            assert np.array_equal(se.accum, sx.accum)

    def test_bias_coordinates_ride_along_exactly(self):
        # Coordinate 5 is an uncompressed bias: it is zeroed before
        # sketching, excluded from the candidate list, and transmitted with
        # its exact accumulator value every round.
        cfg = OptimizerConfig(mode="empirical", k=1, p=2, w_workers=1, bias_indices=(5,))
        cfg.validate_for_dimension(6)
        skc = SketchConfig(d=6, r=7, c=32, seed=2)
        states = make_states(np.zeros(6), 1)

        g = np.array([0.0, 3.0, 0.0, 0.0, 1.0, 0.5])
        u1 = empirical_round(states, [g], 0.1, cfg, skc, rng_seed=1, channel=MeteredChannel())
        assert list(u1.indices) == [1, 5]
        assert np.array_equal(u1.values, np.array([3.0, 0.5]))
        assert states[0].w[5] == pytest.approx(-0.05)
        assert states[0].accum[4] == 1.0  # not nominated yet, kept for later

        u2 = empirical_round(states, [np.zeros(6)], 0.1, cfg, skc, rng_seed=2, channel=MeteredChannel())
        assert list(u2.indices) == [4, 5]
        assert np.array_equal(u2.values, np.array([1.0, 0.0]))
        assert np.all(states[0].accum == 0.0)

    def test_bias_coordinates_are_cleared_before_sketching(self):
        # every uploaded sketch is bit for bit that of its worker's gradient
        # with the bias entries zeroed
        class RecordingChannel(MeteredChannel):
            def __init__(self):
                super().__init__()
                self.tables = []

            def up_sketch(self, sketch, worker):
                self.tables.append(sketch.table.copy())
                return super().up_sketch(sketch, worker)

        d, workers, bias = 64, 3, [0, 17, 63]
        cfg = OptimizerConfig(mode="empirical", k=4, p=2, w_workers=workers, bias_indices=tuple(bias))
        cfg.validate_for_dimension(d)
        skc = SketchConfig(d=d, r=5, c=8, seed=6)
        rng = np.random.default_rng(6)
        grads = [rng.standard_normal(d) for _ in range(workers)]
        channel = RecordingChannel()
        empirical_round(make_states(np.zeros(d), workers), grads, 0.1, cfg, skc, rng_seed=0, channel=channel)
        assert len(channel.tables) == workers
        for table, g in zip(channel.tables, grads):
            cleared = g.copy()
            cleared[bias] = 0.0
            assert table.tobytes() == sketch_vector(skc, cleared).table.tobytes()

    def test_update_support_is_sorted_and_k_plus_bias(self):
        cfg = OptimizerConfig(mode="empirical", k=3, p=2, w_workers=2, bias_indices=(0, 7))
        cfg.validate_for_dimension(32)
        skc = SketchConfig(d=32, r=7, c=48, seed=9)
        states = make_states(np.zeros(32), 2)
        rng = np.random.default_rng(8)
        update = empirical_round(
            states, [rng.standard_normal(32), rng.standard_normal(32)], 0.1, cfg, skc, rng_seed=3,
            channel=MeteredChannel(),
        )
        assert len(update) == 5
        assert np.all(np.diff(update.indices) > 0)
        assert {0, 7} <= set(update.indices.tolist())

    def test_bias_round_copies_no_accumulator(self):
        # the bias coordinates are cleared in the live accumulators, so a
        # round's traced peak stays near one d-length buffer (1.20 x 8d);
        # copying the W = 4 accumulators first peaked at 5.20 x 8d
        d, workers = 1 << 16, 4
        cfg = OptimizerConfig(mode="empirical", k=50, p=4, w_workers=workers, bias_indices=(0, 7, 99))
        cfg.validate_for_dimension(d)
        skc = SketchConfig(d=d, r=5, c=600, seed=3)
        states = make_states(np.zeros(d), workers)
        rng = np.random.default_rng(5)
        grads = [rng.standard_normal(d) for _ in range(workers)]
        empirical_round(states, grads, 0.1, cfg, skc, rng_seed=0, channel=MeteredChannel())  # builds the family
        tracemalloc.start()
        try:
            empirical_round(states, grads, 0.1, cfg, skc, rng_seed=1, channel=MeteredChannel())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * d


def _baseline(algorithm, k=1):
    return OptimizerConfig(mode="empirical", algorithm=algorithm, k=k)


class TestBaselines:
    def test_vanilla_step_applies_mean_gradient(self):
        states = make_states(np.zeros(3), 2)
        g1 = np.array([2.0, 0.0, -4.0])
        g2 = np.array([0.0, 2.0, 0.0])
        mean = vanilla_step(states, [g1, g2], 0.5, _baseline("vanilla"), None, 0, MeteredChannel())
        assert list(mean.indices) == [0, 1, 2]
        assert np.array_equal(mean.values, np.array([1.0, 1.0, -2.0]))
        for stt in states:
            assert np.array_equal(stt.w, np.array([-0.5, -0.5, 1.0]))

    def test_true_topk_with_full_k_equals_vanilla(self):
        d, workers = 12, 3
        dense = make_states(np.zeros(d), workers)
        full = make_states(np.zeros(d), workers)
        rng = np.random.default_rng(21)
        for _ in range(5):
            grads = [rng.standard_normal(d) for _ in range(workers)]
            vanilla_step(dense, grads, 0.1, _baseline("vanilla"), None, 0, MeteredChannel())
            update = true_topk_step(full, grads, 0.1, _baseline("true-topk", k=d), None, 0, MeteredChannel())
            assert len(update) == d
        for a, b in zip(dense, full):
            assert np.array_equal(a.w, b.w)
        # zeroing the full support leaves nothing in the accumulators
        assert np.all(full[0].accum == 0.0)

    def test_true_topk_rejects_bad_k(self):
        states = make_states(np.zeros(4), 1)
        with pytest.raises(ValueError):
            true_topk_step(states, [np.ones(4)], 0.1, _baseline("true-topk", k=0), None, 0, MeteredChannel())
        with pytest.raises(ValueError):
            true_topk_step(states, [np.ones(4)], 0.1, _baseline("true-topk", k=5), None, 0, MeteredChannel())

    def test_local_topk_disjoint_blocks_union(self):
        states = make_states(np.zeros(8), 2)
        g1 = np.array([5.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        g2 = np.array([0.0, 0.0, 0.0, 0.0, 3.0, 2.0, 0.0, 0.0])
        update = local_topk_step(states, [g1, g2], 0.1, _baseline("local-topk", k=2), None, 0, MeteredChannel())
        assert len(update) == 4
        assert list(update.indices) == [0, 1, 4, 5]
        # contributions are averaged over all workers, senders or not
        assert np.array_equal(update.values, np.array([2.5, 2.0, 1.5, 1.0]))

    def test_local_topk_masks_only_own_support(self):
        states = make_states(np.zeros(8), 2)
        g1 = np.array([5.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        g2 = np.array([0.0, 0.0, 0.0, 0.0, 3.0, 2.0, 0.0, 0.0])
        local_topk_step(states, [g1, g2], 0.1, _baseline("local-topk", k=2), None, 0, MeteredChannel())
        assert np.all(states[0].accum[[0, 1]] == 0.0)
        assert np.all(states[1].accum[[4, 5]] == 0.0)
        # every worker still applies the full union update to its replica
        assert np.array_equal(states[0].w, states[1].w)

    def test_local_topk_keeps_cancelled_coordinates_in_union(self):
        states = make_states(np.zeros(4), 2)
        update = local_topk_step(
            states, [np.array([1.0, 0.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0, 0.0])], 0.1,
            _baseline("local-topk", k=1), None, 0, MeteredChannel(),
        )
        assert len(update) == 1
        assert list(update.indices) == [0]
        assert update.values[0] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(min_value=2, max_value=16),
        k=st.integers(min_value=1, max_value=16),
        workers=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_local_topk_union_bound(self, d, k, workers, seed):
        k = min(k, d)
        rng = np.random.default_rng(seed)
        states = make_states(np.zeros(d), workers)
        grads = [rng.standard_normal(d) for _ in range(workers)]
        update = local_topk_step(states, grads, 0.1, _baseline("local-topk", k=k), None, 0, MeteredChannel())
        assert k <= len(update) <= min(k * workers, d)
        ws = [stt.w for stt in states]
        for other in ws[1:]:
            assert np.array_equal(ws[0], other)


class TestUnion:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        workers=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=1, max_value=12),
        layout=st.sampled_from(["disjoint", "overlapping", "identical"]),
    )
    def test_matches_np_unique(self, data, workers, k, layout):
        # supports as topk_indices gives them: k distinct ascending intp indices
        if layout == "disjoint":
            d = data.draw(st.integers(min_value=k * workers, max_value=k * workers + 8))
            order = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(d)
            supports = [np.sort(order[i * k:(i + 1) * k]) for i in range(workers)]
        else:
            d = data.draw(st.integers(min_value=k, max_value=3 * k))  # includes k == d
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            supports = [np.sort(rng.choice(d, size=k, replace=False)) for _ in range(workers)]
            if layout == "identical":
                supports = [supports[0].copy() for _ in range(workers)]
        supports = [s.astype(np.intp) for s in supports]
        want = np.unique(np.concatenate(supports))
        got = _union(supports)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestMomentumFreeAccumulation:
    # Values whose sums land on exact zeros, so accumulators pass through
    # +0.0 and meet -0.0 gradients.
    _ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0, 1e-300, -1e-300])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 12), workers=st.integers(1, 4), rounds=st.integers(1, 6))
    def test_matches_a_zeroed_momentum_buffer(self, data, d, workers, rounds):
        # reference: the momentum recursion at factor 0, m *= 0; m += g;
        # accum += m, with the buffer masked like the accumulator
        states = make_states(np.zeros(d), workers)
        ref = [{"w": np.zeros(d), "m": np.zeros(d), "accum": np.zeros(d)} for _ in range(workers)]
        vectors = st.lists(self._ENTRIES, min_size=d, max_size=d).map(np.array)
        subsets = st.lists(st.integers(0, d - 1), max_size=d, unique=True).map(lambda ix: np.array(sorted(ix), dtype=np.int64))
        for _ in range(rounds):
            grads = [data.draw(vectors) for _ in range(workers)]
            support = data.draw(subsets)
            update = KSparseVector(d=d, indices=support, values=data.draw(vectors)[support])
            masks = [data.draw(subsets) for _ in range(workers)]
            _accumulate(states, grads, 0.0)
            _apply(states, update, 0.1, masks)
            for st_ref, g, mask in zip(ref, grads, masks):
                st_ref["m"] *= 0.0
                st_ref["m"] += g
                st_ref["accum"] += st_ref["m"]
                st_ref["w"][update.indices] -= 0.1 * update.values
                st_ref["m"][mask] = 0.0
                st_ref["accum"][mask] = 0.0
            for state, st_ref in zip(states, ref):
                assert state.momentum is None
                assert state.accum.tobytes() == st_ref["accum"].tobytes()
                assert state.w.tobytes() == st_ref["w"].tobytes()

    @pytest.mark.parametrize("algorithm", ["sketched", "true-topk", "local-topk"])
    @pytest.mark.parametrize("momentum", [0.0, 0.5])
    def test_buffer_allocated_only_above_zero(self, algorithm, momentum):
        d, workers = 16, 2
        cfg = OptimizerConfig(mode="empirical", algorithm=algorithm, k=2, p=2, w_workers=workers, momentum=momentum)
        round_fn = {"sketched": empirical_round, "true-topk": true_topk_step, "local-topk": local_topk_step}[algorithm]
        states = make_states(np.zeros(d), workers)
        rng = np.random.default_rng(5)
        for t in range(3):
            grads = [rng.standard_normal(d) for _ in range(workers)]
            round_fn(states, grads, 0.1, cfg, SketchConfig(d=d, r=3, c=8, seed=1), t, MeteredChannel())
        for state in states:
            assert (state.momentum is None) == (momentum == 0.0)


class TestSelectionHelpers:
    def test_topk_positions_used_by_empirical_keep(self):
        # keep-step contract: positions into the candidate list, ascending
        exact = np.array([0.5, -3.0, 2.0, -1.0])
        keep = topk_indices(exact, 2)
        assert list(keep) == [1, 2]
