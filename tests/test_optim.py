"""Round-level tests for the sketched optimizers and their baselines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsketch.heavyhitters import KSparseVector, topk_indices
from gradsketch.optim import (
    IterateAverage,
    OptimizerConfig,
    _accumulate,
    _apply,
    empirical_round,
    local_topk_step,
    lr_theory,
    make_states,
    min_xi,
    rho_for,
    theory_round,
    true_topk_step,
    vanilla_step,
)
from gradsketch.sketch import SketchConfig


class TestSchedule:
    def test_lr_values(self):
        assert lr_theory(1, 3.0) == 0.25
        assert lr_theory(7, 3.0) == 0.1
        assert lr_theory(1, 3.0, mu_scale=2.0) == 0.125

    def test_lr_is_one_based(self):
        with pytest.raises(ValueError):
            lr_theory(0, 3.0)

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

    def test_rejects_duplicate_bias(self):
        with pytest.raises(ValueError):
            OptimizerConfig(mode="empirical", bias_indices=(1, 1))

    def test_dimension_checks(self):
        cfg = OptimizerConfig(mode="empirical", k=5)
        with pytest.raises(ValueError):
            cfg.validate_for_dimension(4)
        cfg = OptimizerConfig(mode="empirical", k=1, bias_indices=(9,))
        with pytest.raises(ValueError):
            cfg.validate_for_dimension(8)
        # candidate budget after excluding bias must still cover k
        cfg = OptimizerConfig(mode="empirical", k=1, p=1, bias_indices=(0,))
        with pytest.raises(ValueError, match="budget"):
            cfg.validate_for_dimension(8)

    def test_xi_lower_bound_applies_to_sketched_only(self):
        small = OptimizerConfig(mode="theory", algorithm="sketched", k=10, xi=300.0)
        with pytest.raises(ValueError, match="xi"):
            small.validate_for_dimension(784)  # bound is 304.4
        ok = OptimizerConfig(mode="theory", algorithm="sketched", k=10, xi=305.0)
        ok.validate_for_dimension(784)
        baseline = OptimizerConfig(mode="theory", algorithm="vanilla", k=10, xi=300.0)
        baseline.validate_for_dimension(784)


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
        update = theory_round(states, [g1, g2], lr_theory(1, 10.0), cfg, skc, rng_seed=0)
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
            update = theory_round(states, [g], lr_theory(t, xi), cfg, skc, rng_seed=1000 + t)
            assert len(update) == k
            scaled_grads += lr_theory(t, xi) * g
            applied += update.to_dense()
        assert np.allclose(states[0].accum, scaled_grads - applied, rtol=0.0, atol=1e-12)
        assert np.allclose(states[0].w, -applied, rtol=0.0, atol=1e-12)

    def test_zero_gradients_change_nothing(self):
        cfg = self._config(k=2, xi=40.0, workers=2)
        cfg.validate_for_dimension(16)
        skc = SketchConfig(d=16, r=9, c=48, seed=5)
        states = make_states(np.ones(16), 2)
        zero = np.zeros(16)
        update = theory_round(states, [zero, zero], lr_theory(1, 40.0), cfg, skc, rng_seed=7)
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
            u1 = theory_round(solo, [g], lr_theory(t, xi), solo_cfg, skc, rng_seed=t)
            u2 = theory_round(duo, [g, g.copy()], lr_theory(t, xi), duo_cfg, skc, rng_seed=t)
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

        u1 = empirical_round(states, [np.array([3.0, 1.0, 0.0, 0.0])], 0.1, cfg, skc, rng_seed=1)
        assert list(u1.indices) == [0] and u1.values[0] == 3.0
        assert np.array_equal(states[0].w, np.array([-(0.1 * 3.0), 0.0, 0.0, 0.0]))
        assert np.array_equal(states[0].momentum, np.array([0.0, 1.0, 0.0, 0.0]))
        assert np.array_equal(states[0].accum, np.array([0.0, 1.0, 0.0, 0.0]))

        u2 = empirical_round(states, [np.array([0.0, 1.0, 2.0, 0.0])], 0.1, cfg, skc, rng_seed=2)
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
            ue = empirical_round(sketched, grads, 0.05, cfg, skc, rng_seed=t)
            ut = true_topk_step(exact, grads, 0.05, cfg, None, t)
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
        u1 = empirical_round(states, [g], 0.1, cfg, skc, rng_seed=1)
        assert list(u1.indices) == [1, 5]
        assert np.array_equal(u1.values, np.array([3.0, 0.5]))
        assert states[0].w[5] == pytest.approx(-0.05)
        assert states[0].accum[4] == 1.0  # not nominated yet, kept for later

        u2 = empirical_round(states, [np.zeros(6)], 0.1, cfg, skc, rng_seed=2)
        assert list(u2.indices) == [4, 5]
        assert np.array_equal(u2.values, np.array([1.0, 0.0]))
        assert np.all(states[0].accum == 0.0)

    def test_update_support_is_sorted_and_k_plus_bias(self):
        cfg = OptimizerConfig(mode="empirical", k=3, p=2, w_workers=2, bias_indices=(0, 7))
        cfg.validate_for_dimension(32)
        skc = SketchConfig(d=32, r=7, c=48, seed=9)
        states = make_states(np.zeros(32), 2)
        rng = np.random.default_rng(8)
        update = empirical_round(
            states, [rng.standard_normal(32), rng.standard_normal(32)], 0.1, cfg, skc, rng_seed=3
        )
        assert len(update) == 5
        assert np.all(np.diff(update.indices) > 0)
        assert {0, 7} <= set(update.indices.tolist())


def _baseline(algorithm, k=1):
    return OptimizerConfig(mode="empirical", algorithm=algorithm, k=k)


class TestBaselines:
    def test_vanilla_step_applies_mean_gradient(self):
        states = make_states(np.zeros(3), 2)
        g1 = np.array([2.0, 0.0, -4.0])
        g2 = np.array([0.0, 2.0, 0.0])
        mean = vanilla_step(states, [g1, g2], 0.5, _baseline("vanilla"), None, 0)
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
            vanilla_step(dense, grads, 0.1, _baseline("vanilla"), None, 0)
            update = true_topk_step(full, grads, 0.1, _baseline("true-topk", k=d), None, 0)
            assert len(update) == d
        for a, b in zip(dense, full):
            assert np.array_equal(a.w, b.w)
        # zeroing the full support leaves nothing in the accumulators
        assert np.all(full[0].accum == 0.0)

    def test_true_topk_rejects_bad_k(self):
        states = make_states(np.zeros(4), 1)
        with pytest.raises(ValueError):
            true_topk_step(states, [np.ones(4)], 0.1, _baseline("true-topk", k=0), None, 0)
        with pytest.raises(ValueError):
            true_topk_step(states, [np.ones(4)], 0.1, _baseline("true-topk", k=5), None, 0)

    def test_local_topk_disjoint_blocks_union(self):
        states = make_states(np.zeros(8), 2)
        g1 = np.array([5.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        g2 = np.array([0.0, 0.0, 0.0, 0.0, 3.0, 2.0, 0.0, 0.0])
        update = local_topk_step(states, [g1, g2], 0.1, _baseline("local-topk", k=2), None, 0)
        assert len(update) == 4
        assert list(update.indices) == [0, 1, 4, 5]
        # contributions are averaged over all workers, senders or not
        assert np.array_equal(update.values, np.array([2.5, 2.0, 1.5, 1.0]))

    def test_local_topk_masks_only_own_support(self):
        states = make_states(np.zeros(8), 2)
        g1 = np.array([5.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        g2 = np.array([0.0, 0.0, 0.0, 0.0, 3.0, 2.0, 0.0, 0.0])
        local_topk_step(states, [g1, g2], 0.1, _baseline("local-topk", k=2), None, 0)
        assert np.all(states[0].accum[[0, 1]] == 0.0)
        assert np.all(states[1].accum[[4, 5]] == 0.0)
        # every worker still applies the full union update to its replica
        assert np.array_equal(states[0].w, states[1].w)

    def test_local_topk_keeps_cancelled_coordinates_in_union(self):
        states = make_states(np.zeros(4), 2)
        update = local_topk_step(
            states, [np.array([1.0, 0.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0, 0.0])], 0.1,
            _baseline("local-topk", k=1), None, 0,
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
        update = local_topk_step(states, grads, 0.1, _baseline("local-topk", k=k), None, 0)
        assert k <= len(update) <= min(k * workers, d)
        ws = [stt.w for stt in states]
        for other in ws[1:]:
            assert np.array_equal(ws[0], other)


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
            round_fn(states, [rng.standard_normal(d) for _ in range(workers)], 0.1, cfg, SketchConfig(d=d, r=3, c=8, seed=1), t)
        for state in states:
            assert (state.momentum is None) == (momentum == 0.0)


class TestSelectionHelpers:
    def test_topk_positions_used_by_empirical_keep(self):
        # keep-step contract: positions into the candidate list, ascending
        exact = np.array([0.5, -3.0, 2.0, -1.0])
        keep = topk_indices(exact, 2)
        assert list(keep) == [1, 2]
