import math

import numpy as np
import pytest

from rssloc import (aggregate, evaluate_scenario, far_mdr, mle,
                    optimal_assignment, ospa)

from oracles import brute_force_assignment_cost, brute_force_ospa


def random_points(rng, n, scale=40.0):
    return [tuple(p) for p in rng.random((n, 2)) * scale]


class TestAssignment:
    def test_identity(self):
        pts = [(1.0, 2.0), (5.0, 5.0), (9.0, 1.0)]
        m = optimal_assignment(pts, pts)
        assert m.pairs == [(0, 0), (1, 1), (2, 2)]
        assert m.unmatched_pred == [] and m.unmatched_true == []

    def test_crossing_pair(self):
        pred = [(0.0, 0.0), (10.0, 0.0)]
        true = [(9.0, 0.0), (1.0, 0.0)]
        m = optimal_assignment(pred, true)
        assert m.pairs == [(0, 1), (1, 0)]

    def test_empty_sets(self):
        m = optimal_assignment([], [(1.0, 1.0)])
        assert m.pairs == [] and m.unmatched_true == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            pred = random_points(rng, int(rng.integers(0, 6)))
            true = random_points(rng, int(rng.integers(0, 6)))
            m = optimal_assignment(pred, true)
            got = sum(min(math.inf, math.hypot(pred[i][0] - true[j][0],
                                               pred[i][1] - true[j][1])) ** 2
                      for i, j in m.pairs)
            assert got == pytest.approx(
                brute_force_assignment_cost(pred, true), abs=1e-9)
            assert len(m.pairs) == min(len(pred), len(true))

    def test_more_predictions_than_truths(self):
        pred = [(30.0, 0.0), (9.0, 0.0), (0.0, 30.0), (1.0, 0.0)]
        true = [(0.0, 0.0), (10.0, 0.0)]
        m = optimal_assignment(pred, true)
        assert m.pairs == [(1, 1), (3, 0)]  # in prediction order
        assert m.unmatched_pred == [0, 2] and m.unmatched_true == []

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            optimal_assignment([(0.0, 0.0)], [(0.0, 0.0)], cutoff=0.0)


class TestMle:
    def test_three_four_five(self):
        assert mle([(3.0, 4.0)], [(0.0, 0.0)]) == pytest.approx(5.0)

    def test_perfect(self):
        pts = [(2.0, 2.0), (8.0, 8.0)]
        assert mle(pts, pts) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(22)
        pred = random_points(rng, 5)
        true = random_points(rng, 5)
        base = mle(pred, true)
        for _ in range(10):
            p = list(rng.permutation(5))
            t = list(rng.permutation(5))
            assert mle([pred[i] for i in p], [true[j] for j in t]) == \
                pytest.approx(base, abs=1e-9)

    def test_absent_when_no_pairs(self):
        assert mle([], [(1.0, 1.0)]) is None


class TestFarMdr:
    def test_over_prediction(self):
        assert far_mdr(6, 5) == (pytest.approx(1 / 6), 0.0)

    def test_under_prediction(self):
        far, mdr = far_mdr(4, 5)
        assert far == 0.0
        assert mdr == pytest.approx(0.2)

    def test_exact_count_is_ideal(self):
        assert far_mdr(5, 5) == (0.0, 0.0)

    def test_zero_predictions(self):
        assert far_mdr(0, 3) == (0.0, 1.0)

    def test_at_most_one_nonzero(self):
        for m_hat in range(0, 9):
            for m in range(1, 9):
                far, mdr = far_mdr(m_hat, m)
                assert far == 0.0 or mdr == 0.0

    def test_requires_sources(self):
        with pytest.raises(ValueError):
            far_mdr(1, 0)


class TestOspa:
    def test_identical_sets(self):
        pts = [(1.0, 1.0), (5.0, 9.0)]
        assert ospa(pts, pts) == 0.0

    def test_hand_case(self):
        val = ospa([(0.0, 0.0)], [(0.0, 0.0), (10.0, 10.0)], g=20.0)
        assert val == pytest.approx(14.1421, abs=1e-4)

    def test_cutoff_saturates(self):
        assert ospa([(0.0, 0.0)], [(50.0, 0.0)], g=20.0) == 20.0

    def test_empty_conventions(self):
        assert ospa([], [], g=20.0) == 0.0
        assert ospa([], [(1.0, 1.0)], g=20.0) == 20.0
        assert ospa([(1.0, 1.0)], [], g=20.0) == 20.0

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = random_points(rng, int(rng.integers(0, 5)))
            b = random_points(rng, int(rng.integers(0, 5)))
            assert ospa(a, b) == pytest.approx(ospa(b, a), abs=1e-12)

    def test_bounded_by_g(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            a = random_points(rng, int(rng.integers(0, 6)), scale=100)
            b = random_points(rng, int(rng.integers(0, 6)), scale=100)
            assert ospa(a, b) <= 20.0 + 1e-12

    def test_cardinality_only_error(self):
        # all matched distances zero: ospa = g sqrt((n-m)/n)
        pts = [(3.0, 3.0), (7.0, 7.0)]
        val = ospa(pts + [(30.0, 30.0)], pts, g=20.0)
        assert val == pytest.approx(20.0 * math.sqrt(1 / 3), abs=1e-9)

    def test_triangle_inequality_equal_sizes(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a = random_points(rng, n)
            b = random_points(rng, n)
            c = random_points(rng, n)
            assert ospa(a, c) <= ospa(a, b) + ospa(b, c) + 1e-9

    def test_matches_brute_force(self):
        rng = np.random.default_rng(26)
        for _ in range(60):
            a = random_points(rng, int(rng.integers(0, 6)))
            b = random_points(rng, int(rng.integers(0, 6)))
            assert ospa(a, b) == pytest.approx(brute_force_ospa(a, b, 20.0),
                                               abs=1e-9)


class TestAggregateReports:
    def test_single_report_identity(self):
        ev = evaluate_scenario([(1.0, 1.0)], [(1.5, 1.0)])
        agg = aggregate([ev])
        assert agg.mle == pytest.approx(0.5)
        assert agg.far == ev.far and agg.mdr == ev.mdr
        assert agg.ospa == pytest.approx(ev.ospa)

    def test_micro_far(self):
        a = evaluate_scenario(random_points(np.random.default_rng(1), 6),
                              random_points(np.random.default_rng(2), 5))
        b = evaluate_scenario(random_points(np.random.default_rng(3), 5),
                              random_points(np.random.default_rng(4), 5))
        agg = aggregate([a, b])
        assert agg.far == pytest.approx(1 / 11)
        assert agg.total_pred == 11 and agg.total_true == 10

    def test_macro_differs_from_micro_on_unbalanced(self):
        a = evaluate_scenario(random_points(np.random.default_rng(5), 2),
                              random_points(np.random.default_rng(6), 1))
        b = evaluate_scenario(random_points(np.random.default_rng(7), 10),
                              random_points(np.random.default_rng(8), 10))
        agg = aggregate([a, b])
        assert agg.far == pytest.approx(1 / 12)          # micro
        assert agg.far_macro == pytest.approx(0.25)      # mean of 1/2 and 0
        assert agg.far != agg.far_macro

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            aggregate([])
