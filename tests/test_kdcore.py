import math
import tracemalloc

import numpy as np
import pytest

from tabdistill.errors import DataError
from tabdistill.kdcore import (
    _GRADIENT_BLOCK,
    KDInstance,
    _resampled_loss_stats,
    ce_gradient,
    check_gradient_unbiasedness,
    draw_classes,
    kd_loss,
    mixed_targets,
    random_instance,
    softmax_probs,
    verify_gradient_unbiasedness,
    weighted_loss,
)
from tabdistill.metrics import clamp_prob


def scalar_ce(q, p):
    """Independent scalar oracle for -sum q_j log p_j."""
    return -sum(qj * math.log(pj) for qj, pj in zip(q, p))


def _one_row(teacher, student, label=1, alpha=1.0):
    return KDInstance(teacher=np.array([teacher]), student=np.array([student]),
                      labels=np.array([label]), alpha=alpha)


class TestCrossEntropy:
    """At alpha = 1, kd_loss of one row is CE(q, p) = -sum_j q_j log p_j."""

    def test_one_hot_reduces_to_neg_log(self):
        assert kd_loss(_one_row([1.0, 0.0], [0.5, 0.5])) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_uniform_self_entropy(self):
        u = np.full(4, 0.25)
        assert kd_loss(_one_row(u, u)) == pytest.approx(math.log(4), abs=1e-12)

    def test_worked_example(self):
        # two rows sum their cross-entropies
        inst = KDInstance(teacher=np.array([[0.2, 0.8], [0.6, 0.4]]),
                          student=np.array([[0.3, 0.7], [0.5, 0.5]]),
                          labels=np.array([1, 2]), alpha=1.0)
        expected = scalar_ce([0.2, 0.8], [0.3, 0.7])
        assert kd_loss(inst) == pytest.approx(
            expected + scalar_ce([0.6, 0.4], [0.5, 0.5]), abs=1e-12)
        assert expected == pytest.approx(0.526135, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            _one_row([0.5, 0.5], [0.4, 0.3, 0.3])

    def test_zero_probability_is_clamped_finite(self):
        assert np.isfinite(kd_loss(_one_row([0.5, 0.5], [1.0, 0.0])))


class TestMixedTarget:
    def test_worked_example(self):
        out = mixed_targets(_one_row([0.2, 0.8], [0.5, 0.5], label=2, alpha=0.5))
        np.testing.assert_allclose(out, [[0.1, 0.9]])

    def test_alpha_zero_is_one_hot(self):
        out = mixed_targets(_one_row([0.3, 0.7], [0.5, 0.5], label=1, alpha=0.0))
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_alpha_one_is_teacher(self):
        q = np.array([0.3, 0.7])
        out = mixed_targets(_one_row(q, [0.5, 0.5], label=1, alpha=1.0))
        np.testing.assert_array_equal(out, [q])

    def test_always_valid_distribution(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            q = rng.dirichlet(np.ones(k))
            out = mixed_targets(_one_row(q, q, int(rng.integers(1, k + 1)),
                                         float(rng.random())))
            assert (out >= 0).all()
            assert abs(out.sum() - 1.0) <= 1e-12

    def test_binary_case_matches_weight_pair_formula(self):
        # with class 1 = positive, the k=2 mix reproduces the weight pair
        # (beta*f + (1-beta)*y, beta*(1-f) + (1-beta)*(1-y))
        rng = np.random.default_rng(2)
        for _ in range(100):
            f = float(rng.random())
            beta = float(rng.random())
            y = int(rng.integers(0, 2))
            out = mixed_targets(_one_row([f, 1.0 - f], [0.5, 0.5],
                                         1 if y == 1 else 2, beta))[0]
            w_pos = beta * f + (1 - beta) * y
            w_neg = beta * (1 - f) + (1 - beta) * (1 - y)
            assert out[0] == pytest.approx(w_pos, abs=1e-15)
            assert out[1] == pytest.approx(w_neg, abs=1e-15)


def _n1_instance(alpha=0.5):
    return KDInstance(teacher=np.array([[0.2, 0.8]]),
                      student=np.array([[0.3, 0.7]]),
                      labels=np.array([2]), alpha=alpha)


class TestKdLoss:
    def test_alpha_zero_is_hard_label_ce(self):
        inst = _n1_instance(alpha=0.0)
        assert kd_loss(inst) == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_alpha_one_is_teacher_matching(self):
        inst = _n1_instance(alpha=1.0)
        assert kd_loss(inst) == pytest.approx(scalar_ce([0.2, 0.8], [0.3, 0.7]),
                                              abs=1e-12)

    def test_worked_example(self):
        expected = 0.5 * scalar_ce([0.2, 0.8], [0.3, 0.7]) + 0.5 * (-math.log(0.7))
        assert kd_loss(_n1_instance()) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.441405, abs=1e-6)


class TestWeightedLossIdentity:
    def test_equals_kd_loss_on_worked_example(self):
        assert weighted_loss(_n1_instance()) == pytest.approx(0.441405, abs=1e-6)

    def test_alpha_zero_reduces_to_label_ce(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, n=20, k=4, alpha=0.0)
        expected = -np.log(np.clip(
            inst.student[np.arange(20), inst.labels - 1], 1e-12, 1 - 1e-12)).sum()
        assert weighted_loss(inst) == pytest.approx(expected, rel=1e-12)


class TestSampleLabels:
    """Labels are drawn from each row's mixed target q'_i with draw_classes
    (0-based classes)."""

    def test_degenerate_one_hot(self):
        inst = KDInstance(teacher=np.array([[0.0, 0.0, 1.0]] * 5),
                          student=np.tile([0.2, 0.3, 0.5], (5, 1)),
                          labels=np.array([3] * 5), alpha=1.0)
        z = draw_classes(mixed_targets(inst), np.random.default_rng(0).random(5))
        np.testing.assert_array_equal(z, [2, 2, 2, 2, 2])

    def test_frequencies_converge(self):
        n = 100_000
        inst = KDInstance(teacher=np.tile([0.5, 0.5], (n, 1)),
                          student=np.tile([0.5, 0.5], (n, 1)),
                          labels=np.ones(n, dtype=int), alpha=1.0)
        z = draw_classes(mixed_targets(inst), np.random.default_rng(1).random(n))
        freq = (z == 0).mean()
        assert abs(freq - 0.5) < 0.01  # 3 sigma is about 0.0047

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, n=50, k=4)
        assert (_resampled_loss_stats(inst, 1000, np.random.default_rng(9))
                == _resampled_loss_stats(inst, 1000, np.random.default_rng(9)))


class TestDrawClasses:
    def test_class_steps_at_the_cdf(self):
        # cdf 0.25, 0.5, 1: class j takes cdf_{j-1} < u <= cdf_j
        qp = np.tile([0.25, 0.25, 0.5], (6, 1))
        u = np.array([0.0, 0.25, np.nextafter(0.25, 1.0), 0.5, 0.75, 0.9999])
        np.testing.assert_array_equal(draw_classes(qp, u), [0, 0, 1, 1, 2, 2])

    def test_last_cdf_entry_is_one(self):
        # a row whose cumulative sum ends below u still draws its last class
        qp = np.array([[0.3, 0.3, 0.3]])
        assert draw_classes(qp, np.array([0.95]))[0] == 2

    def test_broadcasts_over_leading_axes_of_u(self):
        rng = np.random.default_rng(17)
        inst = random_instance(rng, n=6, k=4)
        qp = mixed_targets(inst)
        u = rng.random((6, 5))
        z = draw_classes(qp[:, None, :], u)
        assert z.shape == (6, 5)
        for r in range(5):
            np.testing.assert_array_equal(z[:, r], draw_classes(qp, u[:, r]))
        rows = rng.integers(0, 6, 20)
        np.testing.assert_array_equal(draw_classes(qp[rows], u[rows, 0]),
                                      draw_classes(qp, u[:, 0])[rows])


class TestSampledLoss:
    def test_degenerate_targets_equal_weighted_loss(self):
        # all mixed targets one-hot: zero-variance sampling
        teacher = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        inst = KDInstance(teacher=teacher,
                          student=np.tile([0.6, 0.4], (3, 1)),
                          labels=np.array([1, 2, 1]), alpha=1.0)
        mean, se = _resampled_loss_stats(inst, 100, np.random.default_rng(2))
        assert mean == pytest.approx(weighted_loss(inst), abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_single_resample_finite_nonnegative(self):
        # one resample has no spread, so no standard error: it is refused
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n=10, k=3)
        with pytest.raises(DataError, match="at least 2 resamples"):
            _resampled_loss_stats(inst, 1, np.random.default_rng(3))

    def test_resampled_stats_match_the_whole_array_draw(self):
        # reference: every row's uniforms drawn as one (n, resamples) block,
        # one (n, resamples, k) comparison and one sum over the rows
        rng = np.random.default_rng(21)
        for _ in range(12):
            inst = random_instance(rng, n=int(rng.integers(1, 31)), k=int(rng.integers(2, 6)))
            resamples = int(rng.integers(2, 500))
            seed = int(rng.integers(1 << 30))
            ref_rng = np.random.default_rng(seed)
            z = draw_classes(mixed_targets(inst)[:, None, :],
                             ref_rng.random((inst.n, resamples)))
            logp = np.log(clamp_prob(inst.student))
            losses = -np.take_along_axis(logp, z, axis=1).sum(axis=0)
            expected = (float(losses.mean()), float(losses.std(ddof=1) / np.sqrt(resamples)))
            got = _resampled_loss_stats(inst, resamples, np.random.default_rng(seed))
            assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_resampled_stats_memory_is_per_row(self):
        # 30 rows x 5 classes at the default 200,000 resamples: drawing the
        # whole (rows x resamples x classes) comparison at once takes over
        # 130 MiB; one row at a time needs a few (resamples,) vectors
        inst = random_instance(np.random.default_rng(3), n=30, k=5)
        tracemalloc.start()
        try:
            _resampled_loss_stats(inst, 200_000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


def _whole_array_gradient_stats(theta, x, teacher, labels, alpha, samples, seed):
    """Reference: every per-draw gradient built as one (samples, k, d) array,
    then np.mean and np.std (ddof=1) over its first axis."""
    student = softmax_probs(theta, x)
    qp = mixed_targets(KDInstance(teacher, student, labels, alpha))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, len(x), size=samples)
    z = draw_classes(qp[rows], rng.random(samples))
    resid = student[rows].copy()
    resid[np.arange(samples), z] -= 1.0
    grads = resid[:, :, None] * x[rows][:, None, :]
    return grads.mean(axis=0), grads.std(axis=0, ddof=1) / np.sqrt(samples)


class TestGradientUnbiasedness:
    @pytest.mark.parametrize("samples", [2, 3, _GRADIENT_BLOCK - 1, _GRADIENT_BLOCK,
                                         _GRADIENT_BLOCK + 1, 3 * _GRADIENT_BLOCK + 7])
    def test_streamed_check_matches_the_whole_array_reference(self, samples):
        rng = np.random.default_rng(samples)
        for _ in range(3):
            n, d, k = int(rng.integers(1, 8)), int(rng.integers(1, 8)), int(rng.integers(2, 9))
            x = rng.standard_normal((n, d)) * 3.0
            theta = rng.standard_normal((k, d))
            teacher = rng.dirichlet(np.ones(k), size=n)
            labels = rng.integers(1, k + 1, size=n)
            alpha = float(rng.random())
            seed = int(rng.integers(1 << 30))
            report = verify_gradient_unbiasedness(theta, x, teacher, labels, alpha,
                                                  samples=samples, seed=seed)
            mean, se = _whole_array_gradient_stats(theta, x, teacher, labels, alpha,
                                                   samples, seed)
            assert np.array(report["mc_mean"]).tobytes() == mean.tobytes()
            assert np.array(report["standard_error"]).tobytes() == se.tobytes()

    def test_memory_is_per_block(self):
        # the default 500,000 draws of a 3 x 3 gradient: the whole
        # (draws, k, d) array and its companions take about 88 MiB at once
        tracemalloc.start()
        try:
            check_gradient_unbiasedness()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_rejects_zero_draws(self):
        rng = np.random.default_rng(9)
        with pytest.raises(DataError):
            verify_gradient_unbiasedness(np.zeros((2, 2)), rng.standard_normal((4, 2)),
                                         np.full((4, 2), 0.5), np.ones(4, dtype=int),
                                         0.5, samples=0, seed=0)

    def test_zero_parameter_scorer_on_symmetric_data(self):
        # theta = 0 gives a uniform student; the estimate still matches the
        # analytic gradient within standard error
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 3))
        theta = np.zeros((3, 3))
        teacher = np.full((10, 3), 1.0 / 3.0)
        labels = rng.integers(1, 4, size=10)
        report = verify_gradient_unbiasedness(theta, x, teacher, labels, 0.5,
                                              samples=100_000, seed=1)
        assert report["passed"], report

    def test_smoke_single_sample_produces_report(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 2))
        theta = rng.standard_normal((3, 2))
        teacher = rng.dirichlet(np.ones(3), size=5)
        labels = rng.integers(1, 4, size=5)
        # one draw has no spread, so no standard error: it is refused
        with pytest.raises(DataError, match="at least 2 gradient draws"):
            verify_gradient_unbiasedness(theta, x, teacher, labels, 0.5, samples=1, seed=0)

    def test_scorer_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 3))
        theta = rng.standard_normal((3, 3)) * 0.3
        target = rng.dirichlet(np.ones(3), size=6)

        def loss(t):
            return -(target * np.log(softmax_probs(t, x))).sum()

        analytic = ce_gradient(theta, x, target)
        h = 1e-6
        for i in range(3):
            for j in range(3):
                bump = np.zeros_like(theta)
                bump[i, j] = h
                fd = (loss(theta + bump) - loss(theta - bump)) / (2 * h)
                assert analytic[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestInstanceValidation:
    def test_rejects_non_simplex_rows(self):
        with pytest.raises(DataError):
            KDInstance(teacher=np.array([[0.5, 0.6]]),
                       student=np.array([[0.5, 0.5]]),
                       labels=np.array([1]), alpha=0.5)

    @pytest.mark.parametrize("side", ["teacher", "student"])
    def test_rejects_nan(self, side):
        rows = {"teacher": np.array([[0.5, 0.5]]), "student": np.array([[0.5, 0.5]])}
        rows[side] = np.array([[np.nan, np.nan]])
        with pytest.raises(DataError):
            KDInstance(labels=np.array([1]), alpha=0.5, **rows)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(DataError):
            KDInstance(teacher=np.array([[0.5, 0.5]]),
                       student=np.array([[0.5, 0.5]]),
                       labels=np.array([3]), alpha=0.5)

    def test_mixed_targets_rows_are_distributions(self):
        rng = np.random.default_rng(10)
        inst = random_instance(rng, n=30, k=5)
        qp = mixed_targets(inst)
        assert (qp >= 0).all()
        np.testing.assert_allclose(qp.sum(axis=1), 1.0, atol=1e-12)
