import hashlib
import itertools
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import norm

import moldesign
from moldesign import loop, optimizers
from moldesign.optimizers import (
    DimensionMismatch,
    GpSurrogate,
    OptimizerError,
    PENALTY_SCORE,
    PcaModel,
    default_gp_params,
    expected_improvement,
    ga_step,
    gp_fit,
    gp_posterior,
    matern52,
    pca_fit,
    propose_batch,
    run_bo,
    run_ga,
)


def plane_cloud(seed, n=50, d=32, r=2):
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((d, r)))[0][:, :r].T
    return rng.standard_normal((n, r)) @ basis + rng.standard_normal(d), basis


class TestPca:
    def test_plane_in_32d_gives_r2(self):
        pts, _ = plane_cloud(0)
        model = pca_fit(pts)
        assert model.r == 2

    def test_isotropic_keeps_all(self):
        x = np.random.default_rng(1).standard_normal((300, 8))
        model = pca_fit(x)
        assert model.r == 8

    def test_axes_orthonormal(self):
        pts, _ = plane_cloud(2, r=5)
        model = pca_fit(pts)
        assert np.allclose(model.axes @ model.axes.T, np.eye(model.r),
                           atol=1e-10)

    def test_project_lift_round_trip_on_plane(self):
        pts, _ = plane_cloud(3)
        model = pca_fit(pts)
        back = model.lift(model.project(pts))
        assert np.max(np.abs(back - pts)) < 1e-8

    def test_rank_one_cloud_keeps_one_axis(self, caplog):
        # the 31 other axes hold 1e-13 of the variance each, below the
        # data rank's 1e-12 cut, so the target needs no more than rank 1
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2000, 32)) * np.sqrt(
            np.r_[1.0, np.full(31, 1e-13)])
        with caplog.at_level(logging.DEBUG, logger="moldesign"):
            model = pca_fit(x)
        assert model.r == 1
        assert caplog.records == []

    def test_too_few_points(self):
        with pytest.raises(OptimizerError):
            pca_fit(np.ones((1, 4)))


class TestKernelAndGp:
    def test_matern_diagonal_is_signal_var(self):
        x = np.random.default_rng(0).standard_normal((7, 3))
        k = matern52(x, x, signal_var=2.5, lengthscale=0.7)
        assert np.allclose(np.diag(k), 2.5)
        assert np.allclose(k, k.T)

    def test_matern_decreases_with_distance(self):
        a = np.zeros((1, 2))
        b = np.array([[0.1, 0.0], [1.0, 0.0], [5.0, 0.0]])
        vals = matern52(a, b, 1.0, 1.0)[0]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_interpolation_matches_direct_solve(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (20, 3))
        y = np.sin(x).sum(axis=1)
        s = gp_fit(x, y, signal_var=1.0, lengthscale=1.0, noise_var=0.0)
        mean, var = gp_posterior(s, x)
        assert np.max(np.abs(mean - y)) < 1e-6
        assert np.max(var) < 1e-6
        # oracle: solve the same linear system directly
        k = matern52(x, x, 1.0, 1.0) + 1e-8 * np.eye(20)
        q = rng.uniform(-2, 2, (5, 3))
        oracle = matern52(q, x, 1.0, 1.0) @ np.linalg.solve(k, y)
        got, _ = gp_posterior(s, q)
        assert np.max(np.abs(got - oracle)) < 1e-8

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_solves_match_cho_solve_bit_for_bit(self, d):
        # gp_fit and _posterior call LAPACK dpotrs directly, the routine
        # scipy's cho_solve calls; a non-finite training value is still
        # refused
        rng = np.random.default_rng(30 + d)
        for n in (5, 40):
            x = rng.uniform(-1, 1, (n, d))
            y = np.sin(3 * x[:, 0]) + 0.1 * rng.standard_normal(n)
            s = gp_fit(x, y, *default_gp_params(x, y))
            assert np.array_equal(s.weights, scipy.linalg.cho_solve(s.chol, y))
            for m in range(1, 26):
                q = rng.uniform(-1.5, 1.5, (m, d))
                kq = matern52(q, x, s.signal_var, s.lengthscale)
                v = scipy.linalg.cho_solve(s.chol, kq.T)
                var = s.signal_var - np.sum(kq * v.T, axis=1)
                mean, got_var, got_kq, got_v = optimizers._posterior(s, q)
                assert np.array_equal(got_kq, kq)
                assert np.array_equal(got_v, v)
                assert np.array_equal(mean, kq @ s.weights)
                assert np.array_equal(got_var, np.where(var < 0, 0.0, var))
            with pytest.raises(ValueError):
                gp_fit(x, np.where(np.arange(n) == 2, np.nan, y))

    def test_far_query_reverts_to_prior(self):
        x = np.random.default_rng(6).standard_normal((10, 2))
        s = gp_fit(x, np.ones(10), signal_var=3.0, lengthscale=1.0)
        mean, var = gp_posterior(s, np.full((1, 2), 1e3))
        assert abs(mean[0]) < 1e-9
        assert var[0] == pytest.approx(3.0, rel=1e-9)

    def test_jitter_above_floor_warns(self, caplog):
        # a huge signal variance on near-duplicate points: the kernel's
        # rounding error outgrows the 1e-8 and 1e-6 jitters
        x = np.linspace(0.0, 1e-3, 30)[:, None]
        with caplog.at_level(logging.WARNING, logger="moldesign"):
            gp_fit(x, np.sin(x[:, 0]), signal_var=1.0, lengthscale=1.0)
            assert not caplog.records
            gp_fit(x, np.sin(x[:, 0]), signal_var=1e9, lengthscale=1.0)
        assert [r.getMessage() for r in caplog.records] == [
            "gp_fit: kernel matrix needed jitter 0.0001 for Cholesky"]

    def test_default_params_median_heuristic(self):
        x = np.array([[0.0], [1.0], [3.0]])
        y = np.array([1.0, 2.0, 3.0])
        sv, ls, nv = default_gp_params(x, y)
        assert sv == pytest.approx(np.var(y))
        assert ls == pytest.approx(2.0)  # median of pairwise {1, 2, 3}
        assert nv == pytest.approx(1e-6 * sv)


class TestExpectedImprovement:
    def test_at_prior_with_best_zero(self):
        # far from a single zero-valued observation: mean 0, sigma 1, so
        # EI = sigma * pdf(0) = 0.39894...
        s = gp_fit(np.zeros((1, 2)), np.zeros(1), signal_var=1.0,
                   lengthscale=1.0, noise_var=0.0)
        [ei] = expected_improvement(s, np.full((1, 2), 1e3), best=0.0)
        assert ei == pytest.approx(norm.pdf(0.0), rel=1e-6)
        assert ei == pytest.approx(0.3989422804, rel=1e-6)

    def test_zero_at_dominated_training_point(self):
        x = np.array([[0.0], [1.0]])
        s = gp_fit(x, np.array([0.0, 5.0]), 1.0, 1.0, 0.0)
        assert expected_improvement(s, np.array([[0.0]]), best=5.0)[0] < 1e-6

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (15, 2))
        s = gp_fit(x, rng.standard_normal(15), 1.0, 0.5, 1e-6)
        q = rng.uniform(-2, 2, (200, 2))
        assert np.all(expected_improvement(s, q, best=2.0) >= 0.0)


class TestProposeBatch:
    @pytest.fixture()
    def surrogate(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (25, 3))
        y = -np.sum(x ** 2, axis=1)
        sv, ls, nv = default_gp_params(x, y)
        return gp_fit(x, y, sv, ls, nv)

    def test_batch_size_bounds_unique(self, surrogate):
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        batch = propose_batch(surrogate, (lo, hi), batch_size=10,
                              rng=np.random.default_rng(0))
        assert len(batch) == 10
        keys = {p.tobytes() for p in batch}
        assert len(keys) == 10
        for p in batch:
            assert np.all(p >= lo) and np.all(p <= hi)

    def test_deterministic_given_rng(self, surrogate):
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        a = propose_batch(surrogate, (lo, hi), 10, np.random.default_rng(4))
        b = propose_batch(surrogate, (lo, hi), 10, np.random.default_rng(4))
        assert all(np.array_equal(p, q) for p, q in zip(a, b))

    def test_diagonal_fallback_warns(self, surrogate, monkeypatch, caplog):
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        factored = []

        def not_definite(a, **kwargs):
            factored.append(np.diag(a).copy())
            raise np.linalg.LinAlgError("not positive definite")

        def zero_to_anchors(a, b, *args):
            k = matern52(a, b, *args)
            return k if b is surrogate.x_train else np.zeros_like(k)

        with caplog.at_level(logging.WARNING, logger="moldesign"):
            propose_batch(surrogate, (lo, hi), 10, np.random.default_rng(2))
            assert not caplog.records

            monkeypatch.setattr(scipy.linalg, "cholesky", not_definite)
            batches = [propose_batch(surrogate, (lo, hi), 10,
                                     np.random.default_rng(2))]
            # with no prior covariance between the cloud and the anchors,
            # an anchor's variance is the jitter less its posterior
            # reduction, mostly negative; the diagonal factor is floored
            # at the jitter, so the draws stay finite
            monkeypatch.setattr(optimizers, "matern52", zero_to_anchors)
            batches.append(propose_batch(surrogate, (lo, hi), 10,
                                         np.random.default_rng(2)))
        assert np.min(factored[1]) <= 0
        for batch in batches:
            assert len(batch) == 10 and np.all(np.isfinite(batch))
        assert [r.getMessage() for r in caplog.records] == 2 * [
            "propose_batch: anchor covariance is not positive definite; "
            "Thompson draws use its diagonal"]

    def test_ei_maximizer_near_optimum(self, surrogate):
        # objective peaks at the origin; the refined first pick should
        # land close to it
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        batch = propose_batch(surrogate, (lo, hi), 10,
                              np.random.default_rng(1))
        assert np.linalg.norm(batch[0]) < 0.3

    def test_ei_search_is_batched(self, surrogate, monkeypatch):
        # the cloud's EI comes from the cloud's posterior, so every EI call
        # is a round of the pattern search, with a row per remaining trial
        # of each running restart's sweep; the one-start-at-a-time search
        # made about 2,800 one-row calls here, and one call per trial step
        # with a row per restart made 169
        rows = []

        def counting_ei(s, x, best):
            rows.append(len(x))
            return expected_improvement(s, x, best)

        monkeypatch.setattr(optimizers, "expected_improvement", counting_ei)
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        propose_batch(surrogate, (lo, hi), 10, np.random.default_rng(0))
        assert optimizers.N_CANDIDATES not in rows
        assert 0 < len(rows) <= 60
        assert max(rows) <= optimizers.N_RESTARTS * 2 * 3

    def test_one_posterior_per_point_set(self, surrogate, monkeypatch):
        # the cloud's kernel to the training points and to the anchors are
        # each computed once; the anchors are rows of the cloud, so the
        # Thompson mean, the anchors' covariance, the kriging and the
        # cloud's EI all reuse them, and the draws go through the anchor
        # covariance's Cholesky factor with no least-squares solve
        calls = []

        def counting_matern52(a, b, *args):
            calls.append((len(a), len(b)))
            return matern52(a, b, *args)

        def no_lstsq(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(optimizers, "matern52", counting_matern52)
        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        propose_batch(surrogate, (lo, hi), 10, np.random.default_rng(0))
        n, r = len(surrogate.x_train), min(len(surrogate.x_train),
                                           optimizers.THOMPSON_RANK)
        assert r > optimizers.N_RESTARTS   # an EI step has fewer rows
        assert [c for c in calls if c[0] == optimizers.N_CANDIDATES] == [
            (optimizers.N_CANDIDATES, n), (optimizers.N_CANDIDATES, r)]
        assert (r, n) not in calls and (r, r) not in calls

    def test_kriged_batches_pinned(self):
        # 100 training points, more than THOMPSON_RANK anchors, so the
        # Thompson draws are kriged from r < n anchors; recorded before
        # propose_batch shared one posterior per point set
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, (100, 3))
        y = np.sin(3 * x[:, 0]) - np.sum(x ** 2, axis=1)
        s = gp_fit(x, y, *default_gp_params(x, y))
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        blob = b"".join(p.tobytes() for seed in range(3) for p in
                        propose_batch(s, (lo, hi), 10,
                                      np.random.default_rng(seed)))
        assert hashlib.sha256(blob).hexdigest() == (
            "9833408dfe2c297763fef7f32d81828d4c61ebd7bc63f4f2068ea74f54e48843")

    def test_refined_pick_is_first_best(self, surrogate, monkeypatch):
        # of restarts with equal EI the first wins, as one start at a time
        # with `if v > best_ei` did
        seen = []

        def tied_search(fn, starts, lo, hi):
            seen.append(starts)
            eis = np.zeros(len(starts))
            eis[[2, 5]] = 1.0
            return starts, eis

        monkeypatch.setattr(optimizers, "_pattern_search", tied_search)
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        batch = propose_batch(surrogate, (lo, hi), 10, np.random.default_rng(0))
        assert np.array_equal(batch[0], seen[0][2])


def reference_propose_batch(s, bounds, batch_size, rng):
    """propose_batch as it was before the anchors' terms came from the
    cloud's posterior: a second posterior for the anchors, their own
    kernel, a least-squares kriging solve and one draw per loop step."""
    from scipy.linalg import cholesky
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    cloud = rng.uniform(lo, hi, size=(optimizers.N_CANDIDATES, len(lo)))
    mean, var, k_cloud, _ = optimizers._posterior(s, cloud)

    r = min(len(s.x_train), optimizers.THOMPSON_RANK, optimizers.N_CANDIDATES)
    anchor_idx = rng.choice(optimizers.N_CANDIDATES, size=r, replace=False)
    anchors = cloud[anchor_idx]
    mean_a, _, k_a, v_a = optimizers._posterior(s, anchors)
    cov_a = matern52(anchors, anchors, s.signal_var, s.lengthscale) - k_a @ v_a
    cov_a[np.diag_indices_from(cov_a)] += 1e-10 * max(s.signal_var, 1.0)
    try:
        la = cholesky(cov_a, lower=True)
    except np.linalg.LinAlgError:
        la = np.diag(np.sqrt(np.maximum(np.diag(cov_a), 0.0)))
    cross = (matern52(cloud, anchors, s.signal_var, s.lengthscale)
             - k_cloud @ v_a)
    solve = np.linalg.lstsq(cov_a, cross.T, rcond=None)[0]

    picks = []
    for _ in range(batch_size):
        fa = mean_a + la @ rng.standard_normal(r)
        draw = mean + solve.T @ (fa - mean_a)
        picks.append(cloud[int(np.argmax(draw))])

    best = float(np.max(s.y_train))
    ei_cloud = optimizers._ei(mean, var, best)
    starts = np.vstack([cloud[int(np.argmax(ei_cloud))],
                        rng.uniform(lo, hi, size=(optimizers.N_RESTARTS - 1,
                                                  len(lo)))])
    xs, eis = optimizers._pattern_search(
        lambda x: expected_improvement(s, x, best), starts, lo, hi)
    picks.insert(0, xs[int(np.argmax(eis))])

    batch = []
    for p in itertools.chain(picks, cloud[np.argsort(ei_cloud)[::-1]]):
        if not any(np.array_equal(p, q) for q in batch):
            batch.append(p)
        if len(batch) == batch_size:
            break
    return [np.array(p) for p in batch]


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("n", [12, 100])
def test_propose_batch_matches_reference(n, d):
    # n below and above THOMPSON_RANK: all n training points are anchors,
    # or the draws are kriged from r < n of them
    rng = np.random.default_rng(100 * n + d)
    x = rng.uniform(-1, 1, (n, d))
    y = np.sin(3 * x[:, 0]) - np.sum(x ** 2, axis=1) \
        + 0.1 * rng.standard_normal(n)
    s = gp_fit(x, y, *default_gp_params(x, y))
    lo, hi = np.full(d, -1.0), np.full(d, 1.0)
    for seed in range(3):
        got = propose_batch(s, (lo, hi), 10, np.random.default_rng(seed))
        want = reference_propose_batch(s, (lo, hi), 10,
                                       np.random.default_rng(seed))
        assert len(got) == len(want) == 10
        assert all(np.array_equal(p, q) for p, q in zip(got, want))


def reference_pattern_search(fn, x0, lo, hi):
    """The search from one start, one trial per call of fn(point) -> value,
    as propose_batch ran it before its restarts moved in lockstep."""
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    fx = fn(x)
    step = 0.1 * (hi - lo)
    while np.max(step) > optimizers.PATTERN_MIN_STEP:
        improved = False
        for i in range(len(x)):
            for sgn in (1.0, -1.0):
                trial = x.copy()
                trial[i] = np.clip(trial[i] + sgn * step[i], lo[i], hi[i])
                ft = fn(trial)
                if ft > fx:
                    x, fx = trial, ft
                    improved = True
        if not improved:
            step *= 0.5
    return x, fx


class TestPatternSearch:
    # row-independent objectives: a row's value does not depend on the
    # other rows of the call, so each lockstep search must match its
    # one-start reference bit for bit
    OBJECTIVES = {
        "interior peak": lambda c: lambda x: -((x - 0.3 * c) ** 2).sum(axis=1),
        "peak outside the box": lambda c: lambda x: -((x - 2.0 * c) ** 2).sum(axis=1),
        "plateaus": lambda c: lambda x: -np.floor(4.0 * ((x - c) ** 2).sum(axis=1)),
        # the low bits of x - c: improving trials fall anywhere in a sweep
        "bit noise": lambda c: lambda x: ((x - c) * 2.0 ** 40 % 1.0).sum(axis=1),
    }

    @pytest.mark.parametrize("d", [3, 6])
    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_matches_one_start_search(self, d, objective):
        rng = np.random.default_rng(d)
        lo, hi = rng.uniform(-2.0, -1.0, d), rng.uniform(1.0, 3.0, d)
        fn = self.OBJECTIVES[objective](rng.uniform(lo, hi))
        starts = rng.uniform(lo, hi, (optimizers.N_RESTARTS, d))
        starts[1] = lo                      # a corner of the box
        starts[2] = hi
        starts[3, ::2] = lo[::2]            # starts on the box faces
        starts[4, 1::2] = hi[1::2]
        starts[5] = hi + 1.0                # outside: clipped to the corner
        xs, fxs = optimizers._pattern_search(fn, starts, lo, hi)
        assert xs.shape == (optimizers.N_RESTARTS, d)
        for x0, x, fx in zip(starts, xs, fxs):
            ref_x, ref_fx = reference_pattern_search(
                lambda p: fn(p[None])[0], x0, lo, hi)
            assert np.array_equal(x, ref_x)
            assert fx == ref_fx


    def test_matches_on_the_last_trial_and_on_both_signs(self):
        # a round ends mid-sweep at a search's first improving trial; these
        # searches also improve on the last trial of a sweep, which ends
        # it, and on both signs of one coordinate, where the second trial
        # is built from the point the first one moved to
        d = 3
        rng = np.random.default_rng(7)
        lo, hi = rng.uniform(-2.0, -1.0, d), rng.uniform(1.0, 3.0, d)
        fn = self.OBJECTIVES["bit noise"](rng.uniform(lo, hi))
        starts = rng.uniform(lo, hi, (optimizers.N_RESTARTS, d))
        xs, fxs = optimizers._pattern_search(fn, starts, lo, hi)
        last = both = 0
        for x0, x, fx in zip(starts, xs, fxs):
            values = []

            def one(p):
                values.append(fn(p[None])[0])
                return values[-1]

            ref_x, ref_fx = reference_pattern_search(one, x0, lo, hi)
            assert np.array_equal(x, ref_x)
            assert fx == ref_fx
            # the reference accepts each new running maximum; after the
            # start, its calls go 2 * d to a sweep
            best, hits = values[0], set()
            for j, value in enumerate(values[1:]):
                if value > best:
                    best = value
                    hits.add(divmod(j, 2 * d))
            last += sum(t == 2 * d - 1 for _, t in hits)
            both += sum((k, t + 1) in hits for k, t in hits if t % 2 == 0)
        assert last > 0 and both > 0


class TestGaStep:
    def test_elite_preserved(self):
        rng = np.random.default_rng(0)
        genes = rng.uniform(0, 1, (50, 4))
        fitness = rng.standard_normal(50)
        child = ga_step(genes, fitness, (np.zeros(4), np.ones(4)),
                        np.random.default_rng(1))
        best = genes[np.argmax(fitness)]
        assert np.array_equal(child[0], best)

    def test_population_size_and_bounds(self):
        rng = np.random.default_rng(2)
        genes = rng.uniform(-2, 3, (50, 6))
        fitness = rng.standard_normal(50)
        lo, hi = np.full(6, -2.0), np.full(6, 3.0)
        child = ga_step(genes, fitness, (lo, hi), rng)
        assert child.shape == (50, 6)
        assert np.all(child >= lo) and np.all(child <= hi)

    def test_children_drawn_from_parent_pool(self, monkeypatch):
        # without mutation or crossover every child clones a top-30% parent
        rng = np.random.default_rng(3)
        genes = rng.uniform(0, 1, (50, 3))
        fitness = np.arange(50.0)
        monkeypatch.setattr(optimizers, "GA_MUTATION_PROB", 0.0)
        monkeypatch.setattr(optimizers, "GA_CROSSOVER_PROB", 0.0)
        child = ga_step(genes, fitness, (np.zeros(3), np.ones(3)),
                        np.random.default_rng(4))
        pool = {genes[i].tobytes() for i in np.argsort(fitness)[::-1][:15]}
        for row in child:
            assert row.tobytes() in pool

    def test_mutation_draw_is_generator_uniform(self):
        # ga_step draws a mutation as lo + (hi - lo) * rng.random(d), which
        # holds only while numpy computes uniform as low + range * double
        # with no fused multiply-add: the same bytes, and the stream left
        # in the same state
        boxes = np.random.default_rng(11)
        for trial in range(240):
            d = int(boxes.integers(1, 9))
            lo = boxes.uniform(-1e3, 1e3, d) * 10.0 ** boxes.integers(-6, 4)
            kind = trial % 4
            if kind == 0:     # wholly below zero
                lo = -np.abs(lo) - 5.0
                span = boxes.uniform(0, 5, d)
            elif kind == 1:   # wide
                span = boxes.uniform(0, 1e6, d) * 10.0 ** boxes.integers(0, 9)
            elif kind == 2:   # narrower than 1e-6
                span = boxes.uniform(0, 1e-6, d) * 10.0 ** -boxes.integers(0, 9)
            else:             # some zero-width slots
                span = np.where(boxes.random(d) < 0.5, 0.0,
                                boxes.uniform(0, 10, d))
            hi = lo + span
            a, b = np.random.default_rng(trial), np.random.default_rng(trial)
            assert (lo + (hi - lo) * a.random(d)).tobytes() \
                == b.uniform(lo, hi).tobytes()
            assert a.random(3).tobytes() == b.random(3).tobytes()

    @staticmethod
    def ga_step_per_child(genes, fitness, bounds, rng):
        # ga_step as it was written: child by child, with one
        # integers(size=2) call for the parents and rng.uniform for the
        # mutated genes
        lo, hi = bounds
        pop = len(genes)
        order = np.argsort(fitness, kind="stable")[::-1]
        n_elite = max(1, round(optimizers.GA_ELITE_RATIO * pop))
        n_parents = max(2, round(optimizers.GA_PARENTS_PORTION * pop))
        parents = genes[order[:n_parents]]
        out = [genes[i].copy() for i in order[:n_elite]]
        while len(out) < pop:
            ia, ib = rng.integers(0, n_parents, size=2)
            pa, pb = parents[ia], parents[ib]
            if rng.random() < optimizers.GA_CROSSOVER_PROB:
                pick = rng.random(genes.shape[1]) < 0.5
                child = np.where(pick, pa, pb)
            else:
                child = pa.copy()
            mut = rng.random(genes.shape[1]) < optimizers.GA_MUTATION_PROB
            if mut.any():
                child = np.where(mut, rng.uniform(lo, hi), child)
            out.append(child)
        return np.array(out)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_uniform_draws(self, seed):
        data = np.random.default_rng(seed)
        lo = data.uniform(-5, 0, 6)
        hi = lo + data.uniform(0, 7, 6)
        genes = data.uniform(lo, hi, (50, 6))
        rng_a = np.random.default_rng(100 + seed)
        rng_b = np.random.default_rng(100 + seed)
        for _ in range(5):
            fitness = data.standard_normal(50)
            new = ga_step(genes, fitness, (lo, hi), rng_a)
            old = self.ga_step_per_child(genes, fitness, (lo, hi), rng_b)
            assert new.tobytes() == old.tobytes()
            genes = new
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("pop", [1, 2, 3, 10, 50, 101])
    @pytest.mark.parametrize("d", [1, 6, 9])
    def test_equals_per_child_loop(self, pop, d):
        # the same children and the generator left in the same state, on
        # boxes with zero-width slots and on fitness with ties
        data = np.random.default_rng(1000 * pop + d)
        lo = data.uniform(-5, 5, d)
        hi = lo + np.where(data.random(d) < 0.3, 0.0, data.uniform(0, 7, d))
        genes = data.uniform(lo, hi, (pop, d))
        rng_a = np.random.default_rng(pop + d)
        rng_b = np.random.default_rng(pop + d)
        for generation in range(8):
            fitness = data.standard_normal(pop)
            if generation % 2:
                fitness = np.round(fitness)
            new = ga_step(genes, fitness, (lo, hi), rng_a)
            old = self.ga_step_per_child(genes, fitness, (lo, hi), rng_b)
            assert new.shape == (pop, d)
            assert new.tobytes() == old.tobytes()
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            genes = new

    @pytest.mark.parametrize("n", [2, 15, 2**31 + 1, 3 * 2**30, 2**32 - 1,
                                   2**32, 2**32 + 5, 2**40 + 3])
    def test_scalar_integer_draws_equal_a_pair(self, n):
        # ga_step draws a child's parents as two integers(0, n) calls where
        # it once made one integers(0, n, size=2) call
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(200):
            pair = b.integers(0, n, size=2)
            assert [a.integers(0, n), a.integers(0, n)] == pair.tolist()
            assert a.random() == b.random()
        assert a.bit_generator.state == b.bit_generator.state


class TestPenalty:
    def test_one_penalty_constant(self):
        assert loop.PENALTY == PENALTY_SCORE == -1000.0
        assert loop.RunConfig().penalty == PENALTY_SCORE


# search boxes that are not two arrays of shape (2,)
BAD_BOUNDS_2D = [(0.0, 1.0), (np.zeros(2), np.ones(3)),
                 (np.zeros(3), np.ones(3)), (np.zeros((1, 2)), np.ones((1, 2)))]


class TestDrivers:
    def test_run_ga_sphere_8d(self):
        center = np.full(8, 0.3)
        objective = lambda z: -float(np.sum((z - center) ** 2))
        hist = run_ga(objective, (np.full(8, -1.0), np.full(8, 1.0)), 8,
                      stop=2000, seed=0)
        assert len(hist) == 2000
        assert max(hist.scores) > -0.05
        # the GA keeps its scores only: its caller reads no points
        assert hist.points == []

    def test_run_bo_quadratic_2d(self):
        objective = lambda z: -float(np.sum((z - 0.5) ** 2))
        hist = run_bo(objective, (np.zeros(2), np.ones(2)), 2, stop=40, seed=1)
        assert len(hist) == 40
        assert max(hist.scores) > max(hist.scores[:10])
        assert max(hist.scores) > -0.01

    def test_run_bo_exact_budget(self):
        hist = run_bo(lambda z: float(z.sum()), (np.zeros(3), np.ones(3)), 3,
                      stop=25, seed=2)
        assert len(hist) == 25
        assert all(p.shape == (3,) for p in hist.points)

    def test_run_bo_asks_stop_before_each_point_and_refill(self):
        # ten uniform points, then one stop call before each refill and
        # one before each point of the batch
        asked = []

        def stop(n):
            asked.append(n)
            return n >= 25

        hist = run_bo(lambda z: -float(np.sum((z - 0.5) ** 2)),
                      (np.zeros(2), np.ones(2)), 2, stop=stop, seed=1)
        assert len(hist) == 25
        assert asked == [*range(10), 10, 10, *range(11, 20), 20, 20,
                         *range(21, 26)]

    def test_run_bo_stop_after_a_refill(self, monkeypatch):
        # a stop that first says yes on its second call at 10 points ends
        # the run after the refill, before the batch's first point (it
        # also says yes at 20 points, so a run that misses it still ends)
        proposals = []

        def counting(*args):
            proposals.append(1)
            return propose_batch(*args)

        monkeypatch.setattr(optimizers, "propose_batch", counting)
        at_ten = []

        def stop(n):
            if n == 10:
                at_ten.append(n)
            return len(at_ten) == 2 or n >= 20

        hist = run_bo(lambda z: -float(np.sum((z - 0.5) ** 2)),
                      (np.zeros(2), np.ones(2)), 2, stop=stop, seed=1)
        assert len(hist) == 10
        assert len(proposals) == 1

    @pytest.mark.parametrize("bounds", BAD_BOUNDS_2D)
    def test_run_ga_bounds_must_match_n_dims(self, bounds):
        with pytest.raises(DimensionMismatch):
            run_ga(lambda z: 0.0, bounds, 2, stop=10)

    @pytest.mark.parametrize("bounds", BAD_BOUNDS_2D)
    def test_run_bo_bounds_must_match_n_dims(self, bounds):
        with pytest.raises(DimensionMismatch):
            run_bo(lambda z: 0.0, bounds, 2, stop=10)

    def test_run_bo_survives_penalty_region(self):
        def objective(z):
            if z[0] > 0.5:
                return PENALTY_SCORE
            return -float(np.sum((z - 0.25) ** 2))

        hist = run_bo(objective, (np.zeros(2), np.ones(2)), 2, stop=40,
                      seed=3)
        assert len(hist) == 40
        good = [s for s in hist.scores if s > PENALTY_SCORE + 0.5]
        assert max(good) > -0.05

    def test_callable_stop(self):
        calls = []
        hist = run_ga(lambda z: float(z[0]), (np.zeros(2), np.ones(2)), 2,
                      stop=lambda n: n >= 75, seed=4)
        assert len(hist) == 75

    def test_ga_stall_ends_run(self, monkeypatch, caplog):
        # without crossover and mutation every child copies a scored
        # parent, so no generation after the first calls the objective
        n = optimizers.GA_STALL_GENERATIONS
        steps = []

        def counting_step(*args, **kwargs):
            steps.append(1)
            if len(steps) > n + 1:
                raise AssertionError("run_ga did not stop on the stall")
            return ga_step(*args, **kwargs)

        monkeypatch.setattr(optimizers, "ga_step", counting_step)
        calls = []

        def objective(z):
            calls.append(1)
            return float(z[0])

        monkeypatch.setattr(optimizers, "GA_POPULATION_SIZE", 10)
        monkeypatch.setattr(optimizers, "GA_MUTATION_PROB", 0.0)
        monkeypatch.setattr(optimizers, "GA_CROSSOVER_PROB", 0.0)
        with caplog.at_level(logging.WARNING, logger="moldesign"):
            hist = run_ga(objective, (np.zeros(2), np.ones(2)), 2, seed=4,
                          stop=lambda _n: len(calls) >= 50)
        assert len(calls) == 10
        assert len(steps) == n
        assert len(hist) == 10 * (n + 1)
        assert [r.getMessage() for r in caplog.records] == [
            "run_ga: %d generations in a row brought no new point; "
            "stopping after 10 objective calls" % n]

    def test_best_so_far_monotone(self):
        hist = run_ga(lambda z: float(np.sin(10 * z[0])),
                      (np.zeros(1), np.ones(1)), 1, stop=200, seed=5)
        b = np.maximum.accumulate(hist.scores)
        assert np.all(np.diff(b) >= 0)
        assert b[-1] == max(hist.scores)


def test_ga_and_training_leave_scipy_linalg_unloaded():
    # scipy.linalg and scipy.special cost about 28 MB of resident memory;
    # only the BO path needs them
    script = """
import json
import sys
import numpy as np
from moldesign import adomain, gnn, loop
from moldesign.grammar import FragmentGrammar, enumerate_grammar
grammar = FragmentGrammar(n_dims=4)
graphs = list(enumerate_grammar(grammar).values())[::20]
ens = gnn.GnnEnsemble(n_models=2, config=gnn.GnnConfig(hidden_dim=8,
                      fp_dim=8, mlp_hidden=4), seed=0)
data = [(g, {"ron": float(i), "mon": None, "dcn": None})
        for i, g in enumerate(graphs)]
gnn.train_ensemble(data, ens, gnn.TrainConfig(epochs=2))
fps = ens.forward(graphs)[0]
ad = adomain.fit_ad_ensemble(list(fps))
loop.run(loop.RunConfig(method="ga", max_total=100), grammar, ens, ad=ad,
         bounds=(np.zeros(4), np.ones(4)))
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""
    src = os.path.dirname(os.path.dirname(moldesign.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    loaded = json.loads(out)
    assert "scipy.linalg" not in loaded
    assert "scipy.special" not in loaded
