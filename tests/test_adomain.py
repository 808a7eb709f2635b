import logging
import tracemalloc

import numpy as np
import pytest

from moldesign import adomain
from moldesign.adomain import (
    AdEnsemble,
    AdError,
    DegenerateData,
    OneClassSvm,
    ad_vote,
    fit_ad_ensemble,
    fit_svm,
    grid_search_hyperparams,
    rbf_kernel,
    scale_gamma,
)
from moldesign.gnn import GnnConfig, GnnEnsemble
from moldesign.grammar import FragmentGrammar, enumerate_grammar

from graph_helpers import constant_svm


def gaussian_cloud(seed, n=100, d=4):
    return np.random.default_rng(seed).standard_normal((n, d))


class TestFit:
    def test_pass_cap_warns(self, caplog, monkeypatch):
        x = gaussian_cloud(0)
        with caplog.at_level(logging.WARNING, logger="moldesign"):
            fit_svm(x, nu=0.1)
            assert not caplog.records
            monkeypatch.setattr(adomain, "SVM_MAX_PASSES", 3)
            fit_svm(x, nu=0.1)
        [rec] = caplog.records
        assert rec.levelno == logging.WARNING
        head = "fit_svm: stopped after SVM_MAX_PASSES=3 iterations with KKT " \
            "gap grad[j] - grad[i] = "
        msg = rec.getMessage()
        assert msg.startswith(head)
        assert float(msg[len(head):].split()[0]) > 1e-6

    def test_row_limit_refused_before_the_kernel(self, monkeypatch):
        x = gaussian_cloud(0)
        monkeypatch.setattr(adomain, "SVM_MAX_ROWS", 100)
        fit_svm(x, nu=0.1)
        monkeypatch.setattr(adomain, "SVM_MAX_ROWS", 99)
        monkeypatch.setattr(adomain, "rbf_kernel", None)
        with pytest.raises(AdError, match="100 fingerprint rows exceed "
                                          "SVM_MAX_ROWS=99"):
            fit_svm(x, nu=0.1)

    def test_row_limit_is_a_kernel_size(self):
        # the m x m float64 kernel of the most rows fits the byte budget,
        # one more row does not
        m = adomain.SVM_MAX_ROWS
        assert 8 * m * m <= adomain.SVM_KERNEL_BYTES < 8 * (m + 1) ** 2
        assert m == 10_000

    def test_dual_constraints(self):
        x = gaussian_cloud(0)
        svm = fit_svm(x, nu=0.1)
        cap = 1.0 / (0.1 * len(x))
        assert svm.alphas.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(svm.alphas >= -1e-12)
        assert np.all(svm.alphas <= cap + 1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_nu_property(self, seed):
        x = gaussian_cloud(seed, n=100)
        nu = 0.05
        svm = fit_svm(x, nu=nu)
        outliers = int(np.sum(svm.decision(x) < 0))
        assert outliers <= 7  # fraction <= nu + 0.02 of 100
        assert len(svm.alphas) >= (nu - 0.02) * len(x)

    @pytest.mark.parametrize("seed", range(10))
    def test_isolated_points_become_bound_sv_outliers(self, seed):
        # tight cluster plus 5 far scatter points: the far points cannot
        # reach the margin under the alpha cap, so they land at f < 0
        rng = np.random.default_rng(seed)
        x = np.vstack([0.1 * rng.standard_normal((195, 4)),
                       rng.uniform(-50.0, 50.0, (5, 4))])
        svm = fit_svm(x, nu=0.05, gamma=1.0)
        f = svm.decision(x)
        assert np.all(f[-5:] < 0)
        assert int(np.sum(f < 0)) <= 0.05 * 200 + 4
        cap = 1.0 / (0.05 * 200)
        assert np.sum(svm.alphas > cap - 1e-9) >= 5

    def test_centroid_inside_far_point_outside(self):
        rng = np.random.default_rng(4)
        x = 0.01 * rng.standard_normal((60, 3)) + 5.0
        svm = fit_svm(x, nu=0.1, gamma=1.0)
        assert svm.decision(np.full((1, 3), 5.0))[0] > 0
        assert svm.decision(np.full((1, 3), 100.0))[0] < 0

    def test_nu_one_all_support_vectors(self):
        x = gaussian_cloud(1, n=40)
        svm = fit_svm(x, nu=1.0)
        assert len(svm.alphas) == len(x)

    def test_degenerate_data(self):
        x = np.ones((10, 3))
        with pytest.raises(DegenerateData):
            fit_svm(x, nu=0.1, gamma=1.0)

    def test_bad_nu(self):
        with pytest.raises(AdError):
            fit_svm(gaussian_cloud(0), nu=0.0)

    def test_scale_gamma_rule(self):
        x = gaussian_cloud(2, n=50, d=8)
        assert scale_gamma(x) == pytest.approx(1.0 / (8 * x.var()))

    def test_state_round_trip(self):
        svm = fit_svm(gaussian_cloud(3), nu=0.1)
        clone = OneClassSvm.from_state(svm.to_state())
        q = gaussian_cloud(9, n=5)
        assert np.array_equal(svm.decision(q), clone.decision(q))


def stub_ensemble(signs):
    return AdEnsemble(svms=[constant_svm(1.0 if s > 0 else -1.0, 2)
                            for s in signs])


class TestVote:
    def test_31_of_40(self):
        ad = stub_ensemble([1] * 31 + [-1] * 9)
        inside, vote_sum = ad_vote(np.zeros((40, 2)), ad)
        assert vote_sum == 22
        assert inside

    def test_20_of_40_tie_is_outside(self):
        ad = stub_ensemble([1] * 20 + [-1] * 20)
        inside, vote_sum = ad_vote(np.zeros((40, 2)), ad)
        assert vote_sum == 0
        assert not inside

    def test_k1(self):
        ad = stub_ensemble([1])
        assert ad_vote(np.zeros((1, 2)), ad) == (True, 1)

    def test_member_tie_counts_positive(self):
        ad = AdEnsemble(svms=[constant_svm(0.0, 2)])
        assert ad_vote(np.zeros((1, 2)), ad) == (True, 1)

    def test_flip_changes_sum_by_two(self):
        base = [1] * 7 + [-1] * 3
        _, s0 = ad_vote(np.zeros((10, 2)), stub_ensemble(base))
        flipped = list(base)
        flipped[0] = -1
        _, s1 = ad_vote(np.zeros((10, 2)), stub_ensemble(flipped))
        assert s0 - s1 == 2

    def test_per_member_fingerprints(self):
        ad = stub_ensemble([1, -1, 1])
        assert ad_vote(np.zeros((3, 2)), ad) == (True, 1)
        with pytest.raises(AdError):
            ad_vote(np.zeros((2, 2)), ad)

    def test_vector_of_length_k_rejected(self):
        # a 1-D vector is one fingerprint, not one row per member, even
        # when its length equals the number of members
        with pytest.raises(AdError):
            ad_vote(np.zeros(3), stub_ensemble([1, -1, 1]))

    def test_rows_are_voted_by_their_member(self):
        rng = np.random.default_rng(3)
        clouds = [rng.standard_normal((60, 2)) + 10.0 * k for k in range(2)]
        ad = fit_ad_ensemble(clouds, nu=0.05)
        inside = np.array([clouds[0][0], clouds[1][0]])
        assert ad_vote(inside, ad) == (True, 2)
        assert ad_vote(inside[::-1], ad) == (False, -2)

    def test_stacked_decisions_agree_with_one_row_decisions(self):
        # K=40 members fitted on fingerprints of every tenth molecule of the
        # n_dims=4 grammar, voting on all of its molecules: each stacked
        # decision has the sign of OneClassSvm.decision on that one row
        molecules = list(enumerate_grammar(FragmentGrammar(n_dims=4)).values())
        ensemble = GnnEnsemble(n_models=40, config=GnnConfig(
            hidden_dim=8, fp_dim=8, mlp_hidden=4), seed=0)
        fps = ensemble.forward(molecules)[0]
        ad = fit_ad_ensemble(list(fps[:, ::10]), nu=0.2)
        assert len({len(svm.alphas) for svm in ad.svms}) > 1
        n_inside = 0
        for h in fps.transpose(1, 0, 2):
            stacked = ad.decisions(h)
            one_row = np.array([svm.decision(row[None])[0]
                                for svm, row in zip(ad.svms, h)])
            assert np.array_equal(stacked >= 0, one_row >= 0)
            assert np.max(np.abs(stacked - one_row)) <= 1e-12
            vote_sum = int(np.sum(np.where(one_row >= 0, 1, -1)))
            assert ad_vote(h, ad) == (vote_sum > 0, vote_sum)
            n_inside += vote_sum > 0
        assert 0 < n_inside < len(molecules)

    def test_training_set_mostly_accepted(self):
        rng = np.random.default_rng(8)
        clouds = [rng.standard_normal((80, 4)) for _ in range(5)]
        ad = fit_ad_ensemble(clouds, nu=0.05)
        accepted = 0
        for i in range(80):
            inside, _ = ad_vote(np.array([c[i] for c in clouds]), ad)
            accepted += inside
        assert accepted / 80 >= 1 - 0.05 - 0.05


class TestGridSearch:
    def test_single_cluster_prefers_small_gamma(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((80, 4))
        gammas = [0.5, 0.1, 0.01, 0.005, 0.001, "scale"]
        svm, table = grid_search_hyperparams(x, gammas, [0.5, 0.1, 0.05])
        assert svm.nu == 0.05
        assert svm.gamma <= scale_gamma(x)

    def test_sv_fraction_at_least_nu(self):
        x = gaussian_cloud(5, n=60)
        _, table = grid_search_hyperparams(x, [0.5, 0.1, "scale"],
                                           [0.5, 0.1, 0.05])
        for row in table:
            assert row["n_support_vectors"] / 60 >= row["nu"] - 0.02

    def test_single_gamma_selected(self):
        x = gaussian_cloud(6, n=50)
        svm, _ = grid_search_hyperparams(x, [0.25], [0.05])
        assert svm.gamma == 0.25

    def test_empty_grid(self):
        with pytest.raises(AdError):
            grid_search_hyperparams(gaussian_cloud(0), [], [0.05])

    @pytest.mark.parametrize("gammas,nus,repeat", [
        ([0.5, 0.1, 0.01, 0.005, 0.001], [0.05, 0.05], "nu 0.05"),
        ([0.5, 0.1, 0.5], [0.05], "gamma 0.5"),
        (["scale", 0.1, "scale"], [0.1, 0.05], "gamma 'scale'"),
    ])
    def test_repeated_value_refused(self, gammas, nus, repeat):
        # a repeat pairs with itself as a plateau: [0.05, 0.05] picked
        # gamma 0.001 where [0.05] picks 0.01
        x = np.random.default_rng(0).standard_normal((80, 4))
        with pytest.raises(AdError, match="repeated %s" % repeat):
            grid_search_hyperparams(x, gammas, nus)

    @pytest.mark.parametrize("gamma", ["scale", 0.1])
    def test_one_point_grid_is_fit_svm(self, gamma):
        x = gaussian_cloud(9, n=60)
        svm, [row] = grid_search_hyperparams(x, [gamma], [0.1])
        assert svm.to_state() == fit_svm(x, 0.1, gamma).to_state()
        assert row["gamma_raw"] == gamma and row["gamma"] == svm.gamma


class TestKernel:
    @pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 600])
    def test_fit_kernel_is_rbf_kernel(self, m):
        # sq_distances and rbf_kernel, built in place in row blocks, give
        # the bytes of the one-expression formula, square or not
        def formula(a, b):
            return np.maximum(np.sum(a * a, axis=1)[:, None]
                              + np.sum(b * b, axis=1)[None, :]
                              - 2.0 * a @ b.T, 0.0)

        x = gaussian_cloud(m, n=m)
        for b in (x, gaussian_cloud(m + 1, n=m // 2 + 3), x[:1]):
            sq = formula(x, b)
            assert adomain.sq_distances(x, b).tobytes() == sq.tobytes()
            for gamma in (0.01, 0.3, 4.0):
                assert rbf_kernel(x, b, gamma).tobytes() \
                    == np.exp(-gamma * sq).tobytes()

    def test_fit_peaks_near_one_kernel(self):
        # the kernel is built in its own buffer: the fit's peak is one
        # m x m kernel plus a block of rows, where rbf_kernel holds two
        m = 1500
        x = gaussian_cloud(5, n=m)
        tracemalloc.start()
        try:
            fit_svm(x, nu=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kernel = 8 * m * m
        block = 8 * m * adomain.FIT_KERNEL_BLOCK
        assert kernel < peak < kernel + block + 2 * 10 ** 6

    def test_rbf_identity(self):
        x = gaussian_cloud(7, n=10)
        k = rbf_kernel(x, x, 0.3)
        assert np.allclose(np.diag(k), 1.0)
        assert np.allclose(k, k.T)
        assert np.all(k > 0)
