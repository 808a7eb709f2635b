import concurrent.futures
import logging
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from moldesign import gnn
from moldesign.gnn import (
    GNN,
    DimensionMismatch,
    EmptyDataset,
    GnnConfig,
    GnnConfigError,
    GnnEnsemble,
    GraphBatch,
    NonFiniteLoss,
    PropertyPrediction,
    TrainConfig,
    TrainConfigError,
    stacked_forward,
    train_ensemble,
    train_model,
)
from moldesign.grammar import FragmentGrammar, enumerate_grammar
from moldesign.molgraph import atom_features, parse_smiles

from graph_helpers import gradient_check, permuted

SMALL = GnnConfig(hidden_dim=8, fp_dim=8, mlp_hidden=4)

MOLECULES = ["C", "CC", "CCO", "COC(C)(C)C", "C1CC1", "CC(C)(C)C=O"]


def reference_loss_and_grad(model, graphs, labels, mask):
    """The graph-at-a-time masked MSE and gradients the batched pass replaces."""
    p = model.params
    n_layers = model.config.n_layers
    n_present = np.asarray(mask).sum()
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    total = 0.0
    for g, y, m in zip(graphs, np.asarray(labels), np.asarray(mask)):
        adj = np.zeros((g.n_atoms, g.n_atoms))
        for u, v, _ in g.bonds:
            adj[u, v] = 1.0
            adj[v, u] = 1.0
        h = atom_features(g)
        hs, zs = [h], []
        for l in range(n_layers):
            z = h @ p["W1_%d" % l] + adj @ h @ p["W2_%d" % l]
            h = np.maximum(z, 0.0)
            zs.append(z)
            hs.append(h)
        fp = h.sum(axis=0)
        a1 = fp @ p["M1"] + p["b1"]
        h1 = np.maximum(a1, 0.0)
        out = h1 @ p["M2"] + p["b2"]
        diff = (out - np.where(m > 0, y, 0.0)) * m
        total += float(diff @ diff)
        dout = 2.0 * diff / n_present
        grads["b2"] += dout
        grads["M2"] += np.outer(h1, dout)
        da1 = (p["M2"] @ dout) * (a1 > 0)
        grads["b1"] += da1
        grads["M1"] += np.outer(fp, da1)
        dh = np.tile(p["M1"] @ da1, (g.n_atoms, 1))
        for l in reversed(range(n_layers)):
            dz = dh * (zs[l] > 0)
            grads["W1_%d" % l] += hs[l].T @ dz
            grads["W2_%d" % l] += (adj @ hs[l]).T @ dz
            dh = dz @ p["W1_%d" % l].T + adj.T @ dz @ p["W2_%d" % l].T
    return total / n_present, grads


@pytest.fixture(scope="module")
def mixed_pool():
    """Molecules of 1 to 9 atoms, methane (no bonds) first."""
    mols = enumerate_grammar(FragmentGrammar(n_dims=4))
    return [parse_smiles("C")] + list(mols.values())


class TestBatchedPass:
    @pytest.mark.parametrize("config", [GnnConfig(), SMALL])
    def test_loss_and_grad_match_graph_at_a_time(self, mixed_pool, config):
        rng = np.random.default_rng(0)
        for trial in range(10):
            model = GNN(config, seed=trial)
            size = int(rng.integers(1, 48))
            graphs = [mixed_pool[i]
                      for i in rng.integers(0, len(mixed_pool), size=size)]
            graphs[int(rng.integers(size))] = mixed_pool[0]
            labels = rng.normal(size=(size, 3))
            mask = (rng.random((size, 3)) < 0.6).astype(float)
            mask[0, 0] = 1.0
            loss, grads = model.loss_and_grad(GraphBatch.of(graphs), labels,
                                              mask)
            ref_loss, ref_grads = reference_loss_and_grad(
                model, graphs, labels, mask)
            assert loss == ref_loss
            assert grads.keys() == ref_grads.keys()
            for k in grads:
                assert np.array_equal(grads[k], ref_grads[k]), k

    def test_batch_rows_equal_single_graph_forward(self, mixed_pool):
        model = GNN(seed=4)
        graphs = mixed_pool[::7] + mixed_pool[:3]
        fps, _, _, outs = stacked_forward(model.params, model.config.n_layers,
                                          GraphBatch.of(graphs))
        assert fps.shape == (len(graphs), model.config.fp_dim)
        for g, fp, out in zip(graphs, fps, outs):
            fp1, out1 = model.forward(g)
            assert np.array_equal(fp, fp1)
            assert np.array_equal(out, out1)

    def test_groups_hold_batch_positions(self, mixed_pool):
        graphs = [mixed_pool[0], mixed_pool[5], mixed_pool[0], mixed_pool[9]]
        batch = GraphBatch.of(graphs)
        assert batch.n_graphs == 4
        seen = []
        for pos, x, adj in batch.groups:
            n = x.shape[1]
            assert {graphs[i].n_atoms for i in pos} == {n}
            assert adj.shape == (len(pos), n, n)
            seen.extend(pos.tolist())
        assert sorted(seen) == [0, 1, 2, 3]


class TestForward:
    def test_zero_weights_give_bias_image(self):
        model = GNN(SMALL, seed=0)
        for k in model.params:
            model.params[k] = np.zeros_like(model.params[k])
        model.params["b2"] = np.array([1.0, 2.0, 3.0])
        fp, out = model.forward(parse_smiles("CCO"))
        assert np.all(fp == 0.0)
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_single_atom_no_neighbors(self):
        cfg = GnnConfig(hidden_dim=4, fp_dim=4, n_layers=1, mlp_hidden=4)
        model = GNN(cfg, seed=0)
        model.params["W1_0"] = np.eye(4)
        model.params["W2_0"] = np.zeros((4, 4))
        fp, _ = model.forward(parse_smiles("C"))
        # methane features: [1, 0, 4 H, 0 degree], ReLU is identity here
        assert fp.tolist() == [1.0, 0.0, 4.0, 0.0]

    def test_permutation_invariance(self):
        model = GNN(SMALL, seed=1)
        rng = np.random.default_rng(2)
        for smiles in MOLECULES:
            g = parse_smiles(smiles)
            fp, out = model.forward(g)
            for _ in range(50):
                perm = list(rng.permutation(g.n_atoms))
                fp2, out2 = model.forward(permuted(g, perm))
                assert np.max(np.abs(fp - fp2)) < 1e-9
                assert np.max(np.abs(out - out2)) < 1e-9

    def test_os_identity(self):
        model = GNN(SMALL, seed=3)
        pred = PropertyPrediction(
            *map(float, model.forward(parse_smiles("CCO"))[1]))
        assert pred.os == pred.ron - pred.mon
        assert pred.score == 2 * pred.ron - pred.mon

    def test_dimension_mismatch(self):
        # the input width is the atom feature width, so a mismatch can
        # only come from a hand-built batch
        model = GNN(SMALL, seed=0)
        with pytest.raises(DimensionMismatch):
            stacked_forward(model.params, model.config.n_layers,
                            GraphBatch([(np.zeros((2, 7)), np.eye(2)[::-1])]))


class TestEnsemble:
    def test_k1_equals_single_model(self):
        ens = GnnEnsemble(n_models=1, config=SMALL, seed=5)
        g = parse_smiles("COC(C)(C)C")
        single = PropertyPrediction(*map(float, ens.models[0].forward(g)[1]))
        mean = ens.predict(g)
        assert mean == single

    def test_mean_is_arithmetic(self):
        ens = GnnEnsemble(n_models=2, config=SMALL, seed=0)
        g = parse_smiles("CC")
        # with M2 = 0 each member's output is its b2
        for m, b2 in zip(ens.models, ([100.0, 90.0, 50.0],
                                      [110.0, 100.0, 60.0])):
            m.params["M2"][:] = 0.0
            m.params["b2"][:] = b2
        pred = ens.predict(g)
        assert (pred.ron, pred.mon, pred.dcn) == (105.0, 95.0, 55.0)
        assert pred.os == 10.0

    def test_stacked_pass_equals_per_model_forward(self, mixed_pool):
        graphs = mixed_pool[::5]
        data = [(g, {"ron": float(i), "mon": None, "dcn": 1.0})
                for i, g in enumerate(graphs)]
        batch = GraphBatch.of(graphs)

        def assert_equal(ens):
            fps, outs = ens.forward(graphs)
            assert fps.shape == (ens.n_models, len(graphs), SMALL.fp_dim)
            for m, fp, out in zip(ens.models, fps, outs):
                ref_fp, _, _, ref_out = stacked_forward(
                    m.params, m.config.n_layers, batch)
                assert np.array_equal(fp, ref_fp)
                assert np.array_equal(out, ref_out)
            return outs

        ens = GnnEnsemble(n_models=4, config=SMALL, seed=2)
        fresh = assert_equal(ens)
        ens.evaluate(graphs[0])
        train_ensemble(data, ens, TrainConfig(epochs=3))
        trained = assert_equal(ens)
        assert not np.array_equal(trained, fresh)
        clone = GnnEnsemble.from_state(ens.to_state())
        assert np.array_equal(assert_equal(clone), trained)
        ens.models = ens.models[1:]
        assert np.array_equal(assert_equal(ens), trained[1:])

    def test_mean_bounded_by_members(self):
        ens = GnnEnsemble(n_models=5, config=SMALL, seed=9)
        for smiles in MOLECULES:
            g = parse_smiles(smiles)
            outs = np.array([m.forward(g)[1] for m in ens.models])
            mean = ens.predict(g)
            for i, v in enumerate((mean.ron, mean.mon, mean.dcn)):
                assert outs[:, i].min() <= v <= outs[:, i].max()

    def test_empty_ensemble(self):
        with pytest.raises(gnn.EmptyEnsemble):
            GnnEnsemble(n_models=0)

    @pytest.mark.parametrize("config", [GnnConfig(), SMALL])
    def test_evaluate_is_fingerprints_and_predict(self, config):
        ens = GnnEnsemble(n_models=3, config=config, seed=4)
        for smiles in MOLECULES:
            g = parse_smiles(smiles)
            fps, pred = ens.evaluate(g)
            expected = ens.fingerprints(g)
            assert len(fps) == len(expected) == 3
            for a, b, m in zip(fps, expected, ens.models):
                assert np.array_equal(a, b)
                assert np.array_equal(a, m.fingerprint(g))
            assert pred == ens.predict(g)
            outs = np.array([m.forward(g)[1] for m in ens.models])
            assert (pred.ron, pred.mon, pred.dcn) == \
                tuple(float(v) for v in outs.mean(axis=0))


class TestTraining:
    def test_memorize_single_molecule(self):
        model = GNN(SMALL, seed=0)
        data = [(parse_smiles("CCO"), {"ron": 100.0, "mon": None, "dcn": None})]
        hist = train_model(model, data, TrainConfig(epochs=400,
                                                    learning_rate=1e-2))
        assert hist[-1] < 1e-4

    def test_synthetic_labels(self):
        mols = [parse_smiles(s) for s in
                ["C", "CC", "CCC", "CCO", "COC", "C1CC1", "C1CCCC1", "CC=O",
                 "CCCO", "COC(C)C", "CC(C)C", "OCCO", "C1CC1C", "CCCC",
                 "CC(C)(C)C", "C1CCCCC1", "OC1CC1", "CC(C)O", "CCOC", "CC(C)=O"]]
        data = [(g, {"ron": 10.0 * g.count("O") + 2.0 * g.n_rings,
                     "mon": None, "dcn": None}) for g in mols]
        model = GNN(seed=1)
        train_model(model, data, TrainConfig(epochs=400, learning_rate=4e-3))
        mae = np.mean([abs(model.forward(g)[1][0] - y["ron"])
                       for g, y in data])
        assert mae < 0.5

    def test_masked_task_gets_zero_gradient(self):
        model = GNN(SMALL, seed=2)
        g = parse_smiles("CC")
        # RON label only: columns of M2/b2 for MON and DCN see no gradient
        _, grads = model.loss_and_grad(
            GraphBatch.of([g]), [[100.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
        assert np.all(grads["M2"][:, 1:] == 0.0)
        assert np.all(grads["b2"][1:] == 0.0)

    def test_empty_dataset(self):
        model = GNN(SMALL, seed=0)
        with pytest.raises(EmptyDataset):
            train_model(model, [], TrainConfig(epochs=1))

    def test_deterministic_training(self):
        data = [(parse_smiles(s), {"ron": float(i), "mon": None, "dcn": None})
                for i, s in enumerate(MOLECULES)]
        weights = []
        for _ in range(2):
            ens = GnnEnsemble(n_models=2, config=SMALL, seed=42)
            train_ensemble(data, ens, TrainConfig(epochs=20))
            weights.append(ens.to_state())
        assert weights[0] == weights[1]

    def test_batch_beyond_sample_count_is_full_batch(self):
        data = [(parse_smiles(s), {"ron": float(i), "mon": None, "dcn": None})
                for i, s in enumerate(MOLECULES)]
        states = []
        for batch_size in (len(data), 10 ** 6):
            model = GNN(SMALL, seed=3)
            train_model(model, data, TrainConfig(epochs=5,
                                                 batch_size=batch_size))
            states.append(model.to_state())
        assert states[0] == states[1]

    def test_bootstrap_differs_across_members(self):
        data = [(parse_smiles(s), {"ron": float(i), "mon": None, "dcn": None})
                for i, s in enumerate(MOLECULES)]
        ens = GnnEnsemble(n_models=2, config=SMALL, seed=0)
        train_ensemble(data, ens, TrainConfig(epochs=5))
        w0 = ens.models[0].params["M2"]
        w1 = ens.models[1].params["M2"]
        assert not np.allclose(w0, w1)


def train_in_turn(data, ens, cfg):
    """The reference for train_ensemble: each member trained in this
    process, one after another, on the same bootstrap resample."""
    n = len(data)
    histories = []
    for model in ens.models:
        idx = np.random.default_rng(model.seed).integers(0, n, size=n)
        histories.append(train_model(model, [data[j] for j in idx], cfg))
    return histories


class _CountingPool(concurrent.futures.ProcessPoolExecutor):
    """Records the worker processes of each pool as it shuts down."""

    workers = []

    def shutdown(self, *args, **kwargs):
        self.workers.append(len(self._processes))
        super().shutdown(*args, **kwargs)


class TestWorkerTraining:
    CFG = TrainConfig(epochs=4, learning_rate=4e-3, batch_size=5)

    @pytest.fixture
    def data(self, mixed_pool):
        graphs = mixed_pool[:14]
        return [(g, {"ron": float(i), "mon": None if i % 3 else 2.0 * i,
                     "dcn": 1.0}) for i, g in enumerate(graphs)]

    @pytest.mark.parametrize("n_models, cpus", [
        (1, None), (3, None), (5, None), (3, {0}), (5, {0}), (3, range(8))])
    def test_bit_identical_to_training_in_turn(self, data, monkeypatch,
                                               n_models, cpus):
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(cpus))
        monkeypatch.setattr(_CountingPool, "workers", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _CountingPool)
        ens = GnnEnsemble(n_models=n_models, config=SMALL, seed=5)
        ref = GnnEnsemble(n_models=n_models, config=SMALL, seed=5)
        histories = train_ensemble(data, ens, self.CFG)
        assert _CountingPool.workers == [
            min(n_models, len(os.sched_getaffinity(0)))]
        assert histories == train_in_turn(data, ref, self.CFG)
        for k, stack in ens._stack.items():
            assert np.array_equal(stack, ref._stack[k])
        # the ensemble's own pass runs on its stacks, so this shows the
        # workers' weights reached them
        graphs = [g for g, _ in data]
        fps, outs = ens.forward(graphs)
        batch = GraphBatch.of(graphs)
        for fp, out, m in zip(fps, outs, ref.models):
            ref_fp, _, _, ref_out = stacked_forward(
                m.params, m.config.n_layers, batch)
            assert np.array_equal(fp, ref_fp)
            assert np.array_equal(out, ref_out)

    def test_non_finite_loss_crosses_processes(self):
        err = pickle.loads(pickle.dumps(NonFiniteLoss(3)))
        assert type(err) is NonFiniteLoss
        assert err.epoch == 3
        assert str(err) == "training loss became non-finite at epoch 3"

    def test_diverging_member_raises_in_the_parent(self):
        data = [(parse_smiles("CCO"), {"ron": 100.0, "mon": 90.0,
                                       "dcn": None})]
        cfg = TrainConfig(epochs=5, learning_rate=1e300)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteLoss) as in_turn:
                train_model(GNN(SMALL, seed=0), data, cfg)
            with pytest.raises(NonFiniteLoss) as pooled:
                train_ensemble(data, GnnEnsemble(2, SMALL, seed=0), cfg)
        assert pooled.value.epoch == in_turn.value.epoch == 2
        assert str(pooled.value) == str(in_turn.value)

    def test_import_loads_no_process_pool(self):
        # the pool's modules load when train_ensemble runs, not on import
        script = ("import sys, moldesign; print(sorted(m for m in ("
                  "'multiprocessing', 'concurrent.futures.process') "
                  "if m in sys.modules))")
        src = os.path.dirname(os.path.dirname(gnn.__file__))
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "[]"


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"epochs": -1},
        {"epochs": 2.5},
        {"batch_size": 0},
        {"batch_size": -3},
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"learning_rate": 0.0},
        {"batch_size": None},   # any batch_size >= the row count is full
        {"batch_size": 2.0},
        {"epochs": None},
        {"epochs": True},
        {"learning_rate": None},
        {"learning_rate": -1e-3},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(TrainConfigError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("key", ["bootstrap", "normalize_labels",
                                     "cosine_decay", "adam_beta1",
                                     "adam_beta2", "adam_eps"])
    def test_fixed_choices_are_not_fields(self, key):
        with pytest.raises(TypeError):
            TrainConfig(**{key: False})

    def test_accepted(self):
        TrainConfig(epochs=1, batch_size=10 ** 6)
        TrainConfig(batch_size=1, learning_rate=np.float64(0.5))

    def test_is_gnn_error(self):
        assert issubclass(TrainConfigError, gnn.GnnError)


class TestGnnConfig:
    @pytest.mark.parametrize("kwargs", [
        {"hidden_dim": 0},
        {"hidden_dim": -4},
        {"fp_dim": 2.5},
        {"fp_dim": "8"},
        {"n_layers": 0},
        {"mlp_hidden": None},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(GnnConfigError):
            GnnConfig(**kwargs)

    def test_accepted(self):
        GnnConfig(hidden_dim=1, fp_dim=1, n_layers=1, mlp_hidden=1)

    def test_older_checkpoint_config_loads(self):
        model = GNN(SMALL, seed=0)
        state = model.to_state()
        state["config"].update(in_dim=4, n_tasks=3)
        loaded = GNN.from_state(state)
        assert vars(loaded.config) == vars(SMALL)
        g = parse_smiles("CC(C)O")
        assert np.array_equal(loaded.forward(g)[1], model.forward(g)[1])

    @pytest.mark.parametrize("value", [7, 4.0])
    def test_older_checkpoint_in_dim_is_checked(self, value):
        state = GNN(SMALL, seed=0).to_state()
        state["config"]["in_dim"] = value
        with pytest.raises(GnnConfigError, match="in_dim"):
            GNN.from_state(state)

    @pytest.mark.parametrize("key", ["in_dim", "n_tasks"])
    def test_fixed_widths_are_not_fields(self, key):
        with pytest.raises(TypeError):
            GnnConfig(**{key: 4})

    def test_checkpoint_state_is_checked(self):
        state = GNN(SMALL, seed=0).to_state()
        state["config"]["n_tasks"] = 2
        with pytest.raises(GnnConfigError):
            GNN.from_state(state)

    def test_is_gnn_error(self):
        assert issubclass(GnnConfigError, gnn.GnnError)


class TestProgressLog:
    def test_logs_every_tenth_and_last_epoch(self, caplog):
        model = GNN(SMALL, seed=6)
        data = [(parse_smiles(s), {"ron": float(i), "mon": None, "dcn": None})
                for i, s in enumerate(MOLECULES)]
        with caplog.at_level(logging.INFO, logger="moldesign"):
            hist = train_model(model, data, TrainConfig(epochs=25))
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "moldesign"]
        # every max(1, 25 // 10) = 2 epochs, plus the last one
        assert len(lines) == 13
        assert lines[0] == "model seed 6, epoch 2/25, loss %.6g" % hist[1]
        assert lines[-1] == "model seed 6, epoch 25/25, loss %.6g" % hist[-1]

    def test_quiet_at_warning(self, caplog):
        model = GNN(SMALL, seed=6)
        data = [(parse_smiles("CC"), {"ron": 1.0, "mon": None, "dcn": None})]
        with caplog.at_level(logging.WARNING, logger="moldesign"):
            train_model(model, data, TrainConfig(epochs=3))
        assert not caplog.records


class TestGradients:
    def test_random_model_mtbe(self):
        model = GNN(SMALL, seed=7)
        err = gradient_check(model, parse_smiles("COC(C)(C)C"))
        assert err < 1e-4

    def test_full_size_model(self):
        model = GNN(seed=11)
        err = gradient_check(model, parse_smiles("CC(C)(C)C=O"))
        assert err < 1e-4

    def test_dead_relu_path(self):
        model = GNN(SMALL, seed=0)
        # force the first hidden unit dead: large negative bias via weights
        model.params["M1"][:, 0] = -100.0
        g = parse_smiles("CC")
        _, grads = model.loss_and_grad(
            GraphBatch.of([g]), [np.ones(3)], [np.ones(3)])
        # dead unit: gradient through M1 column 0 is exactly zero
        assert np.all(grads["M1"][:, 0] == 0.0)


class TestCheckpoint:
    def test_state_round_trip_bit_exact(self):
        ens = GnnEnsemble(n_models=3, config=SMALL, seed=13)
        state = ens.to_state()
        clone = GnnEnsemble.from_state(state)
        g = parse_smiles("CCOC(C)(C)C")
        assert clone.predict(g) == ens.predict(g)
        for a, b in zip(ens.models, clone.models):
            for k in a.params:
                assert np.array_equal(a.params[k], b.params[k])
