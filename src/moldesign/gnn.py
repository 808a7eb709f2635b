"""Message-passing GNN ensemble for RON/MON/DCN prediction.

Each model stacks graph-convolution layers
    h_v' = ReLU(h_v W1 + sum_{u in N(v)} h_u W2),
sum-pools the final node states into a molecular fingerprint, and feeds
the fingerprint through a small MLP with three output heads. Training is
minibatch Adam (32 graphs per step by default, cosine-annealed step size)
on a masked MSE (missing labels contribute nothing); all gradients are
analytic.

Training, prediction and fingerprints share one forward pass,
stacked_forward, over a GraphBatch: the graphs grouped by atom count,
each group a stack of feature matrices (b, n, ATOM_FEATURE_DIM) and
adjacency matrices (b, n, n), with no padding. An ensemble stacks its
members' weights on a model axis, (K, 1, ...), and runs all K members in
one pass of the same code, with matmuls of shape
(K, b, n, d) @ (K, 1, d, d'); a single model's weights have no model axis.
Every matrix product runs per model and graph on the shapes a one-graph,
one-model pass would use, and sums across graphs run in batch order, so a
batched result equals the graph-at-a-time, model-at-a-time result bit for
bit. Padding would not: BLAS orders its sums by the contracted dimension.

train_ensemble trains the members at the same time, in processes forked
from the caller, one per CPU up to one per member. Each member trains from
its own seed on its own resample, as in one process, so the weights are
the same bits either way.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from . import molgraph
from .checks import ConfigError, is_int, is_real

log = logging.getLogger("moldesign")

TASKS = ("ron", "mon", "dcn")


class GnnError(Exception):
    pass


class DimensionMismatch(GnnError):
    pass


class EmptyEnsemble(GnnError):
    pass


class EmptyDataset(GnnError):
    pass


class GnnConfigError(GnnError, ConfigError):
    pass


class TrainConfigError(GnnError, ConfigError):
    pass


class NonFiniteLoss(GnnError):
    def __init__(self, epoch):
        super().__init__("training loss became non-finite at epoch %d" % epoch)
        self.epoch = epoch

    def __reduce__(self):
        # rebuilt from the epoch, not the message, so that a training
        # worker's error reaches the parent process as this type
        return type(self), (self.epoch,)


@dataclass(frozen=True)
class PropertyPrediction:
    ron: float
    mon: float
    dcn: float

    @property
    def os(self):
        return self.ron - self.mon

    @property
    def score(self):
        """Design objective RON + OS = 2 RON - MON."""
        return 2.0 * self.ron - self.mon


@dataclass
class GnnConfig:
    """Layer widths; the input width is molgraph.ATOM_FEATURE_DIM and the
    output has one head per entry of TASKS."""

    hidden_dim: int = 32
    fp_dim: int = 32
    n_layers: int = 3
    mlp_hidden: int = 16

    def __post_init__(self):
        for name, value in vars(self).items():
            if not is_int(value, 1):
                raise GnnConfigError("%s must be an integer >= 1" % name)


def graph_arrays(g):
    """(features, dense 0/1 adjacency) of a MolecularGraph or grammar.State."""
    adj = np.zeros((len(g.atoms), len(g.atoms)))
    for u, v, _ in g.bonds:
        adj[u, v] = adj[v, u] = 1.0
    return molgraph.atom_features(g), adj


class GraphBatch:
    """Graphs grouped by atom count, without padding.

    groups: one (pos, X, A) per atom count n, where pos holds the batch
    positions of the group's b graphs in batch order, X their stacked
    features (b, n, ATOM_FEATURE_DIM) and A their adjacency matrices
    (b, n, n).
    """

    def __init__(self, arrays):
        """arrays: one (features, adjacency) pair per graph, in batch order."""
        by_size = {}
        for i, (x, _) in enumerate(arrays):
            by_size.setdefault(len(x), []).append(i)
        self.n_graphs = len(arrays)
        self.groups = [(np.array(pos),
                        np.stack([arrays[i][0] for i in pos]),
                        np.stack([arrays[i][1] for i in pos]))
                       for pos in by_size.values()]

    @classmethod
    def of(cls, graphs):
        return cls([graph_arrays(g) for g in graphs])


def stacked_forward(params, n_layers, batch, layers=None):
    """The forward pass of one model, or of K models at once, over a
    GraphBatch.

    params holds one model's weights, or each weight of K models stacked
    as (K, 1, ...): a model axis, then an axis that broadcasts over the
    graphs of a group. Returns the fingerprints and the head activations
    a1, h1, out as (n_graphs, ...) arrays in batch order, each with the
    model axis in front for K models. When layers is a list, one
    (inputs, A @ inputs, pre-activations) triple of per-layer lists is
    appended to it per group for the backward pass; otherwise they are
    dropped as the pass goes.
    """
    models = params["b2"].shape[:-2]   # () for one model, (K,) for K
    fp = np.empty(models + (batch.n_graphs, params["M1"].shape[-2]))
    for pos, x, adj in batch.groups:
        if x.shape[2] != molgraph.ATOM_FEATURE_DIM:
            raise DimensionMismatch("feature dim %d != %d" % (
                x.shape[2], molgraph.ATOM_FEATURE_DIM))
        # the inputs are shared by all models, so A @ x runs once; from
        # layer 1 on, h is (K, b, n, d) for K models
        h, hs, ahs, zs = x, [], [], []
        for l in range(n_layers):
            ah = adj @ h
            # per model and graph, the (n, d) @ (d, d') product of a
            # one-graph, one-model pass
            z = h @ params["W1_%d" % l] + ah @ params["W2_%d" % l]
            if layers is not None:
                hs.append(h)
                ahs.append(ah)
                zs.append(z)
            h = np.maximum(z, 0.0)
        fp[..., pos, :] = h.sum(axis=-2)
        if layers is not None:
            layers.append((hs, ahs, zs))
    # (1, d) @ (d, k) per model and graph, the shapes of a one-graph pass
    a1 = (fp[..., None, :] @ params["M1"])[..., 0, :] + params["b1"]
    h1 = np.maximum(a1, 0.0)
    out = (h1[..., None, :] @ params["M2"])[..., 0, :] + params["b2"]
    return fp, a1, h1, out


def param_shapes(c):
    """The shape of each weight of a GNN with GnnConfig c, in the order
    GNN.__init__ draws them."""
    dims = [molgraph.ATOM_FEATURE_DIM] \
        + [c.hidden_dim] * (c.n_layers - 1) + [c.fp_dim]
    shapes = {"W%d_%d" % (i, l): (dims[l], dims[l + 1])
              for l in range(c.n_layers) for i in (1, 2)}
    return {**shapes, "M1": (c.fp_dim, c.mlp_hidden), "b1": (c.mlp_hidden,),
            "M2": (c.mlp_hidden, len(TASKS)), "b2": (len(TASKS),)}


class GNN:
    """One message-passing model. Weights live in a flat dict of arrays."""

    def __init__(self, config=None, seed=0):
        self.config = config or GnnConfig()
        self.seed = seed
        rng = np.random.default_rng(seed)
        # small positive bias keeps fresh hidden units off the ReLU kink
        bias = {"b1": 0.1, "b2": 0.0}
        self.params = {k: np.full(shape, bias[k]) if k in bias
                       else _uniform_init(rng, *shape)
                       for k, shape in param_shapes(self.config).items()}

    def forward(self, g):
        """(fingerprint, raw prediction vector [ron, mon, dcn]) of one
        graph."""
        fp, _, _, out = stacked_forward(self.params, self.config.n_layers,
                                        GraphBatch.of([g]))
        return fp[0], out[0]

    def fingerprint(self, g):
        return self.forward(g)[0]

    def loss_and_grad(self, batch, labels, mask):
        """Masked MSE over all present labels, plus parameter gradients.

        batch: a GraphBatch. labels, mask: arrays of shape
        (batch.n_graphs, len(TASKS)) in batch order; masked-out entries
        contribute zero loss and zero gradient.
        """
        labels = np.asarray(labels, dtype=float)
        mask = np.asarray(mask, dtype=float)
        n_present = mask.sum()
        if n_present == 0:
            raise EmptyDataset("no labels present")
        p = self.params
        layers = []
        fp, a1, h1, out = stacked_forward(p, self.config.n_layers, batch,
                                          layers)
        diff = (out - np.where(mask > 0, labels, 0.0)) * mask
        # The loss and every gradient add up per-graph terms in batch
        # order, as a loop over one graph at a time would: a different
        # order changes the rounding, and training amplifies it.
        total = 0.0
        for d in diff:
            total += float(d @ d)
        dout = 2.0 * diff / n_present
        grads = {"b2": dout.sum(axis=0),
                 "M2": (h1[:, :, None] * dout[:, None, :]).sum(axis=0)}
        da1 = (p["M2"] @ dout[:, :, None])[:, :, 0] * (a1 > 0)
        grads["b1"] = da1.sum(axis=0)
        grads["M1"] = (fp[:, :, None] * da1[:, None, :]).sum(axis=0)
        dfp = (p["M1"] @ da1[:, :, None])[:, :, 0]
        terms = {k: np.empty((batch.n_graphs,) + p[k].shape)
                 for k in p if k.startswith("W")}
        for (pos, _, adj), (hs, ahs, zs) in zip(batch.groups, layers):
            dh = dfp[pos][:, None, :]  # the pooled gradient reaches every atom
            for l in reversed(range(self.config.n_layers)):
                dz = dh * (zs[l] > 0)
                terms["W1_%d" % l][pos] = hs[l].transpose(0, 2, 1) @ dz
                terms["W2_%d" % l][pos] = ahs[l].transpose(0, 2, 1) @ dz
                if l:
                    dh = dz @ p["W1_%d" % l].T \
                        + adj.transpose(0, 2, 1) @ dz @ p["W2_%d" % l].T
        for k, t in terms.items():
            grads[k] = t.sum(axis=0)
        return total / n_present, grads

    def to_state(self):
        return {
            "config": vars(self.config).copy(),
            "seed": self.seed,
            "params": {k: v.tolist() for k, v in self.params.items()},
        }

    @classmethod
    def from_state(cls, state):
        model = cls.__new__(cls)
        config = dict(state["config"])
        # older checkpoints store the input width and head count in the
        # config; they load when the values match the constants
        for name, fixed in (("in_dim", molgraph.ATOM_FEATURE_DIM),
                            ("n_tasks", len(TASKS))):
            value = config.pop(name, fixed)
            if not (is_int(value, 1) and value == fixed):
                raise GnnConfigError("%s must be %d" % (name, fixed))
        model.config = GnnConfig(**config)
        model.seed = state["seed"]
        want = param_shapes(model.config)
        model.params = {k: np.array(v, dtype=float)
                        for k, v in state["params"].items()}
        for k in sorted(want.keys() | model.params.keys()):
            got = model.params[k].shape if k in model.params else None
            if got != want.get(k):
                raise DimensionMismatch("param %s has shape %s; the config "
                                        "needs %s" % (k, got, want.get(k)))
        return model


def _uniform_init(rng, fan_in, fan_out):
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


FORWARD_CHUNK = 32   # graphs per stacked pass in GnnEnsemble.forward


class GnnEnsemble:
    """K independently seeded models; predictions are averaged.

    Each weight of the K members is held as one stacked array, (K, 1, ...),
    and each member's params are views into those stacks, so one
    stacked_forward serves the whole ensemble and in-place updates of a
    member's weights, as training makes, reach the stacks. Assigning models
    builds the stacks anew.
    """

    def __init__(self, n_models=40, config=None, seed=0):
        self.seed = seed
        self.models = [GNN(config, seed=seed + i) for i in range(n_models)]

    @property
    def models(self):
        return self._models

    @models.setter
    def models(self, models):
        models = tuple(models)
        if not models:
            raise EmptyEnsemble("ensemble needs at least one model")
        self._stack = {k: np.stack([m.params[k] for m in models])[:, None]
                       for k in models[0].params}
        for i, m in enumerate(models):
            m.params = {k: a[i, 0] for k, a in self._stack.items()}
        self._models = models

    @property
    def n_models(self):
        return len(self.models)

    def forward(self, graphs):
        """(fingerprints, raw predictions) of every model for a list of
        graphs, as (K, n_graphs, ...) arrays in model and graph order.

        The graphs go through stacked_forward FORWARD_CHUNK at a time: its
        activations grow as K x graphs x atoms x width, and one pass of the
        40-model ensemble over 2,324 molecules peaked at 650 MB.
        """
        n_layers = self.models[0].config.n_layers
        parts = [stacked_forward(self._stack, n_layers,
                                 GraphBatch.of(graphs[i:i + FORWARD_CHUNK]))
                 for i in range(0, len(graphs), FORWARD_CHUNK)]
        return (np.concatenate([p[0] for p in parts], axis=1),
                np.concatenate([p[3] for p in parts], axis=1))

    def evaluate(self, g):
        """(fingerprints, mean prediction) of one graph, from one stacked
        pass over a one-graph batch; the fingerprints are a (K, fp_dim)
        array with row k from model k."""
        fp, out = self.forward([g])
        mean = out.mean(axis=0).ravel()  # (K, 1, 3) -> (3,)
        return fp[:, 0], PropertyPrediction(*map(float, mean))

    def predict(self, g):
        return self.evaluate(g)[1]

    def fingerprints(self, g):
        """The (K, fp_dim) fingerprints of one graph, row k from model k."""
        return self.evaluate(g)[0]

    def to_state(self):
        return {"seed": self.seed, "models": [m.to_state() for m in self.models]}

    @classmethod
    def from_state(cls, state):
        ens = cls.__new__(cls)
        ens.seed = state["seed"]
        ens.models = [GNN.from_state(s) for s in state["models"]]
        return ens


# Adam's moment decay rates and the guard of its step's denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 500
    learning_rate: float = 1e-3
    batch_size: int = 32        # >= the sample count: full batch

    def __post_init__(self):
        if not is_int(self.epochs, 1):
            raise TrainConfigError("epochs must be an integer >= 1")
        if not is_int(self.batch_size, 1):
            raise TrainConfigError("batch_size must be an integer >= 1")
        if not (is_real(self.learning_rate) and self.learning_rate > 0):
            raise TrainConfigError("learning_rate must be finite and > 0")


def _prepare_data(data):
    graphs, labels, mask = [], [], []
    for g, lab in data:
        row = [lab.get(t) for t in TASKS]
        if all(v is None for v in row):
            raise EmptyDataset("sample without any label")
        graphs.append(g)
        labels.append([0.0 if v is None else float(v) for v in row])
        mask.append([0.0 if v is None else 1.0 for v in row])
    if not graphs:
        raise EmptyDataset("empty training set")
    return graphs, np.array(labels), np.array(mask)


def train_model(model, data, cfg=None):
    """Minibatch Adam (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) on the masked MSE.
    Returns the per-epoch loss history.

    Each epoch visits the samples in a fresh shuffled order, cfg.batch_size
    at a time (all at once, in input order, when that is at least the
    sample count). Each graph is featurised once per call; a minibatch
    only stacks the cached arrays. Progress goes to
    the "moldesign" logger at INFO every tenth of the run. Labels are
    standardized per task during optimization; the affine transform is
    folded back into the output layer afterwards, so the trained model
    predicts in raw units.
    """
    cfg = cfg or TrainConfig()
    graphs, labels, mask = _prepare_data(data)
    shift = np.zeros(labels.shape[1])
    scale = np.ones(labels.shape[1])
    for t in range(labels.shape[1]):
        present = mask[:, t] > 0
        if present.any():
            shift[t] = labels[present, t].mean()
            std = labels[present, t].std()
            scale[t] = std if std > 1e-8 else 1.0
    labels = (labels - shift) / scale
    m_state = {k: np.zeros_like(v) for k, v in model.params.items()}
    v_state = {k: np.zeros_like(v) for k, v in model.params.items()}
    history = []
    arrays = [graph_arrays(g) for g in graphs]
    log_every = max(1, cfg.epochs // 10)
    n = len(graphs)
    bs = min(cfg.batch_size, n)
    shuffle_rng = np.random.default_rng(model.seed + 10 ** 6)
    step = 0
    total_steps = cfg.epochs * ((n + bs - 1) // bs)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n) if bs < n else np.arange(n)
        epoch_loss = 0.0
        # a diverging run overflows to inf and nan in the arithmetic;
        # the finite-loss check below is its one report
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, bs):
                idx = order[lo:lo + bs]
                loss, grads = model.loss_and_grad(
                    GraphBatch([arrays[i] for i in idx]), labels[idx],
                    mask[idx])
                if not np.isfinite(loss):
                    raise NonFiniteLoss(epoch)
                epoch_loss += loss * mask[idx].sum()
                step += 1
                # cosine annealing of the step size to 0 over the run
                lr = cfg.learning_rate * (
                    0.5 * (1.0 + np.cos(np.pi * (step - 1) / total_steps)))
                for k in model.params:
                    m_state[k] = ADAM_BETA1 * m_state[k] \
                        + (1 - ADAM_BETA1) * grads[k]
                    v_state[k] = ADAM_BETA2 * v_state[k] \
                        + (1 - ADAM_BETA2) * grads[k] ** 2
                    m_hat = m_state[k] / (1 - ADAM_BETA1 ** step)
                    v_hat = v_state[k] / (1 - ADAM_BETA2 ** step)
                    model.params[k] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        history.append(epoch_loss / mask.sum())
        if epoch % log_every == 0 or epoch == cfg.epochs:
            log.info("model seed %d, epoch %d/%d, loss %.6g",
                     model.seed, epoch, cfg.epochs, history[-1])
    # in place: an ensemble member's params are views into its stacks
    model.params["M2"] *= scale[None, :]
    model.params["b2"] *= scale
    model.params["b2"] += shift
    return history


def train_ensemble(data, ensemble, cfg=None):
    """Train each member on its own bootstrap resample, in worker processes.

    The members train in a pool of min(K, CPUs this process may run on)
    processes forked from this one, each inheriting data, the members and
    cfg. A worker runs train_model on the members it is handed and sends
    back each one's weights and loss history; the weights are written into
    the ensemble's stacks in place, in member order. A member's resample
    and shuffles come from its own seed and no member reads another's
    state, so the weights and histories are, bit for bit, those of training
    the members one after another in this process. Each worker holds the
    training state of the member it is on, and copies of the inherited
    pages it touches.

    Returns per-model loss histories.
    """
    import concurrent.futures
    import multiprocessing

    cfg = cfg or TrainConfig()
    if not data:
        raise EmptyDataset("empty training set")
    models = ensemble.models
    workers = min(len(models), len(os.sched_getaffinity(0)))
    histories = []
    with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(data, models, cfg)) as pool:
        trained = pool.map(_train_member, range(len(models)))
        for model, (params, history) in zip(models, trained):
            for k, v in params.items():
                model.params[k][...] = v   # a view into the stacks
            histories.append(history)
    return histories


_worker_inputs = None   # (data, models, cfg), set only in a training worker


def _start_worker(data, models, cfg):
    global _worker_inputs
    _worker_inputs = data, models, cfg


def _train_member(i):
    """(weights, loss history) of member i, trained in a worker."""
    data, models, cfg = _worker_inputs
    model = models[i]
    n = len(data)
    idx = np.random.default_rng(model.seed).integers(0, n, size=n)
    history = train_model(model, [data[j] for j in idx], cfg)
    return model.params, history
