"""Versioned checkpoint container: GNN weights and AD SVMs.

Stored as JSON; float round-tripping through repr keeps reloads
bit-exact. A load refuses NaN and infinite weights, which JSON accepts.
"""

from __future__ import annotations

import json

import numpy as np

from .adomain import AdEnsemble
from .checks import is_int, read_json
from .gnn import GnnEnsemble, GnnError

CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(path, ensemble, ad=None, extra=None):
    payload = {
        "version": CHECKPOINT_VERSION,
        "gnn": ensemble.to_state(),
    }
    if ad is not None:
        payload["ad"] = ad.to_state()
    if extra:
        payload["extra"] = extra
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True)


def load_checkpoint(path):
    """Returns (ensemble, ad-or-None, raw payload)."""
    payload = read_json(path)
    version = payload.get("version")
    if not is_int(version, 1) or version != CHECKPOINT_VERSION:
        raise CheckpointError("unsupported checkpoint version %r" % version)
    if "gnn" not in payload:
        raise CheckpointError("checkpoint missing GNN section")
    try:
        ensemble = GnnEnsemble.from_state(payload["gnn"])
        ad = AdEnsemble.from_state(payload["ad"]) if "ad" in payload else None
    except (AttributeError, KeyError, TypeError, ValueError, GnnError) as e:
        raise CheckpointError("malformed checkpoint: %s: %s"
                              % (type(e).__name__, e))
    if ad is not None and ad.n_members != ensemble.n_models:
        raise CheckpointError("AD ensemble size %d != GNN ensemble size %d"
                              % (ad.n_members, ensemble.n_models))
    for k, model in enumerate(ensemble.models):
        _check_finite("GNN member %d" % k, model.params)
    for k, svm in enumerate(ad.svms if ad is not None else ()):
        sv, fp_dim = svm.support_vectors, ensemble.models[k].config.fp_dim
        if sv.ndim != 2 or sv.shape[1] != fp_dim \
                or svm.alphas.shape != (len(sv),):
            raise CheckpointError(
                "AD member %d: support vectors of shape %s and %d alphas "
                "for GNN fp_dim %d" % (k, sv.shape, svm.alphas.size, fp_dim))
        _check_finite("AD member %d" % k, {
            name: getattr(svm, name)
            for name in ("support_vectors", "alphas", "rho", "gamma")})
    return ensemble, ad, payload


def _check_finite(member, values):
    """Refuse a NaN or infinite entry in any of the named arrays, which
    JSON loads without complaint and a run would carry into its scores."""
    for name, value in sorted(values.items()):
        if not np.all(np.isfinite(value)):
            raise CheckpointError("%s: %s holds a non-finite value"
                                  % (member, name))
