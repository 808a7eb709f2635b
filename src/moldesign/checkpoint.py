"""Versioned checkpoint container: GNN weights and AD SVMs.

Stored as JSON; float round-tripping through repr keeps reloads
bit-exact.
"""

from __future__ import annotations

import json

from .adomain import AdEnsemble
from .gnn import GnnEnsemble

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
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint is not a JSON object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError("unsupported checkpoint version %r"
                              % payload.get("version"))
    if "gnn" not in payload:
        raise CheckpointError("checkpoint missing GNN section")
    try:
        ensemble = GnnEnsemble.from_state(payload["gnn"])
        ad = AdEnsemble.from_state(payload["ad"]) if "ad" in payload else None
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError("malformed checkpoint: %s: %s"
                              % (type(e).__name__, e))
    if ad is not None and ad.n_members != ensemble.n_models:
        raise CheckpointError("AD ensemble size %d != GNN ensemble size %d"
                              % (ad.n_members, ensemble.n_models))
    if ad is not None:
        fp_dim = ensemble.models[0].config.fp_dim
        sv_dim = ad.svms[0].support_vectors.shape[1]
        if sv_dim != fp_dim:
            raise CheckpointError("AD fingerprint dim %d != GNN fp_dim %d"
                                  % (sv_dim, fp_dim))
    return ensemble, ad, payload
