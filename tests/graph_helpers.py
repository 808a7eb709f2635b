"""Graph, GNN and AD helpers that only the tests use."""

import contextlib
import sys

import numpy as np

from moldesign.adomain import OneClassSvm
from moldesign.gnn import TASKS, GraphBatch
from moldesign.molgraph import MolecularGraph, atom_features, canonical_smiles


def total_h(g):
    """Implicit hydrogens summed over the atoms of g."""
    return int(atom_features(g)[:, 2].sum())


@contextlib.contextmanager
def recursion_limit(limit):
    """Python's recursion limit set to limit inside the block, so a graph
    deeper than the limit needs only a few hundred atoms."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(before)


def deeper_than_recursion_limit(unit):
    """unit ("C" for a chain, "C(C)" for a comb) repeated 200 times more
    than the recursion limit: a SMILES whose DFS path runs past it."""
    return unit * (sys.getrecursionlimit() + 200)


def permuted(g, perm):
    """g with its atoms relabelled: the new index of old atom i is perm[i]."""
    atoms = [None] * g.n_atoms
    for i, a in enumerate(g.atoms):
        atoms[perm[i]] = a
    bonds = [(perm[u], perm[v], order) for u, v, order in g.bonds]
    return MolecularGraph(atoms, bonds)


def is_isomorphic(a, b):
    """Labeled-multigraph isomorphism via canonical strings."""
    if sorted(a.atoms) != sorted(b.atoms) or len(a.bonds) != len(b.bonds):
        return False
    return canonical_smiles(a) == canonical_smiles(b)


GRADIENT_CHECK_STEP = 1e-5   # central-difference step of gradient_check


def gradient_check(model, g):
    """Max relative error of analytic vs central finite-difference grads
    of the loss on graph g with every label 1."""
    batch = GraphBatch.of([g])
    labels = np.ones((1, len(TASKS)))
    mask = np.ones_like(labels)
    _, grads = model.loss_and_grad(batch, labels, mask)

    def loss_only():
        return model.loss_and_grad(batch, labels, mask)[0]

    worst = 0.0
    for k, w in model.params.items():
        flat = w.reshape(-1)
        gflat = grads[k].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRADIENT_CHECK_STEP
            up = loss_only()
            flat[i] = orig - GRADIENT_CHECK_STEP
            down = loss_only()
            flat[i] = orig
            numeric = (up - down) / (2 * GRADIENT_CHECK_STEP)
            denom = max(abs(gflat[i]), abs(numeric), 1e-6)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst


def constant_svm(value, d):
    """A one-support-vector SVM at the origin of a d-dimensional space
    whose decision on a zero fingerprint is exactly value:
    alpha 1 * k(0, 0) - rho with rho = 1 - value."""
    return OneClassSvm(support_vectors=np.zeros((1, d)),
                       alphas=np.array([1.0]), rho=1.0 - value, gamma=1.0,
                       nu=0.05, n_train=1)
