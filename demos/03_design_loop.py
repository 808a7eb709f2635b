"""End-to-end design loop: grammar + trained ensemble + AD + optimizer.

Trains a quick surrogate on part of a small grammar, then lets the
genetic algorithm hunt for the molecule maximizing RON + OS = 2 RON - MON
while the applicability domain penalizes anything the model should not
be trusted on. Compares the result against the exhaustive enumeration.
"""

import numpy as np

from moldesign import loop
from moldesign.adomain import ad_vote, fit_ad_ensemble
from moldesign.gnn import GnnConfig, GnnEnsemble, TrainConfig, train_ensemble
from moldesign.grammar import FragmentGrammar, enumerate_grammar


def synthetic_labels(g):
    ron = 90.0 + 8.0 * g.count("O") + 3.0 * g.n_rings + g.n_atoms
    mon = ron - (4.0 * g.count("O") + 2.0)
    return {"ron": ron, "mon": mon, "dcn": None}


def main():
    grammar = FragmentGrammar(n_dims=4)
    mols = enumerate_grammar(grammar)
    data = [(g, synthetic_labels(g)) for g in list(mols.values())[::3]]

    ensemble = GnnEnsemble(
        n_models=5,
        config=GnnConfig(hidden_dim=16, fp_dim=16, mlp_hidden=8),
        seed=0)
    train_ensemble(data, ensemble,
                   TrainConfig(epochs=300, learning_rate=4e-3))
    fps = list(ensemble.forward([g for g, _ in data])[0])
    ad = fit_ad_ensemble(fps, nu=0.05)

    # exhaustive oracle over the in-domain part of the grammar
    oracle_smiles, oracle_score = None, -np.inf
    for smi, g in mols.items():
        if ad_vote(ensemble.fingerprints(g), ad)[0]:
            score = ensemble.predict(g).score
            if score > oracle_score:
                oracle_smiles, oracle_score = smi, score
    print("oracle best (in-domain): %s  score %.2f"
          % (oracle_smiles, oracle_score))

    cfg = loop.RunConfig(method="ga", seed=0, max_unique=200, max_total=1500)
    records, summary = loop.run(cfg, grammar, ensemble, ad=ad,
                                bounds=(np.zeros(4), np.ones(4)))

    print("\nrun: %d evaluations, %d unique molecules, %d penalized"
          % (summary["n_total"], summary["n_unique"], summary["n_penalized"]))
    print("max score %.2f (%.1f%% of oracle), mean of top 20: %.2f"
          % (summary["max_score"],
             100.0 * summary["max_score"] / oracle_score,
             summary["mean_top20"]))

    best = loop.best_per_molecule(records)
    print("\ntop molecules found:")
    for r in sorted(best.values(), key=lambda r: -r.score)[:8]:
        print("  %-14s ron %7.2f  mon %7.2f  os %5.2f  score %7.2f"
              % (r.smiles, r.ron, r.mon, r.os, r.score))


if __name__ == "__main__":
    main()
