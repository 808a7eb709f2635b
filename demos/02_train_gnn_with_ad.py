"""Train a small GNN ensemble on synthetic labels and fit its
applicability domain.

Labels follow a simple rule (more oxygens and rings raise RON), so the
demo can check predictions against ground truth. The one-class SVMs then
vote on molecules the ensemble has and has not seen.
"""

import numpy as np

from moldesign.adomain import ad_vote, fit_ad_ensemble
from moldesign.gnn import GnnConfig, GnnEnsemble, TrainConfig, train_ensemble
from moldesign.grammar import FragmentGrammar, enumerate_grammar
from moldesign.molgraph import canonical_smiles


def synthetic_labels(g):
    ron = 90.0 + 8.0 * g.count("O") + 3.0 * g.n_rings + g.n_atoms
    mon = ron - (4.0 * g.count("O") + 2.0)
    return {"ron": ron, "mon": mon, "dcn": None}


def main():
    grammar = FragmentGrammar(n_dims=4)
    mols = enumerate_grammar(grammar)
    smis = sorted(mols)
    train_smis = smis[::3]
    data = [(mols[s], synthetic_labels(mols[s])) for s in train_smis]
    print("training on %d of %d molecules" % (len(data), len(mols)))

    ensemble = GnnEnsemble(
        n_models=5,
        config=GnnConfig(hidden_dim=16, fp_dim=16, mlp_hidden=8),
        seed=0)
    train_ensemble(data, ensemble,
                   TrainConfig(epochs=300, learning_rate=4e-3))

    errs = [abs(ensemble.predict(g).ron - y["ron"]) for g, y in data]
    print("train RON MAE: %.3f" % np.mean(errs))

    print("\nsample predictions (truth in parens):")
    for g, y in data[:5]:
        p = ensemble.predict(g)
        print("  ron %7.2f (%6.1f)  mon %7.2f (%6.1f)  os %6.2f"
              % (p.ron, y["ron"], p.mon, y["mon"], p.os))

    # applicability domain: one SVM per ensemble member
    fps = list(ensemble.forward([g for g, _ in data])[0])
    ad = fit_ad_ensemble(fps, nu=0.05)

    inside_train = sum(ad_vote(ensemble.fingerprints(g), ad)[0]
                       for g, _ in data)
    print("\nAD accepts %d / %d training molecules" % (inside_train, len(data)))

    held_out = [mols[s] for s in smis if s not in set(train_smis)][:10]
    print("votes on held-out molecules (sum over %d members):"
          % ad.n_members)
    for g in held_out:
        inside, vote_sum = ad_vote(ensemble.fingerprints(g), ad)
        print("  %-14s vote_sum=%+d %s"
              % (canonical_smiles(g), vote_sum,
                 "inside" if inside else "OUTSIDE"))


if __name__ == "__main__":
    main()
