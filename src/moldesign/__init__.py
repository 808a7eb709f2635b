"""Computer-aided molecular design loop for high-RON+OS fuel candidates.

Pipeline: a deterministic fragment-grammar generator maps box-bounded
latent vectors to small C/H/O molecules; a message-passing GNN ensemble
predicts RON/MON/DCN; each member's one-class SVM, fit (and, with the
optional grid search, selected) on that member's fingerprints, votes on
whether a molecule lies in the applicability domain; Bayesian
optimization or a genetic algorithm searches the latent box for molecules
maximizing RON + OS = 2 RON - MON, and out-of-domain candidates score a
fixed -1000.
"""

from .adomain import AdEnsemble, OneClassSvm, ad_vote, fit_ad_ensemble, fit_svm
from .gnn import (
    GNN,
    GnnConfig,
    GnnEnsemble,
    PropertyPrediction,
    TrainConfig,
    train_ensemble,
    train_model,
)
from .grammar import FragmentGrammar, decode, encode, enumerate_grammar
from .loop import RunConfig, RunRecord, bounds_from_corpus, evaluate_candidate, run, summarize
from .molgraph import MolecularGraph, canonical_smiles, parse_smiles, validate
from .optimizers import ga_step, gp_fit, gp_posterior, pca_fit, run_bo, run_ga

__version__ = "0.1.0"
