"""The benchmark in perfbench/ reaches moldesign by name: tracer.PROBES
wraps functions and methods, and workloads.py calls, hooks and reads
attributes. A renamed or deleted name would show there only as a
"missing" probe or as a failed benchmark run, so it is checked here.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Names workloads.py reaches through instances or strings, which the
# attribute scan below cannot see.
USED_BY_NAME = (
    "gnn.GNN.fingerprint",
    "gnn.GNN.forward",
    "gnn.GnnEnsemble.predict",
    "gnn.GnnEnsemble.fingerprints",
    "adomain.OneClassSvm.decision",
    "optimizers.expected_improvement",
    "loop.evaluate_candidate",
    "optimizers.run_ga",
    "optimizers.run_bo",
    "loop.RunConfig.penalty",
)


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's tracer and workloads modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return (importlib.import_module("tracer"),
                importlib.import_module("workloads"))
    finally:
        sys.path.remove(str(PERFBENCH))


def resolve(name):
    module, *attrs = name.split(".")
    target = importlib.import_module("moldesign." + module)
    for attr in attrs:
        target = getattr(target, attr)
    return target


def workload_attributes():
    """Every "<module>.<attr>..." chain on a moldesign module that
    workloads.py spells out."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "moldesign"
               for alias in node.names}
    found = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            found.add(".".join([node.id] + chain))
    return sorted(found)


def test_every_probe_resolves(perfbench):
    tracer, _ = perfbench
    assert [p for p in tracer.PROBES if tracer._resolve(p) is None] == []


@pytest.mark.parametrize("name", workload_attributes() + list(USED_BY_NAME))
def test_workload_name_exists(perfbench, name):
    assert resolve(name) is not None


@pytest.mark.parametrize("name, method", [("run_ga", "ga"), ("run_bo", "bo")])
def test_loop_hands_bounds_second(perfbench, name, method):
    # workloads.py captures the search box as the optimizer's second
    # positional argument: the latent box for GA, the corpus's PCA box
    # for BO
    _, workloads = perfbench
    from moldesign import gnn, grammar, loop, optimizers
    from moldesign.molgraph import parse_smiles

    assert list(inspect.signature(getattr(optimizers, name)).parameters)[1] \
        == "bounds"
    fg = grammar.FragmentGrammar(n_dims=4)
    ens = gnn.GnnEnsemble(n_models=1, config=gnn.GnnConfig(
        hidden_dim=4, fp_dim=4, mlp_hidden=4), seed=0)
    box = (np.zeros(4), np.ones(4))
    corpus = [parse_smiles(s) for s in ("C", "CC", "CCO", "CC(C)O", "CCC")]
    expected = box
    if method == "bo":
        latents = np.array([grammar.encode(g, fg, box) for g in corpus])
        reduced = optimizers.pca_fit(latents).project(latents)
        expected = loop.expand_bounds(reduced.min(axis=0),
                                      reduced.max(axis=0),
                                      loop.BOUND_EXPANSION)
    store = []
    cfg = loop.RunConfig(method=method, max_total=12, ad_enabled=False)
    with workloads.hooked(optimizers, name, workloads._captured_bounds(store)):
        loop.run(cfg, fg, ens, bounds=box, corpus=corpus)
    assert len(store) == 1
    assert all(np.array_equal(a, b) for a, b in zip(store[0], expected))


@pytest.mark.parametrize("method", ["ga", "bo"])
def test_loop_calls_hooked_evaluation_once_per_record(perfbench, method):
    # workloads.py times each evaluation by hooking loop.evaluate_candidate
    # and fails when that hook is never called; loop.run must reach it
    # through the module attribute, once per record
    _, workloads = perfbench
    from moldesign import gnn, grammar, loop
    from moldesign.molgraph import parse_smiles

    fg = grammar.FragmentGrammar(n_dims=4)
    ens = gnn.GnnEnsemble(n_models=1, config=gnn.GnnConfig(
        hidden_dim=4, fp_dim=4, mlp_hidden=4), seed=0)
    corpus = [parse_smiles(s) for s in ("C", "CC", "CCO", "CC(C)O", "CCC")]
    inputs = {"corpus": corpus} if method == "bo" \
        else {"bounds": (np.zeros(4), np.ones(4))}
    latencies, first_call = [], []
    cfg = loop.RunConfig(method=method, max_total=60, ad_enabled=False)
    with workloads.hooked(loop, "evaluate_candidate",
                          workloads._timed_evaluations(latencies,
                                                       first_call)):
        records, _ = loop.run(cfg, fg, ens, **inputs)
    assert len(records) == 60
    assert len(latencies) == len(records) and len(first_call) == 1
