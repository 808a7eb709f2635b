import hashlib
import json
import logging

import numpy as np
import pytest

from moldesign import grammar as grammar_mod, loop, molgraph, optimizers
from moldesign.adomain import AdEnsemble, ad_vote, fit_ad_ensemble, \
    scale_gamma
from moldesign.gnn import GnnConfig, GnnEnsemble, PropertyPrediction, \
    graph_arrays
from moldesign.grammar import (
    FragmentGrammar,
    cell_map,
    decode,
    decode_cells,
    enumerate_grammar,
)
from moldesign.loop import (
    ConfigError,
    EvaluationContext,
    LoopError,
    PENALTY,
    RunConfig,
    RunRecord,
    bounds_from_corpus,
    evaluate_candidate,
    expand_bounds,
    read_records,
    run,
    summarize,
    write_records,
)
from moldesign.molgraph import MolecularGraph, atom_features, canonical_form, \
    canonical_form_trusted, canonical_smiles, parse_smiles
from moldesign.optimizers import DimensionMismatch

from graph_helpers import constant_svm


@pytest.fixture(scope="module")
def grammar():
    return FragmentGrammar(n_dims=4)


class _StubEnsemble:
    """Fixed predictions keyed by canonical smiles, default otherwise."""

    def __init__(self, table=None, default=(100.0, 90.0, 40.0)):
        self.table = table or {}
        self.default = default
        self.n_models = 3

    def predict(self, g):
        # g is a MolecularGraph or a built grammar.State
        g = MolecularGraph(g.atoms, g.bonds)
        vals = self.table.get(canonical_smiles(g), self.default)
        return PropertyPrediction(*vals)

    def fingerprints(self, g):
        return np.zeros((self.n_models, 4))

    def evaluate(self, g):
        return self.fingerprints(g), self.predict(g)


def stub_ad(decisions):
    """An AD whose member k decides decisions[k] on _StubEnsemble's zero
    fingerprints."""
    return AdEnsemble(svms=[constant_svm(d, 4) for d in decisions])


def make_ctx(grammar, ensemble=None, ad=None):
    bounds = (np.zeros(grammar.n_dims), np.ones(grammar.n_dims))
    return EvaluationContext(grammar, bounds, ensemble or _StubEnsemble(),
                             ad=ad)


class TestBounds:
    def test_expansion_arithmetic(self):
        lo, hi = expand_bounds([0.0], [10.0], 0.2)
        assert lo[0] == pytest.approx(-2.0)
        assert hi[0] == pytest.approx(12.0)

    def test_degenerate_dimension_padded(self):
        lo, hi = expand_bounds([3.0, 0.0], [3.0, 1.0], 0.2)
        assert (lo[0], hi[0]) == (2.5, 3.5)
        assert (lo[1], hi[1]) == (-0.2, 1.2)

    def test_from_corpus_covers_encodings(self, grammar):
        from moldesign.grammar import encode

        corpus = [parse_smiles(s) for s in ["C", "CC", "CCO", "CC(C)O"]]
        lo, hi = bounds_from_corpus(corpus, grammar, expansion=0.2)
        unit = (np.zeros(4), np.ones(4))
        for g in corpus:
            z = encode(g, grammar, unit)
            assert np.all(z >= lo) and np.all(z <= hi)

    def test_from_corpus_all_foreign(self, grammar):
        from moldesign.loop import NoExpressibleMolecules

        with pytest.raises(NoExpressibleMolecules):
            bounds_from_corpus([parse_smiles("C1CCC1")], grammar)


class TestEvaluate:
    def test_score_identity(self, grammar):
        ens = _StubEnsemble({"C": (116.0, 102.0, 30.0)})
        ctx = make_ctx(grammar, ens)
        rec = evaluate_candidate(np.zeros(4), ctx)  # decodes to methane
        assert rec.smiles == "C"
        assert rec.os == 14.0
        assert rec.score == 130.0
        assert not rec.penalty_applied

    def test_mtbe_style_numbers(self, grammar):
        ens = _StubEnsemble(default=(118.0, 101.0, 20.0))
        ctx = make_ctx(grammar, ens)
        rec = evaluate_candidate(np.full(4, 0.4), ctx)
        assert rec.score == 2 * 118.0 - 101.0 == 135.0
        assert rec.os == 17.0

    def test_ad_gate_applies_penalty(self, grammar):
        ad = stub_ad([-1.0, -1.0, 1.0])
        ctx = make_ctx(grammar, ad=ad)
        rec = evaluate_candidate(np.zeros(4), ctx)
        assert rec.penalty_applied
        assert rec.score == PENALTY
        assert rec.in_ad is False
        assert rec.vote_sum == -1
        assert rec.ron is None
        assert ctx.n_unique == 0  # gated molecules do not spend budget

    def test_ad_pass_records_vote(self, grammar):
        ad = stub_ad([1.0, 1.0, -1.0])
        ctx = make_ctx(grammar, ad=ad)
        rec = evaluate_candidate(np.zeros(4), ctx)
        assert rec.in_ad is True and rec.vote_sum == 1
        assert not rec.penalty_applied

    def test_duplicate_flag_and_budget(self, grammar):
        ctx = make_ctx(grammar)
        a = evaluate_candidate(np.zeros(4), ctx)
        b = evaluate_candidate(np.zeros(4), ctx)
        assert not a.duplicate
        assert b.duplicate
        assert ctx.n_unique == 1
        assert ctx.n_total == 2

    def test_same_cell_reuses_result(self, grammar):
        ad = stub_ad([1.0, 1.0, -1.0])
        ctx = make_ctx(grammar, ad=ad)
        a = evaluate_candidate(np.full(4, 0.41), ctx)
        b = evaluate_candidate(np.full(4, 0.42), ctx)  # same cells
        assert len(ctx.cache) == 1
        assert b.latent_full == [0.42] * 4
        assert (b.smiles, b.score, b.vote_sum) == (a.smiles, a.score, a.vote_sum)
        assert (a.duplicate, b.duplicate) == (False, True)
        assert (a.index, b.index) == (0, 1)

    @pytest.mark.parametrize("decisions", [None, [1.0, 1.0, -1.0],
                                           [-1.0, -1.0, 1.0]],
                             ids=["no-ad", "inside", "outside"])
    def test_cache_entry_is_the_graphs_record_fields(self, grammar,
                                                     decisions):
        ctx = make_ctx(grammar, ad=decisions and stub_ad(decisions))
        for z in (np.zeros(4), np.full(4, 0.01)):   # one cell row
            rec = evaluate_candidate(z, ctx)
        (fields,) = ctx.cache.values()
        assert ctx.by_cells[tuple(ctx.cells(np.zeros(4)))] is fields
        per_point = ("index", "latent_full", "latent_reduced", "duplicate")
        assert fields == {k: v for k, v in vars(rec).items()
                          if k not in per_point}

    def test_rejected_cell_stays_penalized(self, grammar):
        ctx = make_ctx(grammar, ad=stub_ad([-1.0, -1.0, 1.0]))
        for _ in range(2):
            rec = evaluate_candidate(np.zeros(4), ctx)
            assert rec.penalty_applied and rec.score == PENALTY
            assert rec.ron is None and rec.vote_sum == -1
        assert rec.duplicate
        assert ctx.n_unique == 0

    def test_ad_enabled_without_ad_rejected(self, grammar):
        # refused on entry: the corpus, which no run could use, is not read
        cfg = RunConfig(method="bo", max_total=5, ad_enabled=True)
        with pytest.raises(ConfigError, match="missing AD section"):
            run(cfg, grammar, _StubEnsemble(),
                corpus=[parse_smiles("C1CCC1")] * 2)


def fake_record(index, smiles, score, ron=None, os_=None, penalized=False,
                duplicate=False):
    return RunRecord(
        index=index, latent_full=[0.0], latent_reduced=None, smiles=smiles,
        ron=ron, mon=None, dcn=None, os=os_, score=score, in_ad=None,
        vote_sum=None, duplicate=duplicate, penalty_applied=penalized)


class TestSummarize:
    def test_worked_example(self):
        recs = [fake_record(0, "CC", 130.0, ron=116.0, os_=14.0),
                fake_record(1, "CCO", 120.0, ron=105.0, os_=10.0),
                fake_record(2, None, -1000.0, penalized=True)]
        s = summarize(recs)
        assert s["max_score"] == 130.0
        assert s["mean_top20"] == 125.0
        assert s["n_unique"] == 2
        assert s["n_penalized"] == 1
        assert s["n_total"] == 3

    def test_best_per_molecule(self):
        recs = [fake_record(0, "CC", 100.0),
                fake_record(1, "CC", 130.0, duplicate=True),
                fake_record(2, "CC", 90.0, duplicate=True)]
        s = summarize(recs)
        assert s["n_unique"] == 1
        assert s["max_score"] == 130.0
        assert s["mean_top20"] == 130.0

    def test_promising_is_strict(self):
        recs = [fake_record(0, "A", 1.0, ron=110.0, os_=11.0),
                fake_record(1, "B", 2.0, ron=111.0, os_=10.0),
                fake_record(2, "C", 3.0, ron=110.5, os_=10.5)]
        s = summarize(recs)
        assert s["n_promising"] == 1

    def test_best_per_molecule_selection(self):
        recs = [fake_record(0, "CC", 100.0, ron=105.0, os_=5.0),
                fake_record(1, "CO", 90.0),
                fake_record(2, "CC", 130.0, ron=115.0, os_=15.0,
                            duplicate=True),
                fake_record(3, "CC", 130.0, ron=999.0, os_=999.0,
                            duplicate=True),
                fake_record(4, "CO", 200.0, penalized=True)]
        best = loop.best_per_molecule(recs)
        assert list(best) == ["CC", "CO"]
        assert best["CC"] is recs[2] and best["CO"] is recs[1]
        assert summarize(recs)["n_promising"] == 1
        assert loop.is_promising(recs[2]) and not loop.is_promising(recs[0])
        assert not loop.is_promising(recs[1])   # no prediction

    def test_all_penalized_run(self):
        recs = [fake_record(0, None, -1000.0, penalized=True)]
        s = summarize(recs)
        assert s["empty"] is True
        assert s["max_score"] is None
        assert s["n_penalized"] == 1
        # an empty summary has the same keys as a scored one
        assert s.keys() == summarize([fake_record(0, "CC", 1.0)]).keys()

    def test_no_records_raises(self):
        with pytest.raises(LoopError):
            summarize([])


class TestRunConfig:
    def test_bad_method(self):
        with pytest.raises(ConfigError):
            RunConfig(method="random")

    def test_bad_budgets(self):
        with pytest.raises(ConfigError):
            RunConfig(max_unique=0)
        with pytest.raises(ConfigError):
            RunConfig(max_total=-1)
        with pytest.raises(ConfigError):
            RunConfig(time_limit_s=0.0)

    @pytest.mark.parametrize("field", ["max_unique", "max_total",
                                       "time_limit_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_unique", "max_total",
                                       "time_limit_s"])
    @pytest.mark.parametrize("value", ["ten", True, [5]])
    def test_non_numeric_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("kwargs", [
        {"method": None},
        {"method": "BO"},
        {"seed": None},
        {"seed": True},
        {"seed": -1},
        {"seed": 1.5},
        {"ad_enabled": "no"},
        {"ad_enabled": 1},
        {"seed": "3"},
        {"ad_enabled": None},
        {"ad_enabled": "true"},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            RunConfig(**kwargs)

    def test_accepted(self):
        RunConfig(method="bo", ad_enabled=False, time_limit_s=0.5)
        RunConfig(seed=np.int64(3))

    @pytest.mark.parametrize("key", ["use_pca", "pca_target_ratio",
                                     "bound_expansion", "bo_init", "bo_batch",
                                     "ga"])
    def test_fixed_choices_are_not_fields(self, key):
        assert key not in RunConfig().to_dict()
        with pytest.raises(TypeError):
            RunConfig(**{key: 1})

    def test_penalty_is_not_a_field(self):
        assert "penalty" not in RunConfig().to_dict()
        with pytest.raises(TypeError):
            RunConfig(penalty=-5.0)

    def test_some_budget_required(self):
        with pytest.raises(ConfigError, match="never ends"):
            RunConfig(max_unique=None, max_total=None, time_limit_s=None)
        RunConfig(max_unique=None, max_total=None, time_limit_s=1.0)
        RunConfig(max_unique=None, max_total=5)


@pytest.fixture(scope="module")
def tiny_ensemble():
    return GnnEnsemble(n_models=2,
                       config=GnnConfig(hidden_dim=8, fp_dim=8, mlp_hidden=4),
                       seed=0)


class TestRun:
    def test_ga_hits_max_total(self, grammar, tiny_ensemble):
        cfg = RunConfig(method="ga", seed=0, max_total=30, max_unique=1000,
                        ad_enabled=False)
        records, summary = run(cfg, grammar, tiny_ensemble,
                               bounds=(np.zeros(4), np.ones(4)))
        assert len(records) == 30
        assert summary["n_total"] == 30
        assert [r.index for r in records] == list(range(30))

    def test_unique_budget_stops_early(self, grammar, tiny_ensemble):
        cfg = RunConfig(method="ga", seed=0, max_total=5000, max_unique=5,
                        ad_enabled=False)
        records, summary = run(cfg, grammar, tiny_ensemble,
                               bounds=(np.zeros(4), np.ones(4)))
        assert summary["n_unique"] >= 5
        assert len(records) < 5000

    @pytest.mark.parametrize("method", ["ga", "bo"])
    def test_time_budget_shorter_than_one_evaluation(self, grammar,
                                                     tiny_ensemble, method):
        # the budget is spent before the first point: the run still
        # scores that one, so it has a record to summarize
        corpus = [parse_smiles(s) for s in ["C", "CC", "CCO", "CC(C)O"]]
        inputs = {"corpus": corpus} if method == "bo" \
            else {"bounds": (np.zeros(4), np.ones(4))}
        cfg = RunConfig(method=method, seed=0, time_limit_s=1e-9,
                        max_unique=None, max_total=None, ad_enabled=False)
        records, summary = run(cfg, grammar, tiny_ensemble, **inputs)
        assert len(records) == 1 and summary["n_total"] == 1

    @pytest.mark.parametrize("method", ["ga", "bo"])
    def test_each_record_from_evaluate_candidate_by_module_name(
            self, monkeypatch, grammar, tiny_ensemble, method):
        # the benchmark times each evaluation by replacing
        # loop.evaluate_candidate: run must look it up by that name
        calls = []

        def counting(z, ctx):
            calls.append(len(ctx.records))
            return evaluate_candidate(z, ctx)

        monkeypatch.setattr(loop, "evaluate_candidate", counting)
        corpus = [parse_smiles(s) for s in ["C", "CC", "CCO", "CC(C)O"]]
        inputs = {"corpus": corpus} if method == "bo" \
            else {"bounds": (np.zeros(4), np.ones(4))}
        cfg = RunConfig(method=method, seed=0, max_total=40,
                        ad_enabled=False)
        records, _ = run(cfg, grammar, tiny_ensemble, **inputs)
        assert calls == list(range(len(records))) == list(range(40))

    def test_bo_with_pca_from_corpus(self, grammar, tiny_ensemble):
        corpus = [parse_smiles(s) for s in
                  ["C", "CC", "CCO", "CC(C)O", "CCC", "COC"]]
        cfg = RunConfig(method="bo", seed=1, max_total=25, max_unique=1000,
                        ad_enabled=False)
        records, summary = run(cfg, grammar, tiny_ensemble, corpus=corpus)
        assert len(records) == 25
        assert all(r.latent_reduced is not None for r in records)
        assert all(len(r.latent_full) == 4 for r in records)

    def test_skipped_corpus_molecules_warn_once(self, grammar, tiny_ensemble,
                                                caplog):
        # molecules the grammar cannot express leave the records as they
        # are, and one WARNING per encode of the corpus counts them
        corpus = [parse_smiles(s) for s in
                  ["C", "CC", "CCO", "CC(C)O", "CCC", "COC"]]
        foreign = [parse_smiles(s) for s in ["C1CCC1", "C1CCC1C"]]
        cfg = RunConfig(method="bo", seed=1, max_total=15, max_unique=1000,
                        ad_enabled=False)
        with caplog.at_level(logging.WARNING, logger="moldesign"):
            clean, _ = run(cfg, grammar, tiny_ensemble, corpus=corpus)
            assert not [r for r in caplog.records
                        if r.getMessage().startswith("corpus:")]
            mixed, _ = run(cfg, grammar, tiny_ensemble,
                           corpus=corpus[:3] + foreign + corpus[3:])
        assert [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("corpus:")] == [
            "corpus: skipped 2 of 8 molecules that the grammar cannot "
            "express"]
        assert [vars(r) for r in mixed] == [vars(r) for r in clean]

    def test_bo_records_from_corpus_pinned(self, tmp_path, grammar,
                                           tiny_ensemble):
        # the corpus fixes the box and the PCA: one molecule's encode walk
        # passes five scaffolds, one is inexpressible, one is repeated
        corpus = [parse_smiles(s) for s in
                  ["CC", "CCO", "O=C1CCCCC1", "C1CCC1", "CC(C)O", "OCC",
                   "COC1CC1", "CC1CCCC1"]]
        cfg = RunConfig(method="bo", seed=1, max_total=15, max_unique=1000,
                        ad_enabled=False)
        records, _ = run(cfg, grammar, tiny_ensemble, corpus=corpus)
        path = tmp_path / "records.jsonl"
        write_records(path, records)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9f77285d12693b23660533174728d2ddedb82e099b583c7f896eb30ae4de9541")

    def test_ga_records_pinned(self, tmp_path, grammar, tiny_ensemble):
        cfg = RunConfig(method="ga", seed=7, max_total=40, max_unique=1000,
                        ad_enabled=False)
        records, _ = run(cfg, grammar, tiny_ensemble,
                         bounds=(np.zeros(4), np.ones(4)))
        path = tmp_path / "records.jsonl"
        write_records(path, records)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "8b2878a1800133c316ea97cb91e3d1b30ffe1de2b48e059b67b95f1f7ef21241")

    def test_ga_records_with_ad_pinned(self, tmp_path, grammar,
                                       tiny_ensemble):
        # the same run through the AD vote: an AD fitted on the ensemble's
        # fingerprints of every tenth enumerated molecule rejects some
        # candidates, so in_ad and vote_sum take both signs
        molecules = list(enumerate_grammar(grammar).values())
        per_model = list(tiny_ensemble.forward(molecules[::10])[0])
        ad = fit_ad_ensemble(per_model, nu=0.2,
                             gamma=5.0 * scale_gamma(np.vstack(per_model)))
        cfg = RunConfig(method="ga", seed=7, max_total=40, max_unique=1000)
        records, _ = run(cfg, grammar, tiny_ensemble, ad=ad,
                         bounds=(np.zeros(4), np.ones(4)))
        assert 0 < sum(r.penalty_applied for r in records) < len(records)
        path = tmp_path / "records.jsonl"
        write_records(path, records)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2ac92cd0bb766b9ec55f67073200d42c764e4bab3ceea10629e13f598985e161")

    def test_bo_needs_a_corpus(self, grammar, tiny_ensemble):
        cfg = RunConfig(method="bo", max_total=5, ad_enabled=False)
        with pytest.raises(ConfigError, match="corpus"):
            run(cfg, grammar, tiny_ensemble, bounds=(np.zeros(4), np.ones(4)))

    @pytest.mark.parametrize("method", ["ga", "bo"])
    @pytest.mark.parametrize("bounds", [(np.zeros(3), np.ones(3)),
                                        (0.0, 1.0)], ids=["3-d", "scalar"])
    def test_misshaped_bounds_are_a_dimension_mismatch(
            self, grammar, tiny_ensemble, method, bounds):
        # refused on entry, before the cell map or the PCA reads them; the
        # CLI maps DimensionMismatch to exit 2, GrammarError to exit 1
        corpus = [parse_smiles(s) for s in
                  ["C", "CC", "CCO", "CC(C)O", "CCC", "COC"]]
        cfg = RunConfig(method=method, max_total=5, ad_enabled=False)
        with pytest.raises(DimensionMismatch, match="for dimension 4"):
            run(cfg, grammar, tiny_ensemble, corpus=corpus, bounds=bounds)

    @pytest.mark.parametrize("method", ["ga", "bo"])
    @pytest.mark.parametrize("slot, lo, hi", [
        (1, np.nan, 1.0), (2, 0.0, np.inf), (3, -np.inf, 1.0),
        (0, 1.0, 0.5), (2, -1.5e308, 1.5e308)],
        ids=["nan", "inf", "-inf", "hi-below-lo", "width-overflows"])
    def test_unusable_bounds_are_refused_before_any_draw(
            self, grammar, tiny_ensemble, monkeypatch, method, slot, lo, hi):
        corpus = [parse_smiles(s) for s in
                  ["C", "CC", "CCO", "CC(C)O", "CCC", "COC"]]
        bounds = (np.zeros(4), np.ones(4))
        bounds[0][slot], bounds[1][slot] = lo, hi

        def no_draws(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        cfg = RunConfig(method=method, max_total=5, ad_enabled=False)
        with pytest.raises(ConfigError, match="slot %d " % slot):
            run(cfg, grammar, tiny_ensemble, corpus=corpus, bounds=bounds)

    def test_zero_width_slots_are_allowed(self, grammar, tiny_ensemble):
        cfg = RunConfig(method="ga", seed=3, max_total=30, ad_enabled=False)
        bounds = (np.array([0.0, 0.5, 0.0, 0.2]),
                  np.array([1.0, 0.5, 1.0, 0.2]))
        records, _ = run(cfg, grammar, tiny_ensemble, bounds=bounds)
        assert len(records) == 30
        assert {r.latent_full[1] for r in records} == {0.5}

    def test_run_ga_reports_its_objective_calls(self, grammar, tiny_ensemble,
                                                caplog):
        # every objective call adds one record; a point scored before bit
        # for bit (an elite, or a child that copies its parent) is answered
        # from the GA's cache and adds none
        cfg = RunConfig(method="ga", seed=7, max_total=120, ad_enabled=False)
        with caplog.at_level(logging.DEBUG, logger="moldesign"):
            records, _ = run(cfg, grammar, tiny_ensemble,
                             bounds=(np.zeros(4), np.ones(4)))
        [line] = [r for r in caplog.records
                  if r.getMessage().startswith("run_ga:")]
        generations, calls, cached = line.args
        assert calls == len(records) == 120
        pop = optimizers.GA_POPULATION_SIZE
        assert (generations - 1) * pop < calls + cached <= generations * pop
        assert cached > 0

    def test_replay_is_deterministic(self, grammar, tiny_ensemble):
        cfg = RunConfig(method="ga", seed=7, max_total=40, max_unique=1000,
                        ad_enabled=False)
        bounds = (np.zeros(4), np.ones(4))
        a, _ = run(cfg, grammar, tiny_ensemble, bounds=bounds)
        b, _ = run(cfg, grammar, tiny_ensemble, bounds=bounds)
        assert [vars(r) for r in a] == [vars(r) for r in b]


class TestRecordIo:
    def test_write_read_round_trip(self, tmp_path):
        recs = [fake_record(0, "CC", 130.0, ron=116.0, os_=14.0),
                fake_record(1, "CCO", -1000.0, penalized=True)]
        path = tmp_path / "records.jsonl"
        write_records(path, recs)
        back = read_records(path)
        assert [vars(r) for r in back] == [vars(r) for r in recs]

    def test_ad_rejected_record_round_trips(self, tmp_path, grammar):
        # most members vote outside, so vote_sum is below 0
        ctx = make_ctx(grammar, ad=stub_ad([-1.0, -1.0, 1.0]))
        rec = evaluate_candidate(np.zeros(4), ctx)
        assert rec.vote_sum == -1 and rec.penalty_applied
        path = tmp_path / "records.jsonl"
        write_records(path, [rec])
        assert [vars(r) for r in read_records(path)] == [vars(rec)]

    def test_rewrite_byte_identical(self, tmp_path, grammar, tiny_ensemble):
        cfg = RunConfig(method="ga", seed=3, max_total=20, max_unique=1000,
                        ad_enabled=False)
        records, _ = run(cfg, grammar, tiny_ensemble,
                         bounds=(np.zeros(4), np.ones(4)))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(p1, records)
        write_records(p2, read_records(p1))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("line,message", [
        ("{not json", "line 2: not JSON"),
        ("[1, 2]", "line 2: not a JSON object"),
        ('{"index": 0}', "line 2: not a record: missing keys ['dcn', "),
        (json.dumps(dict(vars(fake_record(0, "CC", 130.0)), extra=1)),
         "line 2: not a record: missing keys [], unknown keys ['extra']"),
        (json.dumps(dict(vars(fake_record(0, "CC", 130.0)), score="high")),
         'line 2: score must be a finite number, not "high"'),
        (json.dumps(dict(vars(fake_record(0, "CC", 130.0)),
                         penalty_applied="no")),
         'line 2: penalty_applied must be true or false, not "no"'),
        (json.dumps(dict(vars(fake_record(0, "CC", 130.0)), vote_sum=1.5)),
         "line 2: vote_sum must be an integer or null, not 1.5"),
    ], ids=["not-json", "not-object", "missing-keys", "unknown-key",
            "score-not-a-number", "penalty-not-a-bool",
            "vote-sum-not-an-integer"])
    def test_malformed_line_refused(self, tmp_path, line, message):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(vars(fake_record(0, "CC", 130.0))) + "\n"
                        + line + "\n")
        with pytest.raises(ConfigError) as e:
            read_records(path)
        assert str(e.value).startswith("%s %s" % (path, message))

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_file_without_records_refused(self, tmp_path, text):
        path = tmp_path / "records.jsonl"
        path.write_text(text)
        with pytest.raises(ConfigError, match="holds no records"):
            read_records(path)


def uncached_evaluate(z, ctx):
    """The evaluation path without the graph cache: decode, canonicalise,
    AD vote on ensemble.fingerprints, then ensemble.predict, every time."""
    z = np.asarray(z, dtype=float)
    z_full = z if ctx.pca is None else ctx.pca.lift(z)
    g = decode(z_full, ctx.grammar, ctx.bounds)
    smiles = canonical_smiles(g)
    duplicate = smiles in ctx.observed
    ctx.observed.add(smiles)
    in_ad, vote_sum, pred = None, None, None
    if ctx.ad is not None:
        in_ad, vote_sum = ad_vote(ctx.ensemble.fingerprints(g), ctx.ad)
    if in_ad is not False:
        ctx.seen.add(smiles)
        pred = ctx.ensemble.predict(g)
    penalized = pred is None
    rec = RunRecord(
        index=len(ctx.records),
        latent_full=[float(v) for v in z_full],
        latent_reduced=None if ctx.pca is None else [float(v) for v in z],
        smiles=smiles,
        ron=None if penalized else float(pred.ron),
        mon=None if penalized else float(pred.mon),
        dcn=None if penalized else float(pred.dcn),
        os=None if penalized else float(pred.os),
        score=float(PENALTY if penalized else pred.score),
        in_ad=in_ad, vote_sum=vote_sum, duplicate=duplicate,
        penalty_applied=penalized)
    ctx.records.append(rec)
    return rec


class _CountingEnsemble:
    """A real ensemble that logs the graph of each evaluate call and
    refuses the two-pass API."""

    def __init__(self, ensemble):
        self.ensemble = ensemble
        self.calls = []

    def evaluate(self, g):
        self.calls.append(g)
        return self.ensemble.evaluate(g)

    def predict(self, g):
        raise AssertionError("predict called; evaluate serves it")

    def fingerprints(self, g):
        raise AssertionError("fingerprints called; evaluate serves it")


@pytest.fixture(scope="module")
def real_models(grammar):
    """A small untrained ensemble and an AD fitted on its fingerprints of
    every tenth enumerated molecule; the AD rejects some candidates."""
    ensemble = GnnEnsemble(n_models=3,
                           config=GnnConfig(hidden_dim=8, fp_dim=8,
                                            mlp_hidden=4), seed=0)
    molecules = list(enumerate_grammar(grammar).values())
    per_model = list(ensemble.forward(molecules[::10])[0])
    ad = fit_ad_ensemble(per_model, nu=0.2,
                         gamma=5.0 * scale_gamma(np.vstack(per_model)))
    return ensemble, ad, molecules[:40:5]


def _run_both(monkeypatch, tmp_path, cfg, grammar, ensemble, ad, **inputs):
    cached, _ = run(cfg, grammar, ensemble, ad=ad, **inputs)
    with monkeypatch.context() as m:
        m.setattr(loop, "evaluate_candidate", uncached_evaluate)
        reference, _ = run(cfg, grammar, ensemble, ad=ad, **inputs)
    paths = tmp_path / "cached.jsonl", tmp_path / "reference.jsonl"
    write_records(paths[0], cached)
    write_records(paths[1], reference)
    return cached, paths[0].read_bytes(), paths[1].read_bytes()


class TestCellCache:
    @pytest.mark.parametrize("ad_enabled", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ga_records_match_uncached(self, monkeypatch, tmp_path, grammar,
                                       real_models, ad_enabled, seed):
        ensemble, ad, _ = real_models
        cfg = RunConfig(method="ga", seed=seed, max_total=300,
                        max_unique=1000, ad_enabled=ad_enabled)
        records, cached, reference = _run_both(
            monkeypatch, tmp_path, cfg, grammar, ensemble, ad,
            bounds=(np.zeros(4), np.ones(4)))
        assert cached == reference
        assert sum(r.duplicate for r in records) > 100
        if ad_enabled:
            assert 0 < sum(r.penalty_applied for r in records) < len(records)

    @pytest.mark.parametrize("ad_enabled", [True, False])
    def test_bo_records_match_uncached(self, monkeypatch, tmp_path, grammar,
                                       real_models, ad_enabled):
        ensemble, ad, corpus = real_models
        cfg = RunConfig(method="bo", seed=1, max_total=20, max_unique=1000,
                        ad_enabled=ad_enabled)
        records, cached, reference = _run_both(
            monkeypatch, tmp_path, cfg, grammar, ensemble, ad, corpus=corpus)
        assert cached == reference
        assert all(r.latent_reduced is not None for r in records)

    def test_one_ensemble_pass_per_distinct_cell(self, grammar, real_models):
        ensemble, ad, _ = real_models
        bounds = (np.zeros(4), np.ones(4))
        counting = _CountingEnsemble(ensemble)
        cfg = RunConfig(method="ga", seed=2, max_total=300, max_unique=1000)
        records, _ = run(cfg, grammar, counting, ad=ad, bounds=bounds)
        cells = {tuple(cell_map(grammar, bounds)(r.latent_full))
                 for r in records}
        graphs = {MolecularGraph(*decode_cells(c, grammar)[:2]) for c in cells}
        # one ensemble pass per distinct built graph; each pass gets the
        # built grammar.State, compared here as a MolecularGraph
        passed = [MolecularGraph(s.atoms, s.bonds) for s in counting.calls]
        assert len(passed) == len(set(passed)) == len(graphs)
        assert set(passed) == graphs
        # some graph is built from more than one cell tuple
        assert len(graphs) < len(cells) < len(records)

    def test_each_cell_row_decoded_once(self, monkeypatch, grammar,
                                        real_models):
        ensemble, ad, _ = real_models
        bounds = (np.zeros(4), np.ones(4))
        decoded = []

        def counting_decode(cells, grammar):
            decoded.append(tuple(cells))
            return decode_cells(cells, grammar)

        monkeypatch.setattr(loop, "decode_cells", counting_decode)
        cfg = RunConfig(method="ga", seed=2, max_total=300, max_unique=1000)
        records, _ = run(cfg, grammar, ensemble, ad=ad, bounds=bounds)
        rows = {tuple(cell_map(grammar, bounds)(r.latent_full))
                for r in records}
        assert len(decoded) == len(set(decoded)) == len(rows) < len(records)
        assert set(decoded) == rows


class TestStatePath:
    """The loop scores each decoded grammar.State as the builder made it,
    with no MolecularGraph or validation: for every molecule of the
    n_dims=6 enumeration, its first built state must give what its
    MolecularGraph gives."""

    @pytest.fixture(scope="class")
    def first_states(self):
        """(State, MolecularGraph) of each molecule's first built state,
        with the builder's own bond order and sums."""
        built = {}
        firsts = []

        def keep(state):
            if state is not None:
                built[id(state[1])] = state
            return state

        def first_graph(atoms, bonds):
            firsts.append(grammar_mod.State(*built[id(bonds)]))
            return MolecularGraph(atoms, bonds)

        attach, scaffold = grammar_mod._attach, grammar_mod._scaffold
        with pytest.MonkeyPatch.context() as m:
            m.setattr(grammar_mod, "_attach", lambda *a: keep(attach(*a)))
            m.setattr(grammar_mod, "_scaffold",
                      lambda *a: keep(scaffold(*a)))
            m.setattr(grammar_mod, "MolecularGraph", first_graph)
            molecules = enumerate_grammar(FragmentGrammar(n_dims=6))
        assert len(firsts) == len(molecules) == 2324
        return [(s, MolecularGraph(s.atoms, s.bonds)) for s in firsts]

    def test_first_states_as_built(self, first_states):
        # the states keep the builder's bond order, which a MolecularGraph
        # sorts away; every bond is written low atom first either way
        assert sum(list(s.bonds) != list(g.bonds)
                   for s, g in first_states) > 1000
        for s, g in first_states:
            assert molgraph._validate(g) == (molgraph.OK, s.sums)

    def test_canonical_form(self, first_states):
        for s, g in first_states:
            assert canonical_form_trusted(*s) == canonical_form(g)

    def test_features_and_adjacency(self, first_states):
        for s, g in first_states:
            for a, b in zip(graph_arrays(s), graph_arrays(g)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert atom_features(s).tobytes() == atom_features(g).tobytes()

    def test_ensemble_bits(self, first_states, tiny_ensemble):
        for s, g in first_states:
            (fp_s, pred_s), (fp_g, pred_g) = (tiny_ensemble.evaluate(s),
                                              tiny_ensemble.evaluate(g))
            assert fp_s.tobytes() == fp_g.tobytes()
            assert np.array([pred_s.ron, pred_s.mon, pred_s.dcn]).tobytes() \
                == np.array([pred_g.ron, pred_g.mon, pred_g.dcn]).tobytes()
