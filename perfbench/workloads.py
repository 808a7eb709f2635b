"""The four benchmark workloads, one per CLI stage users run.

Each workload has a set-up (seeded input generation, plus training the
ensemble and fitting the AD for the design workloads), an operation (the
library calls one CLI stage makes), and output checks that run once per
operation with tracing off. Library calls go through module attributes,
such as ``loop.run``, so the traced run sees them.
"""

import contextlib
import os

import numpy as np

from moldesign import (adomain, checkpoint, dataio, gnn, grammar, loop,
                       molgraph, optimizers)
from hostspeed import clock
from tracer import patch_everywhere

N_MODELS = 5
LEARNING_RATE = 4e-3      # the README's train-gnn example
GRAMMAR_DIMS = 6
ENUMERATED_MOLECULES = 2324   # enumerate_grammar(FragmentGrammar(n_dims=6))

# The corpus comes from a fixed draw, not from --seed: encoding a molecule
# costs from microseconds to seconds depending on the molecule, so a seeded
# corpus would make bo-design's time depend on which molecules were drawn.
CORPUS_SEED = 2022
CORPUS_SIZE = 12


# Units of the stage-level figures the operations report.
FIGURE_UNITS = {
    "evals": "count",
    "evals_per_s": "1/s",
    "eval_ms_p50": "ms",
    "eval_ms_p99": "ms",
    "first_eval_s": "s",
    "best_score": "score",
    "top20_mean": "score",
    "train_graphs_per_s": "graphs/s",
    "fit_ad_s": "s",
    "train_mae": "label",
    "enumerate_s": "s",
}


class CheckFailed(Exception):
    pass


class OpResult:
    """One operation: its stage time, stage-level figures and identity."""

    def __init__(self, key, stage_s, figures, fingerprint=None, counts=None):
        self.key = key
        self.stage_s = stage_s
        self.figures = figures          # workload-specific stage metrics
        self.fingerprint = fingerprint  # bytes that a rerun must reproduce
        self.counts = counts or {}      # bases of the loop ratios
        # set by run.Ledger: the reference kernel's median time during the
        # operation, and stage_s in units of it
        self.reference_s = None
        self.stage_ref = None


def unit_box():
    return np.zeros(GRAMMAR_DIMS), np.ones(GRAMMAR_DIMS)


def seeded_molecules(fg, seed, n):
    """The first n distinct molecules decoded from seeded uniform latents."""
    rng = np.random.default_rng(seed)
    box = unit_box()
    found = {}
    while len(found) < n:
        g = grammar.decode(rng.uniform(0.0, 1.0, GRAMMAR_DIMS), fg, box)
        found.setdefault(molgraph.canonical_smiles(g), g)
    return found


def synthetic_labels(g):
    """The acceptance suite's synthetic RON/MON formula."""
    return {"ron": 10.0 * g.count("O") + 2.0 * g.n_rings + g.n_atoms,
            "mon": 5.0 * g.count("O") + g.n_atoms,
            "dcn": None}


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def out_dir():
    """Scratch directory for files the CLI stages would write."""
    path = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path


@contextlib.contextmanager
def hooked(module, name, make_wrapper):
    """Replace a moldesign function everywhere it is bound, for a block."""
    original = getattr(module, name)
    undo = patch_everywhere(original, make_wrapper(original))
    try:
        yield
    finally:
        for owner, attr in undo:
            setattr(owner, attr, original)


def _timed_evaluations(latencies, first_call):
    def make(original):
        def timed(*args, **kwargs):
            t0 = clock()
            if not first_call:
                first_call.append(t0)
            try:
                return original(*args, **kwargs)
            finally:
                latencies.append(clock() - t0)
        return timed
    return make


def _captured_bounds(store):
    def make(original):
        def capture(objective, bounds, *args, **kwargs):
            store.append(bounds)
            return original(objective, bounds, *args, **kwargs)
        return capture
    return make


class Workload:
    """set-up, then operation (timed, traced in the traced run), then finish
    (output checks and figures, never traced)."""

    def op_keys(self, seed):
        """The distinct operations of one run, cycled while time remains."""
        return [seed]

    def min_ops(self, seed):
        return len(self.op_keys(seed))


# ---------------------------------------------------------------------------
# Design workloads: loop.run, as `moldesign run-loop` calls it
# ---------------------------------------------------------------------------

class DesignWorkload(Workload):
    """Shared set-up and checks of ga-design and bo-design."""

    n_train = 100
    train_epochs = 10
    loop_seeds_per_run = 1

    def setup(self, seed):
        fg = grammar.FragmentGrammar(n_dims=GRAMMAR_DIMS)
        pool = seeded_molecules(fg, seed, self.n_train)
        data = [(g, synthetic_labels(g)) for g in pool.values()]
        ensemble = gnn.GnnEnsemble(n_models=N_MODELS, seed=seed)
        gnn.train_ensemble(data, ensemble, gnn.TrainConfig(
            epochs=self.train_epochs, learning_rate=LEARNING_RATE))
        fps = [[m.fingerprint(g) for g, _ in data] for m in ensemble.models]
        ad = adomain.fit_ad_ensemble(fps, nu=0.05, gamma=self.ad_gamma(fps))
        return {"grammar": fg, "ensemble": ensemble, "ad": ad, "seed": seed}

    def op_keys(self, seed):
        return [seed * 100 + k for k in range(self.loop_seeds_per_run)]

    def min_ops(self, seed):
        # the first loop seed runs twice: its records must be byte-identical
        return self.loop_seeds_per_run + 1

    def run_config(self, loop_seed):
        return loop.RunConfig(method=self.method, seed=loop_seed,
                              max_unique=self.max_unique,
                              max_total=self.max_total)

    def operation(self, state, loop_seed):
        cfg = self.run_config(loop_seed)
        latencies, first_call, search_bounds = [], [], []
        optimizer = "run_ga" if self.method == "ga" else "run_bo"
        with hooked(loop, "evaluate_candidate",
                    _timed_evaluations(latencies, first_call)), \
                hooked(optimizers, optimizer, _captured_bounds(search_bounds)):
            t0 = clock()
            records, summary = loop.run(cfg, state["grammar"],
                                        state["ensemble"], ad=state["ad"],
                                        **self.run_inputs(state))
            stage_s = clock() - t0
        return {"cfg": cfg, "records": records, "summary": summary,
                "stage_s": stage_s, "latencies": latencies,
                "first_eval_s": first_call[0] - t0,
                "search_bounds": search_bounds}

    def finish(self, state, loop_seed, out):
        records, summary = out["records"], out["summary"]
        self.check_records(out["cfg"], records, out["search_bounds"])
        path = os.path.join(out_dir(), "records-%s-%d.jsonl"
                            % (self.name, loop_seed))
        loop.write_records(path, records)
        with open(path, "rb") as f:
            blob = f.read()
        lat_ms = np.array(out["latencies"]) * 1e3
        figures = {
            "evals": len(records),
            "evals_per_s": len(records) / out["stage_s"],
            "eval_ms_p50": float(np.percentile(lat_ms, 50)),
            "first_eval_s": out["first_eval_s"],
            "best_score": summary["max_score"],
            "top20_mean": summary["mean_top20"],
        }
        if len(lat_ms) >= 1000:   # at least ten samples beyond the p99
            figures["eval_ms_p99"] = float(np.percentile(lat_ms, 99))
        counts = {"records": len(records),
                  "distinct": len({r.smiles for r in records if r.smiles}),
                  "duplicates": sum(bool(r.duplicate) for r in records),
                  "penalized": sum(bool(r.penalty_applied) for r in records)}
        return OpResult(loop_seed, out["stage_s"], figures, blob, counts)

    def check_records(self, cfg, records, search_bounds):
        check(0 < len(records) <= cfg.max_total,
              "%d records for max_total %d" % (len(records), cfg.max_total))
        check(len(search_bounds) == 1, "optimizer bounds not observed")
        lo, hi = (np.asarray(b, dtype=float) for b in search_bounds[0])
        for rec in records:
            if rec.penalty_applied:
                check(rec.score == cfg.penalty,
                      "record %d: penalized score %r" % (rec.index, rec.score))
            else:
                check(rec.vote_sum is not None and rec.vote_sum > 0,
                      "record %d: vote_sum %r outside the AD"
                      % (rec.index, rec.vote_sum))
                check(rec.score == 2 * rec.ron - rec.mon,
                      "record %d: score != 2 ron - mon" % rec.index)
            z = np.asarray(rec.latent_reduced if rec.latent_reduced
                           is not None else rec.latent_full)
            check(np.all(z >= lo - 1e-12) and np.all(z <= hi + 1e-12),
                  "record %d: latent outside the search box" % rec.index)


class GaDesign(DesignWorkload):
    name = "ga-design"
    method = "ga"
    max_unique = 1000
    max_total = 2000
    loop_seeds_per_run = 3

    def ad_gamma(self, fps):
        # as in test_end_to_end_oracle_equivalence
        return 20.0 * adomain.scale_gamma(np.vstack(fps))

    def run_inputs(self, state):
        return {"bounds": unit_box()}


class BoDesign(DesignWorkload):
    name = "bo-design"
    method = "bo"
    max_unique = 1000
    max_total = 40

    def setup(self, seed):
        state = super().setup(seed)
        state["corpus"] = list(seeded_molecules(
            state["grammar"], CORPUS_SEED, CORPUS_SIZE).values())
        return state

    def ad_gamma(self, fps):
        return "scale"   # the fit-ad CLI default

    def run_inputs(self, state):
        return {"corpus": state["corpus"]}


# ---------------------------------------------------------------------------
# train-ad: `moldesign train-gnn` then `moldesign fit-ad`
# ---------------------------------------------------------------------------

class TrainAd(Workload):
    name = "train-ad"
    n_molecules = 200
    epochs = 10

    def setup(self, seed):
        fg = grammar.FragmentGrammar(n_dims=GRAMMAR_DIMS)
        pool = seeded_molecules(fg, seed, self.n_molecules)
        path = os.path.join(out_dir(), "train-ad-%d.csv" % seed)
        with open(path, "w") as f:
            f.write("smiles,ron,mon,dcn\n")
            for smiles, g in pool.items():
                y = synthetic_labels(g)
                f.write("%s,%r,%r,\n" % (smiles, y["ron"], y["mon"]))
        return {"csv": path, "seed": seed}

    def operation(self, state, key):
        seed = state["seed"]
        t0 = clock()
        dataset = dataio.ingest_dataset(state["csv"])
        samples = [(molgraph.parse_smiles(row.canonical), row.labels())
                   for row in dataset.rows]
        t1 = clock()
        ensemble = gnn.GnnEnsemble(n_models=N_MODELS, seed=seed)
        histories = gnn.train_ensemble(samples, ensemble, gnn.TrainConfig(
            epochs=self.epochs, learning_rate=LEARNING_RATE))
        t2 = clock()
        graphs = [g for g, _ in samples]
        per_model = [[m.fingerprint(g) for g in graphs]
                     for m in ensemble.models]
        ad = adomain.fit_ad_ensemble(per_model, nu=0.05, gamma="scale")
        t3 = clock()
        return {"samples": samples, "histories": histories,
                "ensemble": ensemble, "ad": ad, "stage_s": t3 - t0,
                "train_s": t2 - t1, "fit_ad_s": t3 - t2}

    def finish(self, state, key, out):
        samples, ensemble = out["samples"], out["ensemble"]
        check(len(samples) == self.n_molecules,
              "ingested %d of %d rows" % (len(samples), self.n_molecules))
        check(all(np.all(np.isfinite(h)) for h in out["histories"]),
              "non-finite training loss")
        path = os.path.join(out_dir(), "train-ad-%d.ckpt" % state["seed"])
        checkpoint.save_checkpoint(path, ensemble, ad=out["ad"])
        loaded, loaded_ad, _ = checkpoint.load_checkpoint(path)
        check(loaded_ad is not None and loaded_ad.n_members == N_MODELS,
              "AD section lost in the checkpoint round trip")
        errors = []
        for g, y in samples:
            p = ensemble.predict(g)
            check(loaded.predict(g) == p,
                  "checkpoint round trip changed a prediction")
            errors.append((abs(p.ron - y["ron"]) + abs(p.mon - y["mon"])) / 2)
        figures = {
            "train_graphs_per_s":
                N_MODELS * self.epochs * len(samples) / out["train_s"],
            "fit_ad_s": out["fit_ad_s"],
            "train_mae": float(np.mean(errors)),
        }
        return OpResult(key, out["stage_s"], figures)


# ---------------------------------------------------------------------------
# enumerate: `moldesign enumerate`
# ---------------------------------------------------------------------------

class Enumerate(Workload):
    name = "enumerate"
    n_probes = 300

    def setup(self, seed):
        fg = grammar.FragmentGrammar(n_dims=GRAMMAR_DIMS)
        rng = np.random.default_rng(seed)
        box = unit_box()
        decoded = {molgraph.canonical_smiles(grammar.decode(
            rng.uniform(0.0, 1.0, GRAMMAR_DIMS), fg, box))
            for _ in range(self.n_probes)}
        return {"grammar": fg, "decoded": decoded}

    def operation(self, state, key):
        t0 = clock()
        molecules = grammar.enumerate_grammar(state["grammar"])
        return {"molecules": molecules, "stage_s": clock() - t0}

    def finish(self, state, key, out):
        molecules = out["molecules"]
        check(len(molecules) == ENUMERATED_MOLECULES,
              "enumerated %d molecules, expected %d"
              % (len(molecules), ENUMERATED_MOLECULES))
        for smiles in molecules:
            check(molgraph.canonical_smiles(molgraph.parse_smiles(smiles))
                  == smiles, "%s is not a canonical fixed point" % smiles)
        missing = state["decoded"].difference(molecules)
        check(not missing, "decoded molecules missing from the enumeration: "
              "%s" % sorted(missing)[:3])
        return OpResult(key, out["stage_s"], {"enumerate_s": out["stage_s"]})


WORKLOADS = {w.name: w for w in (GaDesign(), BoDesign(), TrainAd(),
                                 Enumerate())}
