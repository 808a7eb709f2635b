"""The design loop: optimizer -> decode -> AD gate -> predict -> score.

Candidates outside the applicability domain receive the penalty score.
Duplicates are scored and logged but do not count toward the
unique-molecule budget. The objective is RON + OS = 2 RON - MON.

Each point is mapped to its decision cells. Each distinct cell row is
decoded once per run, and each built grammar.State is canonicalised
(trusted: the builder keeps it valid), scored and gated once per run by
`_evaluate_graph`, which decides the penalty; its cache entry is the
graph's record fields that no point changes. Many cell rows build one
graph, because an illegal attachment acts as a stop. Entries are keyed on
the graph as built (atoms in build order, bonds low atom first), not
SMILES: one molecule built with another atom order can get predictions
that differ in the last bit, while one graph always gets the same bits.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import checks, optimizers
from .adomain import ad_vote
from .checks import as_box, is_int, is_real
from .grammar import NotExpressible, cell_center, cell_map, decode_cells, \
    encode_cells
from .molgraph import canonical_form_trusted

log = logging.getLogger("moldesign")

PENALTY = optimizers.PENALTY_SCORE
PROMISING_RON = 110
PROMISING_OS = 10
BOUND_EXPANSION = 0.2   # search-box margin on each side, a share of the span


class LoopError(Exception):
    pass


class ConfigError(LoopError, checks.ConfigError):
    pass


class NoExpressibleMolecules(LoopError, checks.ConfigError):
    pass


@dataclass
class RunConfig:
    """What one run varies. The rest is fixed: GA searches the full latent
    box with the optimizers.GA_* settings, BO the PCA space of the corpus
    (optimizers.PCA_TARGET_RATIO) with the optimizers.BO_* settings. Given
    bounds are used as they are; a box taken from the corpus (BO's, and
    the latent box without given bounds) is widened by BOUND_EXPANSION."""
    method: str = "ga"                  # "bo" or "ga"
    seed: int = 0
    max_unique: int = 1000
    max_total: int = 2000
    time_limit_s: float = None
    ad_enabled: bool = True
    penalty = PENALTY   # the fixed score of penalized candidates, not a field

    def __post_init__(self):
        if self.method not in ("bo", "ga"):
            raise ConfigError("method must be 'bo' or 'ga'")
        budgets = ("max_unique", "max_total", "time_limit_s")
        for name in budgets:
            value = getattr(self, name)
            if value is not None and not (is_real(value) and value > 0):
                raise ConfigError("%s must be null or a finite number > 0, "
                                  "not %r" % (name, value))
        if all(getattr(self, name) is None for name in budgets):
            raise ConfigError("a run needs max_unique, max_total or "
                              "time_limit_s; all null never ends")
        if not is_int(self.seed, 0):
            raise ConfigError("seed must be an integer >= 0")
        if not isinstance(self.ad_enabled, bool):
            raise ConfigError("ad_enabled must be true or false")

    def to_dict(self):
        return vars(self).copy()


@dataclass
class RunRecord:
    index: int
    latent_full: list
    latent_reduced: list
    smiles: str
    ron: float
    mon: float
    dcn: float
    os: float
    score: float
    in_ad: bool
    vote_sum: int
    duplicate: bool
    penalty_applied: bool


def bounds_from_corpus(corpus, grammar, expansion=BOUND_EXPANSION):
    """Per-dimension [min, max] over encoded corpus latents, expanded."""
    return _bounds_from_cells(_corpus_cells(corpus, grammar), grammar,
                              expansion)


def _corpus_cells(corpus, grammar):
    """Decision cells of every expressible corpus molecule, in order."""
    out, skipped = [], 0
    for g in corpus:
        try:
            out.append(encode_cells(g, grammar))
        except NotExpressible:
            skipped += 1
    if skipped:
        log.warning("corpus: skipped %d of %d molecules that the grammar "
                    "cannot express", skipped, skipped + len(out))
    return out


def _bounds_from_cells(cells, grammar, expansion):
    if not cells:
        raise NoExpressibleMolecules("no corpus molecule is expressible")
    unit = (np.zeros(grammar.n_dims), np.ones(grammar.n_dims))
    pts = np.array([cell_center(c, grammar, unit) for c in cells])
    return expand_bounds(pts.min(axis=0), pts.max(axis=0), expansion)


def expand_bounds(lo, hi, expansion):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    span = hi - lo
    out_lo = np.where(span > 0, lo - expansion * span, lo - 0.5)
    out_hi = np.where(span > 0, hi + expansion * span, hi + 0.5)
    return out_lo, out_hi


class EvaluationContext:
    """Shared state for scoring candidates within one run. ad gates each
    new graph (None scores every candidate); pca, when given, lifts search
    points to the full latent space. cells maps a full-space point to its
    decision cells in bounds, prepared once for the run. cache holds each
    built graph's record fields, as `_evaluate_graph` decides them, and
    by_cells indexes it by cell row: a row seen before is not decoded."""

    def __init__(self, grammar, bounds, ensemble, ad=None, pca=None):
        self.grammar = grammar
        self.bounds = bounds
        self.cells = cell_map(grammar, bounds)
        self.ensemble = ensemble
        self.ad = ad
        self.pca = pca
        self.seen = set()      # unique-budget set: non-penalized molecules
        self.observed = set()  # every decoded molecule, for duplicate flags
        self.records = []
        # (atoms, set of (low, high, order) bonds) -> that graph's fields
        self.cache = {}
        self.by_cells = {}     # cell row (tuple) -> its graph's cache entry

    @property
    def n_unique(self):
        return len(self.seen)

    @property
    def n_total(self):
        return len(self.records)


def evaluate_candidate(z, ctx):
    """Decode, gate through the AD, predict, and score one latent point.

    A point whose cell row, or else whose built graph, was evaluated before
    in this run takes that graph's cached record fields; its index, latents
    and duplicate flag are its own.
    """
    z = np.asarray(z, dtype=float)
    z_full = z if ctx.pca is None else ctx.pca.lift(z)
    row = tuple(ctx.cells(z_full))
    if row not in ctx.by_cells:
        state = decode_cells(row, ctx.grammar)
        key = state.atoms, frozenset(state.bonds)
        if key not in ctx.cache:
            ctx.cache[key] = _evaluate_graph(state, ctx)
        ctx.by_cells[row] = ctx.cache[key]
    fields = ctx.by_cells[row]
    rec = RunRecord(len(ctx.records), z_full.tolist(),
                    None if ctx.pca is None else z.tolist(),
                    duplicate=fields["smiles"] in ctx.observed, **fields)
    ctx.observed.add(rec.smiles)
    ctx.records.append(rec)
    return rec


def _evaluate_graph(state, ctx):
    """The RunRecord fields of a built grammar.State that no point changes,
    from one ensemble pass: the one place that decides the penalty. An AD
    rejection gets null properties and the PENALTY score, a run without an
    AD a null in_ad and vote_sum; an unpenalized graph joins ctx.seen."""
    smiles = canonical_form_trusted(*state)[0]
    fingerprints, pred = ctx.ensemble.evaluate(state)
    in_ad, vote_sum = (None, None) if ctx.ad is None \
        else ad_vote(fingerprints, ctx.ad)
    fields = dict(smiles=smiles, in_ad=in_ad, vote_sum=vote_sum,
                  penalty_applied=ctx.ad is not None and not in_ad,
                  score=float(PENALTY), ron=None, mon=None, dcn=None, os=None)
    if not fields["penalty_applied"]:
        ctx.seen.add(smiles)
        fields.update(ron=float(pred.ron), mon=float(pred.mon),
                      dcn=float(pred.dcn), os=float(pred.os),
                      score=float(pred.score))
    return fields


def run(config, grammar, ensemble, ad=None, corpus=None, bounds=None):
    """Execute one design-loop run. Returns (records, summary).

    The latent box is bounds, or else the corpus's; BO needs the corpus.
    Each slot of the box needs finite bounds with lo <= hi (zero width is
    allowed) and a finite width, or ConfigError names it."""
    if config.ad_enabled and ad is None:
        raise ConfigError("AD enabled but no AD ensemble given: "
                          "missing AD section (fit-ad adds it)")
    if bounds is None and not corpus:
        raise ConfigError("need either explicit bounds or a corpus")
    bo = config.method == "bo"
    if bo and not corpus:
        raise ConfigError("BO searches the PCA space of a corpus; "
                          "give a corpus")
    # each corpus molecule is encoded once; its cells map to both boxes
    corpus_cells = _corpus_cells(corpus, grammar) \
        if bounds is None or bo else []
    if bounds is None:
        bounds = _bounds_from_cells(corpus_cells, grammar, BOUND_EXPANSION)
    lo, hi = as_box(bounds, grammar.n_dims, optimizers.DimensionMismatch)
    for i, (l, h) in enumerate(zip(lo.tolist(), hi.tolist())):
        if not (is_real(l) and is_real(h) and l <= h and is_real(h - l)):
            raise ConfigError("latent box slot %d is [%r, %r]: bounds must "
                              "be finite, with lo <= hi and a finite width"
                              % (i, l, h))

    pca = None
    search_bounds = (lo, hi)
    n_dims = grammar.n_dims
    if bo:
        if len(set(map(tuple, corpus_cells))) < 2:
            raise NoExpressibleMolecules("BO's PCA needs 2 distinct "
                                         "expressible corpus molecules")
        latents = [cell_center(c, grammar, (lo, hi)) for c in corpus_cells]
        pca = optimizers.pca_fit(latents)
        reduced = pca.project(np.array(latents))
        search_bounds = expand_bounds(reduced.min(axis=0),
                                      reduced.max(axis=0), BOUND_EXPANSION)
        n_dims = pca.r

    ctx = EvaluationContext(grammar, (lo, hi), ensemble,
                            ad=ad if config.ad_enabled else None, pca=pca)

    start = time.monotonic()

    def stop(_n_evals):
        if config.max_total is not None and ctx.n_total >= config.max_total:
            return True
        if config.max_unique is not None and ctx.n_unique >= config.max_unique:
            return True
        # a run scores its first point whatever the time budget
        return config.time_limit_s is not None and bool(ctx.records) \
            and time.monotonic() - start > config.time_limit_s

    def objective(z):
        return evaluate_candidate(z, ctx).score

    search = optimizers.run_bo if bo else optimizers.run_ga
    search(objective, search_bounds, n_dims, stop, seed=config.seed)

    return ctx.records, summarize(ctx.records)


def best_per_molecule(records):
    """SMILES -> the best-scoring non-penalized record of that molecule, in
    order of first appearance; of equal scores the earliest record wins."""
    best = {}
    for rec in records:
        if rec.penalty_applied:
            continue
        if rec.smiles not in best or rec.score > best[rec.smiles].score:
            best[rec.smiles] = rec
    return best


def is_promising(rec):
    """RON > 110 and OS > 10, both strict."""
    return rec.ron is not None and rec.os is not None \
        and rec.ron > PROMISING_RON and rec.os > PROMISING_OS


def summarize(records):
    """Table-style run statistics.

    Penalized records are excluded; max and mean-top-20 are over the best
    score per distinct molecule, and a molecule is promising when its best
    record is.
    """
    if not records:
        raise LoopError("no records to summarize")
    best_per_mol = best_per_molecule(records)
    scores = sorted((rec.score for rec in best_per_mol.values()),
                    reverse=True)
    top = scores[:20]
    return {
        "empty": not scores,
        "n_total": len(records),
        "n_penalized": sum(1 for r in records if r.penalty_applied),
        "n_unique": len(best_per_mol),
        "n_promising": sum(map(is_promising, best_per_mol.values())),
        "max_score": scores[0] if scores else None,
        "mean_top20": sum(top) / len(top) if top else None,
    }


def write_records(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(vars(rec), sort_keys=True))
            f.write("\n")


def _or_null(kind):
    what, check = kind
    return what + " or null", lambda x: x is None or check(x)


_INT = "an integer", lambda x: is_int(x, -math.inf)
_REAL = "a finite number", is_real
_REALS = "a list of finite numbers", \
    lambda x: isinstance(x, list) and all(map(is_real, x))
_FLAG = "true or false", lambda x: isinstance(x, bool)

# RunRecord field -> (what evaluate_candidate writes there, its check); a
# graph's cache entry (_evaluate_graph decides its penalty) holds all but
# index, latents and duplicate. vote_sum < 0: most AD members vote out
_RECORD_VALUES = {
    "index": ("an integer >= 0", lambda x: is_int(x, 0)),
    "latent_full": _REALS, "latent_reduced": _or_null(_REALS),
    "smiles": ("a string", lambda x: isinstance(x, str)),
    "ron": _or_null(_REAL), "mon": _or_null(_REAL), "dcn": _or_null(_REAL),
    "os": _or_null(_REAL), "score": _REAL, "in_ad": _or_null(_FLAG),
    "vote_sum": _or_null(_INT), "duplicate": _FLAG, "penalty_applied": _FLAG,
}


def read_records(path):
    """The records of a records.jsonl file. A line that is not one record
    (JSON object with exactly RunRecord's keys, each holding a value of
    the kind evaluate_candidate writes), or a file without any, raises
    ConfigError naming the file and the line."""
    out = []
    lines = checks.read_text(path).split("\n")
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = "%s line %d" % (path, line_no)
        try:
            values = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError("%s: not JSON: %s" % (where, e)) from None
        if not isinstance(values, dict):
            raise ConfigError("%s: not a JSON object" % where)
        keys = _RECORD_VALUES.keys()
        if values.keys() != keys:
            raise ConfigError("%s: not a record: missing keys %s, unknown "
                              "keys %s" % (where, sorted(keys - values.keys()),
                                           sorted(values.keys() - keys)))
        for key, (what, check) in _RECORD_VALUES.items():
            if not check(values[key]):
                raise ConfigError("%s: %s must be %s, not %s" % (
                    where, key, what, json.dumps(values[key])))
        out.append(RunRecord(**values))
    if not out:
        raise ConfigError("%s holds no records" % path)
    return out
