"""Black-box maximizers over a box: GP-based BO and a real-valued genetic
algorithm, plus the PCA that the design loop fits to reduce BO's box.

BO starts from 10 uniform random points. Its surrogate is an exact GP
with a Matern 5/2 kernel; batches of 10 come from Thompson sampling on a
uniform candidate cloud plus one expected-improvement maximizer, refined
by N_RESTARTS pattern searches that run together, each round one batched
EI call holding the rest of every search's current sweep (as BoTorch's
optimize_acqf batches its restarts). The Thompson anchors are rows of the
cloud, whose one posterior gives their covariance; the draws are kriged
through its Cholesky factor (Rasmussen & Williams 2006, Alg. 2.1). The
GA keeps a population of 50 with the best 1% as elites, and breeds from a
top-30% parent pool by uniform crossover (probability 0.5) and per-gene
uniform-resample mutation (probability 0.1). The BO_* and GA_* constants
fix these values.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .adomain import sq_distances
from .checks import as_box

# scipy.linalg and scipy.special are imported where the GP and EI use
# them: loading them costs about 28 MB of resident memory, which the GA
# and every stage other than BO do not need.

log = logging.getLogger("moldesign")

PENALTY_SCORE = -1000.0   # the score of out-of-domain candidates

# the GA: population, per-gene mutation and per-child crossover
# probabilities, and the shares of the population kept as elites and
# drawn from as parents
GA_POPULATION_SIZE = 50
GA_MUTATION_PROB = 0.1
GA_CROSSOVER_PROB = 0.5
GA_ELITE_RATIO = 0.01
GA_PARENTS_PORTION = 0.3

# run_ga ends after this many consecutive generations that bring no point
# the objective has not seen: every child then repeats a scored point, so
# the loop's budget of new records can never be reached
GA_STALL_GENERATIONS = 1000

# run_bo: the uniform random points before the first GP fit, and the
# points each propose_batch call adds
BO_INIT_POINTS = 10
BO_BATCH_SIZE = 10

# propose_batch: the uniform candidate cloud, the rank limit of its
# Thompson draws, and the pattern-search starts of its EI refinement
N_CANDIDATES = 2048
THOMPSON_RANK = 64
N_RESTARTS = 20
PATTERN_MIN_STEP = 1e-4   # _pattern_search stops below this step

# pca_fit keeps the fewest axes that explain this share of the variance
PCA_TARGET_RATIO = 0.999


class OptimizerError(Exception):
    pass


class CholeskyFailure(OptimizerError):
    pass


class DimensionMismatch(OptimizerError):
    pass


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass
class PcaModel:
    mean: np.ndarray
    axes: np.ndarray              # (r, d), rows orthonormal

    @property
    def r(self):
        return self.axes.shape[0]

    def project(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.mean.shape[0]:
            raise DimensionMismatch("point dim %d != model dim %d"
                                    % (z.shape[-1], self.mean.shape[0]))
        return (z - self.mean) @ self.axes.T

    def lift(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.r:
            raise DimensionMismatch("reduced dim %d != r %d" % (v.shape[-1], self.r))
        return self.mean + v @ self.axes


def pca_fit(points):
    """PCA by eigendecomposition of the sample covariance.

    Keeps the smallest r whose cumulative explained-variance ratio reaches
    PCA_TARGET_RATIO. That r never exceeds the data rank: the eigenvalues
    beyond the rank are each at most 1e-12 of the largest, so below 10^9
    dimensions together they explain less than 1 - PCA_TARGET_RATIO.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or len(x) < 2:
        raise OptimizerError("need at least 2 points for PCA")
    mean = x.mean(axis=0)
    cov = np.cov(x - mean, rowvar=False, bias=False)
    cov = np.atleast_2d(cov)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]
    total = evals.sum()
    if total <= 0:
        raise OptimizerError("degenerate point cloud: zero total variance")
    cum = np.cumsum(evals / total)
    r = int(np.searchsorted(cum, PCA_TARGET_RATIO - 1e-12) + 1)
    return PcaModel(mean=mean, axes=evecs[:, :r].T.copy())


# ---------------------------------------------------------------------------
# Gaussian process with Matern 5/2 kernel
# ---------------------------------------------------------------------------

def matern52(a, b, signal_var, lengthscale):
    r = np.sqrt(sq_distances(a, b)) / lengthscale
    s5 = np.sqrt(5.0)
    return signal_var * (1.0 + s5 * r + 5.0 / 3.0 * r ** 2) * np.exp(-s5 * r)


@dataclass
class GpSurrogate:
    x_train: np.ndarray
    y_train: np.ndarray
    signal_var: float
    lengthscale: float
    noise_var: float
    chol: tuple = field(repr=False, default=None)
    weights: np.ndarray = field(repr=False, default=None)


def gp_fit(x, y, signal_var=1.0, lengthscale=1.0, noise_var=0.0):
    """Exact GP regression (zero prior mean) via Cholesky."""
    from scipy.linalg import cho_factor
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray_chkfinite(y, dtype=float)
    if len(x) < 1:
        raise OptimizerError("need at least one training point")
    k = matern52(x, x, signal_var, lengthscale)
    k[np.diag_indices_from(k)] += noise_var
    chol = None
    for jitter in (1e-8, 1e-6, 1e-4):
        try:
            chol = cho_factor(k + jitter * np.eye(len(x)), lower=True)
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise CholeskyFailure("kernel matrix not positive definite")
    if jitter > 1e-8:
        log.warning("gp_fit: kernel matrix needed jitter %g for Cholesky",
                    jitter)
    weights = _cho_solve(chol, y)
    return GpSurrogate(x, y, signal_var, lengthscale, noise_var, chol, weights)


def _cho_solve(chol, b):
    """scipy.linalg.cho_solve(chol, b) as one LAPACK dpotrs call, the
    routine it calls, so with the same bits, but without its per-call
    argument handling and finiteness checks (cho_factor has checked the
    factor)."""
    from scipy.linalg.lapack import dpotrs
    v, info = dpotrs(chol[0], b, lower=chol[1])
    if info:
        raise OptimizerError("dpotrs: illegal argument %d" % -info)
    return v


def _posterior(s, x):
    """(mean, variance, kq = k(x, X), v = K^-1 kq.T) at the rows of x; the
    posterior covariance of points y with x is k(y, x) - k(y, X) @ v."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    kq = matern52(x, s.x_train, s.signal_var, s.lengthscale)
    mean = kq @ s.weights
    v = _cho_solve(s.chol, kq.T)
    var = s.signal_var - np.sum(kq * v.T, axis=1)
    return mean, np.where(var < 0, 0.0, var), kq, v


def gp_posterior(s, x):
    """Posterior (mean, variance) at query points."""
    return _posterior(s, x)[:2]


def default_gp_params(x, y):
    """Median-distance heuristic for kernel hyperparameters."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    signal_var = float(np.var(y))
    if signal_var <= 0:
        signal_var = 1.0
    if len(x) > 1:
        d = np.sqrt(sq_distances(x, x))
        med = float(np.median(d[np.triu_indices(len(x), 1)]))
    else:
        med = 0.0
    lengthscale = med if med > 0 else 1.0
    return signal_var, lengthscale, 1e-6 * signal_var


def expected_improvement(s, x, best):
    """EI for maximization at each row of the (n, d) array x, as an (n,)
    array; always >= 0."""
    return _ei(*gp_posterior(s, x), best)


def _ei(mean, var, best):
    # the standard normal cdf and pdf computed as scipy.stats.norm does,
    # without its per-call argument handling
    from scipy.special import ndtr
    sigma = np.sqrt(var)
    sd = np.maximum(sigma, 1e-12)
    u = (mean - best) / sd
    closed = (mean - best) * ndtr(u) \
        + sd * (np.exp(-u ** 2 / 2.0) / np.sqrt(2 * np.pi))
    ei = np.where(sigma > 1e-12, closed, np.maximum(mean - best, 0.0))
    return np.maximum(ei, 0.0)


def _pattern_search(fn, starts, lo, hi):
    """Coordinate pattern search from each row of the (n, d) array starts,
    all n searches together; returns the (n, d) refined points and their
    (n,) values of fn.

    Each search tries +step then -step on each coordinate in turn, clipped
    to the box, and moves on a strict improvement; after a sweep with none
    it halves its step, and it stops once the step is at most
    PATTERN_MIN_STEP. The trials of a sweep are built from the point the
    search holds when it makes them, and that point changes only when a
    trial improves on it. So each round makes one call of fn, which maps
    an (m, d) array to (m,) values, holding every running search's
    remaining trials of its sweep, all built from its current point; each
    search takes its first improving trial, if any, and its next round
    starts at the trial after it. Each search thus makes the same moves as
    it would on its own, one trial per call, whenever a row's value of fn
    does not depend on the other rows of the call.

    EI's does, in its last bits: with numpy's bundled OpenBLAS, the
    matrix-vector product in the posterior mean rounds the rows of a
    trailing block of m mod 4 rows differently, and sq_distances rounds a
    one-row call differently. So which trials share a call can move EI in
    its last bits, and the BO records stay the same only as far as the
    pinned record tests show.
    """
    x = np.clip(np.asarray(starts, dtype=float), lo, hi)
    fx = fn(x)
    n, d = x.shape
    trial_no = np.arange(2 * d)
    coord = np.repeat(np.arange(d), 2)        # trial t moves coord[t]
    sign = np.tile([1.0, -1.0], d)            # by sign[t] * step
    step = np.tile(0.1 * (hi - lo), (n, 1))
    first = np.zeros(n, dtype=int)            # the next trial of each sweep
    improved = np.zeros(n, dtype=bool)
    live = np.flatnonzero(np.max(step, axis=1) > PATTERN_MIN_STEP)
    while live.size:
        trials = np.repeat(x[live, None, :], 2 * d, axis=1)
        trials[:, trial_no, coord] = np.clip(
            x[live][:, coord] + sign * step[live][:, coord], lo[coord],
            hi[coord])
        todo = trial_no >= first[live, None]
        ft = np.full(todo.shape, -np.inf)
        ft[todo] = fn(trials[todo])
        up = todo & (ft > fx[live, None])
        hit = up.any(axis=1)
        t = np.where(hit, np.argmax(up, axis=1), 2 * d)
        k = live[hit]
        x[k], fx[k] = trials[hit, t[hit]], ft[hit, t[hit]]
        improved[k] = True
        first[live] = t + 1
        done = live[first[live] >= 2 * d]     # searches that ended a sweep
        step[done[~improved[done]]] *= 0.5
        first[done], improved[done] = 0, False
        live = live[np.max(step[live], axis=1) > PATTERN_MIN_STEP]
    return x, fx


def propose_batch(s, bounds, batch_size, rng):
    """Thompson-sampled batch plus one refined EI maximizer, all drawn
    from the generator rng.

    Posterior function draws are rank-limited: values are sampled jointly
    at r anchor rows of the candidate cloud and kriged onto the rest
    through the Cholesky factor la of the anchors' covariance, as
    mean + cross @ la^-T z for each standard normal z. The cloud's one
    posterior gives the mean, that covariance, cross and the EI.
    Duplicate picks are dropped; the cloud's best EI points fill the gap.
    """
    from scipy.linalg import cholesky, solve_triangular
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    cloud = rng.uniform(lo, hi, size=(N_CANDIDATES, len(lo)))
    mean, var, k_cloud, v_cloud = _posterior(s, cloud)

    r = min(len(s.x_train), THOMPSON_RANK, N_CANDIDATES)
    anchor_idx = rng.choice(N_CANDIDATES, size=r, replace=False)
    cross = (matern52(cloud, cloud[anchor_idx], s.signal_var, s.lengthscale)
             - k_cloud @ v_cloud[:, anchor_idx])
    jitter = 1e-10 * max(s.signal_var, 1.0)
    cov_a = cross[anchor_idx]
    cov_a[np.diag_indices_from(cov_a)] += jitter
    try:
        la = cholesky(cov_a, lower=True)
    except np.linalg.LinAlgError:
        log.warning("propose_batch: anchor covariance is not positive "
                    "definite; Thompson draws use its diagonal")
        la = np.diag(np.sqrt(np.maximum(np.diag(cov_a), jitter)))
    z = rng.standard_normal((batch_size, r)).T
    draws = mean[:, None] + cross @ solve_triangular(la, z, lower=True,
                                                     trans="T")
    picks = list(cloud[np.argmax(draws, axis=0)])

    # EI refinement: a pattern search from the cloud's best EI point and
    # N_RESTARTS - 1 uniform starts; the first of the best results wins
    best = float(np.max(s.y_train))
    ei_cloud = _ei(mean, var, best)
    starts = np.vstack([cloud[int(np.argmax(ei_cloud))],
                        rng.uniform(lo, hi, size=(N_RESTARTS - 1, len(lo)))])
    xs, eis = _pattern_search(lambda x: expected_improvement(s, x, best),
                              starts, lo, hi)
    picks.insert(0, xs[int(np.argmax(eis))])

    batch = []
    for p in itertools.chain(picks, cloud[np.argsort(ei_cloud)[::-1]]):
        if not any(np.array_equal(p, q) for q in batch):
            batch.append(p)
        if len(batch) == batch_size:
            break
    return [np.array(p) for p in batch]


# ---------------------------------------------------------------------------
# Genetic algorithm
# ---------------------------------------------------------------------------

def ga_step(genes, fitness, bounds, rng):
    """One generation: elitism, parent pool, crossover, mutation.

    Each child draws, in this order: two parent indices, the crossover
    coin, a crossover mask if the coin says so, a mutation mask, and fresh
    genes if some gene mutates. The draws fill preallocated rows (a child
    that does not cross keeps a row of 0.0, which picks parent a), and the
    generation is then built at once. Mutated genes are
    lo + (hi - lo) * rng.random(d): rng.uniform(lo, hi), bit for bit and
    stream for stream, as numpy computes it.
    """
    genes = np.asarray(genes, dtype=float)
    fitness = np.asarray(fitness, dtype=float)
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    pop, d = genes.shape
    order = np.argsort(fitness, kind="stable")[::-1]
    elites = genes[order[:max(1, round(GA_ELITE_RATIO * pop))]]
    n_parents = max(2, round(GA_PARENTS_PORTION * pop))
    parents = genes[order[:n_parents]]

    n_kids = pop - len(elites)
    ia, ib = [0] * n_kids, [0] * n_kids
    cross = np.zeros((n_kids, d))
    mutate = np.empty((n_kids, d))
    fresh = np.zeros((n_kids, d))
    integers, random = rng.integers, rng.random
    for j in range(n_kids):
        # two scalar draws give the values of one integers(size=2) call
        # and leave the generator in the same state, at half the call cost
        ia[j] = integers(0, n_parents)
        ib[j] = integers(0, n_parents)
        if random() < GA_CROSSOVER_PROB:
            random(out=cross[j])
        row = mutate[j]
        random(out=row)
        if min(row.tolist()) < GA_MUTATION_PROB:
            random(out=fresh[j])
    kids = np.where(cross < 0.5, parents[ia], parents[ib])
    kids = np.where(mutate < GA_MUTATION_PROB, lo + (hi - lo) * fresh, kids)
    return np.concatenate([elites, kids])


# ---------------------------------------------------------------------------
# Optimization drivers
# ---------------------------------------------------------------------------

@dataclass
class RunHistory:
    """Every score of a run, in order, and from run_bo each score's point."""
    points: list
    scores: list

    def __len__(self):
        return len(self.scores)


def _make_stop(stop):
    if callable(stop):
        return stop
    max_evals = int(stop)
    return lambda n_evals: n_evals >= max_evals


def run_ga(objective, bounds, n_dims, stop, seed=0):
    """GA maximization over the box bounds = (lo, hi), two arrays of shape
    (n_dims,); history holds every score, in order, cache answers included,
    and no points. One DEBUG line on return gives the generations
    evaluated, the objective calls and the points answered from the cache."""
    lo, hi = as_box(bounds, n_dims, DimensionMismatch)
    stop_fn = _make_stop(stop)
    rng = np.random.default_rng(seed)
    history = RunHistory([], [])
    genes = rng.uniform(lo, hi, size=(GA_POPULATION_SIZE, n_dims))
    # Points already evaluated bit for bit (surviving elites, and children
    # that copy a parent unchanged) reuse their score and are not passed to
    # the objective again, so they add no record. This cache decides which
    # points reach the objective, so it stays even though the loop caches
    # by cell row and built graph.
    cache = {}

    def evaluate(pop):
        fits = np.empty(len(pop))
        for i, z in enumerate(pop):
            if stop_fn(len(history)):
                return None
            key = z.tobytes()
            if key not in cache:
                cache[key] = float(objective(z))
            fits[i] = cache[key]
            history.scores.append(fits[i])
        return fits

    stalled = generations = 0
    while True:
        n_called = len(cache)
        fits = evaluate(genes)
        generations += 1
        if fits is None or stop_fn(len(history)):
            break
        stalled = stalled + 1 if len(cache) == n_called else 0
        if stalled == GA_STALL_GENERATIONS:
            log.warning("run_ga: %d generations in a row brought no new "
                        "point; stopping after %d objective calls",
                        stalled, len(cache))
            break
        genes = ga_step(genes, fits, (lo, hi), rng)
    log.debug("run_ga: %d generations, %d objective calls, %d points "
              "answered from the cache",
              generations, len(cache), len(history) - len(cache))
    return history


def run_bo(objective, bounds, n_dims, stop, seed=0):
    """Bayesian optimization over the box bounds = (lo, hi), two arrays of
    shape (n_dims,); penalized scores (PENALTY_SCORE) are logged but kept
    out of the GP training set. stop is asked before each point and before
    each refill of the pending batch."""
    lo, hi = as_box(bounds, n_dims, DimensionMismatch)
    stop_fn = _make_stop(stop)
    rng = np.random.default_rng(seed)
    history = RunHistory([], [])
    # each point is a fresh row that nothing writes to: history keeps it
    pending = list(rng.uniform(lo, hi, size=(BO_INIT_POINTS, n_dims)))
    while not stop_fn(len(history)):
        if not pending:
            scores = np.array(history.scores)
            ok = scores > PENALTY_SCORE + 0.5
            if ok.sum() >= 2:
                x, y = np.array(history.points)[ok], scores[ok]
                surrogate = gp_fit(x, y, *default_gp_params(x, y))
                pending = propose_batch(surrogate, (lo, hi), BO_BATCH_SIZE,
                                        rng)
            else:
                pending = list(rng.uniform(lo, hi,
                                           size=(BO_BATCH_SIZE, n_dims)))
            continue
        z = pending.pop(0)
        score = float(objective(z))
        history.points.append(z)
        history.scores.append(score)
    return history
