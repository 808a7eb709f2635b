"""Applicability domain: one nu-one-class SVM per GNN, majority vote.

The dual problem
    min 0.5 a' K a   s.t.  0 <= a_i <= 1/(nu m),  sum a_i = 1
is solved by pairwise coordinate updates (SMO style) on an RBF kernel.
A fingerprint is inside the domain when the ensemble vote sum is
strictly positive. The vote takes all K members' decisions in one batched
computation over the members' support vectors, zero-padded to one stack.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import logging
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .checks import repeated

log = logging.getLogger("moldesign")

SVM_TOL = 1e-6            # SMO stops once the KKT gap is below this
# SMO pair updates; past them fit_svm warns and returns its last iterate
SVM_MAX_PASSES = 10 ** 5
GRID_PLATEAU = 0.05       # grid_search_hyperparams' support-vector plateau
# fit_svm holds the m x m float64 kernel of its m rows, 8 m^2 bytes, so it
# refuses more rows than fit in SVM_KERNEL_BYTES: 10,000 rows, an 800 MB
# kernel. rbf_kernel builds it in place, so the fit peaks near one kernel
# plus a block of FIT_KERNEL_BLOCK rows
SVM_KERNEL_BYTES = 8 * 10 ** 8
FIT_KERNEL_BLOCK = 256
SVM_MAX_ROWS = math.isqrt(SVM_KERNEL_BYTES // 8)


class AdError(Exception):
    pass


class DegenerateData(AdError):
    pass


def sq_distances(a, b):
    """Squared Euclidean distance between each row of a and each row of b,
    clipped at 0 against cancellation: max(|a|^2 + |b|^2 - 2 a.b, 0),
    built in the buffer of one (2.0 * a) @ b.T product, FIT_KERNEL_BLOCK
    rows at a time. The product stays one call: numpy rounds a product
    split into row blocks, or x @ x.T (a BLAS syrk), differently."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    d = (2.0 * a) @ b.T
    sa = np.sum(a * a, axis=1)
    sb = np.sum(b * b, axis=1)
    for start in range(0, len(a), FIT_KERNEL_BLOCK):
        block = d[start:start + FIT_KERNEL_BLOCK]
        np.subtract(sa[start:start + FIT_KERNEL_BLOCK, None] + sb, block,
                    out=block)
        np.maximum(block, 0.0, out=block)
    return d


def rbf_kernel(a, b, gamma):
    """exp(-gamma * sq_distances(a, b)), in sq_distances' buffer."""
    k = sq_distances(a, b)
    np.multiply(k, -gamma, out=k)
    return np.exp(k, out=k)


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    wheel bundles (scipy-openblas, in numpy.libs), or None, logged once as
    a WARNING, where this numpy build has no such library."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        np.__file__)), "numpy.libs", "libscipy_openblas*.so*"))
    try:
        lib = ctypes.CDLL(libs[0])   # the library numpy has loaded
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        log.warning("fit_svm: no scipy-openblas thread control beside "
                    "numpy; the AD fit's last bits may depend on the BLAS "
                    "thread count")
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's
    count. OpenBLAS splits a product between its threads, and the split
    changes the rounding of some entries: fits of 300 and of 1,500 rows of
    32 columns gave other alphas on 2 threads than on 1. The count is
    process-wide, so a BLAS call from another thread meanwhile also runs
    on one thread."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


def scale_gamma(fingerprints):
    """sklearn-style 'scale' rule: 1 / (dim * variance of all entries)."""
    x = np.asarray(fingerprints, dtype=float)
    var = x.var()
    if var <= 0:
        raise DegenerateData("zero variance in fingerprints")
    return 1.0 / (x.shape[1] * var)


@dataclass
class OneClassSvm:
    support_vectors: np.ndarray
    alphas: np.ndarray
    rho: float
    gamma: float
    nu: float
    n_train: int

    def decision(self, x):
        """f(x) = sum_i alpha_i k(x_i, x) - rho for each row x of the
        (n, d) array x, as an (n,) array; >= 0 means inside."""
        return rbf_kernel(x, self.support_vectors, self.gamma) @ self.alphas \
            - self.rho

    def to_state(self):
        return {
            "support_vectors": self.support_vectors.tolist(),
            "alphas": self.alphas.tolist(),
            "rho": self.rho,
            "gamma": self.gamma,
            "nu": self.nu,
            "n_train": self.n_train,
        }

    @classmethod
    def from_state(cls, state):
        return cls(
            support_vectors=np.array(state["support_vectors"], dtype=float),
            alphas=np.array(state["alphas"], dtype=float),
            rho=float(state["rho"]),
            gamma=float(state["gamma"]),
            nu=float(state["nu"]),
            n_train=int(state["n_train"]),
        )


def fit_svm(fingerprints, nu=0.05, gamma="scale"):
    """Fit a nu-one-class SVM on training fingerprints, at most
    SVM_MAX_ROWS of them. The fit's bits do not depend on the BLAS thread
    count (`_one_blas_thread`)."""
    x = np.asarray(fingerprints, dtype=float)
    if x.ndim != 2 or len(x) < 2:
        raise AdError("need at least 2 fingerprints")
    if len(x) > SVM_MAX_ROWS:
        raise AdError("%d fingerprint rows exceed SVM_MAX_ROWS=%d, the most "
                      "whose kernel fits in %d bytes" % (
                          len(x), SVM_MAX_ROWS, SVM_KERNEL_BYTES))
    if not (0 < nu <= 1):
        raise AdError("nu must be in (0, 1]")
    if np.allclose(x, x[0]):
        raise DegenerateData("all fingerprints identical")
    if gamma == "scale":
        gamma = scale_gamma(x)
    if gamma <= 0:
        raise AdError("gamma must be positive")

    m = len(x)
    cap = 1.0 / (nu * m)
    alpha = np.zeros(m)
    n_full = int(np.floor(nu * m))
    alpha[:n_full] = cap
    if n_full < m:
        alpha[n_full] = 1.0 - n_full * cap
    # the fit's two BLAS products, whose bits would depend on the host
    with _one_blas_thread():
        k = rbf_kernel(x, x, gamma)
        grad = k @ alpha

    eps = 1e-12
    gap = np.inf
    for _ in range(SVM_MAX_PASSES):
        up = alpha < cap - eps       # can receive weight
        down = alpha > eps           # can give weight
        i = int(np.argmin(np.where(up, grad, np.inf)))
        j = int(np.argmax(np.where(down, grad, -np.inf)))
        gap = grad[j] - grad[i]
        if gap < SVM_TOL:
            break
        eta = k[i, i] + k[j, j] - 2.0 * k[i, j]
        delta = gap / max(eta, eps)
        delta = min(delta, cap - alpha[i], alpha[j])
        alpha[i] += delta
        alpha[j] -= delta
        grad += delta * (k[:, i] - k[:, j])
    else:
        log.warning("fit_svm: stopped after SVM_MAX_PASSES=%d iterations with "
                    "KKT gap grad[j] - grad[i] = %.6g above tol %g",
                    SVM_MAX_PASSES, gap, SVM_TOL)

    sv = alpha > eps
    margin = sv & (alpha < cap - eps)
    # rho sits at the inner edge of the numerical margin band so margin
    # support vectors evaluate to f >= 0; only bound SVs can fall outside
    if margin.any():
        rho = float(grad[margin].min()) - SVM_TOL
    else:
        rho = float(grad[sv].mean())
    return OneClassSvm(
        support_vectors=x[sv].copy(),
        alphas=alpha[sv].copy(),
        rho=rho,
        gamma=float(gamma),
        nu=float(nu),
        n_train=m,
    )


@dataclass(frozen=True)
class AdEnsemble:
    """One SVM per GNN ensemble member, in a tuple that cannot be changed.

    The first vote stacks the members for batched decisions: support
    vectors padded with zero rows to a (K, S_max, d) array, alphas padded
    with zeros to (K, S_max), so a padded row adds nothing, and each
    member's gamma and rho.
    """

    svms: tuple

    def __post_init__(self):
        object.__setattr__(self, "svms", tuple(self.svms))

    @property
    def n_members(self):
        return len(self.svms)

    @cached_property
    def _stacks(self):
        """(support vectors, their squared norms, alphas, gamma, rho), each
        with one leading row per member."""
        k = len(self.svms)
        s_max = max(len(svm.alphas) for svm in self.svms)
        d = self.svms[0].support_vectors.shape[1]
        sv = np.zeros((k, s_max, d))
        alphas = np.zeros((k, s_max))
        for i, svm in enumerate(self.svms):
            sv[i, :len(svm.alphas)] = svm.support_vectors
            alphas[i, :len(svm.alphas)] = svm.alphas
        gamma = np.array([svm.gamma for svm in self.svms])
        rho = np.array([svm.rho for svm in self.svms])
        return sv, np.sum(sv * sv, axis=2), alphas, gamma, rho

    def decisions(self, fingerprints):
        """Member k's decision on row k of the (K, d) fingerprints, as a
        (K,) array: OneClassSvm.decision's kernel sum, with the squared
        distance |h|^2 + |sv|^2 - 2 h.sv clipped at 0, batched over the
        members. It agrees with the one-row decisions to rounding."""
        sv, sv_sq, alphas, gamma, rho = self._stacks
        h = fingerprints
        dots = (sv @ h[:, :, None])[:, :, 0]
        d2 = np.maximum(np.sum(h * h, axis=1)[:, None] + sv_sq - 2.0 * dots,
                        0.0)
        return np.sum(np.exp(-gamma[:, None] * d2) * alphas, axis=1) - rho

    def to_state(self):
        return {"svms": [s.to_state() for s in self.svms]}

    @classmethod
    def from_state(cls, state):
        return cls(svms=[OneClassSvm.from_state(s) for s in state["svms"]])


def ad_vote(fingerprints, ad):
    """Majority vote on one graph: (inside, vote_sum), a bool and an int.

    fingerprints is a (K, d) array with row k from ensemble member k, as
    each member's SVM lives in its own fingerprint space. Member k votes
    +1 when its decision on row k is >= 0, else -1; all K decisions come
    from one AdEnsemble.decisions call.
    """
    fingerprints = np.asarray(fingerprints, dtype=float)
    if fingerprints.ndim != 2 or len(fingerprints) != ad.n_members:
        raise AdError("expected a (%d, d) array of fingerprints, got shape %s"
                      % (ad.n_members, fingerprints.shape))
    vote_sum = 2 * int(np.count_nonzero(ad.decisions(fingerprints) >= 0)) \
        - ad.n_members
    return vote_sum > 0, vote_sum


def fit_ad_ensemble(per_model_fingerprints, nu=0.05, gamma="scale"):
    """Fit one SVM per model from that model's training fingerprints."""
    svms = [fit_svm(fps, nu=nu, gamma=gamma) for fps in per_model_fingerprints]
    return AdEnsemble(svms=svms)


def grid_search_hyperparams(fingerprints, gammas, nus):
    """Fit an SVM at every (gamma, nu) of the grid on one member's
    fingerprints and pick one of those fits.

    nu is 0.05 if nus holds it, and otherwise nus[0]; the other nu values
    only fill the table. gamma follows the plateau rule: in nu's column,
    walk gamma downward and select the smallest gamma whose support-vector
    count sits within GRID_PLATEAU of the count at the next-smaller gamma,
    or the smallest gamma when none does. "scale" is scale_gamma of these
    fingerprints. A repeated nu or gamma raises AdError, as a repeat would
    pair with itself as a plateau.

    Returns (svm, table): svm is the grid's fit at the selected point, and
    table rows are dicts with keys gamma, gamma_raw, nu, n_support_vectors
    and outlier_fraction.
    """
    if not gammas or not nus:
        raise AdError("empty hyperparameter grid")
    for name, values in (("gamma", gammas), ("nu", nus)):
        repeats = repeated(values)
        if repeats:
            raise AdError("repeated %s %r in the grid" % (name, repeats[0]))
    x = np.asarray(fingerprints, dtype=float)
    resolved = [(g, scale_gamma(x) if g == "scale" else float(g)) for g in gammas]

    svms, table = [], []
    for raw, gval in resolved:
        for nu in nus:
            svm = fit_svm(x, nu=nu, gamma=gval)
            outliers = int(np.sum(svm.decision(x) < 0))
            svms.append(svm)
            table.append({
                "gamma": gval,
                "gamma_raw": raw,
                "nu": nu,
                "n_support_vectors": len(svm.alphas),
                "outlier_fraction": outliers / len(x),
            })

    nu_sel = 0.05 if 0.05 in nus else nus[0]
    col = sorted((i for i, row in enumerate(table) if row["nu"] == nu_sel),
                 key=lambda i: -table[i]["gamma"])
    sv_counts = [table[i]["n_support_vectors"] for i in col]
    plateau = [i for i, hi, lo in zip(col, sv_counts, sv_counts[1:])
               if abs(hi - lo) <= GRID_PLATEAU * max(lo, 1)]
    return svms[(plateau or col)[-1]], table
