"""Host-speed probe: stage times in units of a fixed reference kernel.

On a shared host the speed drifts by up to a third within seconds, and a
stage takes seconds. While an operation runs, a SIGALRM timer runs a fixed
reference kernel every PROBE_INTERVAL_S seconds. The workloads time their
stages with clock(), which leaves the kernel's runs out; a stage's time
over the kernel's median time during it is the stage's length in kernel
units, which the drift moves far less than it moves seconds.
"""

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.1

_probe_s = 0.0   # total time spent in reference_kernel under a probe


def clock():
    """time.perf_counter() less the time the probe has spent."""
    return time.perf_counter() - _probe_s


def reference_kernel():
    """Fixed work in the workloads' mix, about 2.5 ms on a Xeon vCPU:
    Python dicts, lists and tuples; many numpy calls on arrays the size of
    a molecule's GNN activations; a few 48 x 48 products."""
    table = {}
    for i in range(1500):
        key = (i % 97, i % 89)
        table.setdefault(key, []).append(i * 31 % 1009)
    rows = sorted((len(v), k) for k, v in table.items())
    h = np.linspace(-1.0, 1.0, 12 * 32).reshape(12, 32)
    w = np.linspace(-0.2, 0.2, 32 * 32).reshape(32, 32)
    adj = np.eye(12, k=1) + np.eye(12, k=-1)
    for _ in range(30):
        z = h @ w + adj @ h @ w
        h = np.maximum(z, 0.0) / (1.0 + np.abs(z).sum())
        g = h.T @ z
    a = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)
    for _ in range(10):
        a = np.tanh(a @ a.T / 48.0 + 0.01)
    return len(rows), float(g.sum() + a.sum())


class SpeedProbe:
    """Times reference_kernel every PROBE_INTERVAL_S seconds while the
    block runs, and once after it if the block was too short for that."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def _sample(self, signum=None, frame=None):
        global _probe_s
        t0 = time.perf_counter()
        reference_kernel()
        spent = time.perf_counter() - t0
        self.samples.append(spent)
        _probe_s += spent

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()

    def reference_s(self):
        """The kernel's median time during the block."""
        return statistics.median(self.samples)
