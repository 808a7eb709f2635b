"""In-memory span recorder for the traced benchmark run.

Probes wrap moldesign's public functions where callers look them up: the
defining module and every moldesign module that imported the same object
(for example both ``moldesign.grammar.decode`` and ``moldesign.loop.decode``),
so intra-module and cross-module calls are both seen. Methods are wrapped on
their class. A probe whose target no longer exists is reported as missing.

Each span is (name, start, end, parent span index, operation id), timed by
hostspeed.clock(), which leaves out the speed probe's kernel runs. Self
time is a span's duration minus the durations of its direct children.
"""

import functools
import gzip
import json
import sys

from hostspeed import clock

# Every probed public entry point, as "<module>.<function>" or
# "<module>.<Class>.<method>" under the moldesign package.
PROBES = (
    "molgraph.canonical_smiles",
    "molgraph.parse_smiles",
    "molgraph.atom_features",
    "grammar.decode",
    "grammar.encode",
    "grammar.enumerate_grammar",
    "gnn.GNN.forward",
    "gnn.GNN.loss_and_grad",
    "gnn.GnnEnsemble.predict",
    "gnn.GnnEnsemble.fingerprints",
    "gnn.train_model",
    "adomain.ad_vote",
    "adomain.OneClassSvm.decision",
    "adomain.fit_svm",
    "optimizers.propose_batch",
    "optimizers.gp_fit",
    "optimizers.gp_posterior",
    "optimizers.expected_improvement",
    "optimizers.pca_fit",
    "optimizers.ga_step",
    "loop.evaluate_candidate",
    "loop.bounds_from_corpus",
    "loop.run",
    "dataio.ingest_dataset",
)


def _resolve(probe):
    """(owner object, attribute name, original) or None when missing."""
    module_name, _, rest = probe.partition(".")
    owner = sys.modules.get("moldesign." + module_name)
    parts = rest.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    attr = parts[-1]
    target = vars(owner).get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if not callable(target):
        return None
    return owner, attr, target


def patch_everywhere(original, replacement):
    """Point every moldesign module attribute bound to `original` at
    `replacement`. Returns the undo list of (module, attribute)."""
    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "moldesign"
                                  or name.startswith("moldesign.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr))
    return patched


class Tracer:
    """Records spans of the probed functions while `enabled` is true."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None
        self.enabled = False
        self.missing = []
        self.canonical_outputs = {}   # op id -> distinct SMILES returned
        self._undo = []

    # -- installation ----------------------------------------------------
    def install(self):
        for probe in PROBES:
            found = _resolve(probe)
            if found is None:
                self.missing.append(probe)
                continue
            owner, attr, original = found
            wrapper = self._wrap(probe, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
            else:
                for module, name in patch_everywhere(original, wrapper):
                    self._undo.append((module, name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self
        observe = self._saw_canonical \
            if name == "molgraph.canonical_smiles" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def _saw_canonical(self, smiles):
        self.canonical_outputs.setdefault(self.op_id, set()).add(smiles)

    # -- reporting -------------------------------------------------------
    def layer_table(self, n_ops):
        """{probe: (calls per op, self seconds per op)} for every probe."""
        calls = {p: 0 for p in PROBES}
        total = {p: 0.0 for p in PROBES}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start - child[i]
        return {p: (calls[p] / n_ops, total[p] / n_ops) for p in PROBES}

    def ratios(self, results):
        """Wasted-work ratios, each over its base (0 when the base is 0)."""
        calls = {p: c for p, (c, _) in self.layer_table(1).items()}

        def share(part, base):
            return part / base if base else 0.0

        def total(count):
            return sum(r.counts.get(count, 0) for r in results)

        # each record is one evaluate_candidate call, hence one decode
        records = total("records")
        return {
            "grammar.decode.distinct_ratio": (share(
                total("distinct"), records), "ratio"),
            "molgraph.canonical_smiles.distinct_ratio": (share(
                sum(map(len, self.canonical_outputs.values())),
                calls["molgraph.canonical_smiles"]), "ratio"),
            "loop.duplicate_ratio": (share(total("duplicates"), records),
                                     "ratio"),
            "loop.penalized_ratio": (share(total("penalized"), records),
                                     "ratio"),
        }

    def write(self, path, header):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt") as f:
            f.write(json.dumps(dict(header, names=names,
                                    fields=["name", "start", "end",
                                            "parent", "op"])) + "\n")
            for name, start, end, parent, op in self.spans:
                f.write("[%d,%.9f,%.9f,%d,%d]\n"
                        % (ids[name], start, end, parent, op))
