"""Command-line front end.

Subcommands train-gnn, fit-ad, run-loop, report and enumerate, one entry
each in COMMANDS, take --config (JSON) and --out, and refuse a config key
they do not read; train-gnn and run-loop take --seed, report --records.
Exit code 0 on success, 1 on configuration errors, 2 on runtime faults;
errors go to stderr as "error[CODE]: message". MOLDESIGN_LOG sets logging.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time

from . import adomain, checkpoint, dataio, gnn, loop
from .checks import (ConfigError, check_keys, is_int, is_real, read_json,
                     repeated)
from .grammar import FragmentGrammar, GrammarError, enumerate_grammar

log = logging.getLogger("moldesign")

CONFIG_ERRORS = (
    ConfigError,
    dataio.DataError,
    checkpoint.CheckpointError,
    GrammarError,
    OSError,
)


def _load_config(path, keys):
    """The config object at path ({} without one), refusing a
    schema_version other than 1 and a top-level key outside keys."""
    if path is None:
        return {}
    cfg = read_json(path)
    check_keys(cfg, keys, ConfigError)
    return cfg


def _from_section(cls, section, values):
    """cls(**values) for one config section, refusing keys that are not
    fields of cls."""
    if not isinstance(values, dict):
        raise ConfigError("config section %r must be an object" % section)
    fields = {f.name for f in dataclasses.fields(cls)}
    for key in values:
        if key not in fields:
            raise ConfigError("unknown key %r in config section %r"
                              % (key, section))
    return cls(**values)


def _required(cfg, key):
    """The path a config must give under key."""
    if not isinstance(cfg.get(key), str):
        raise ConfigError("config key %r is missing or not a path" % key)
    return cfg[key]


def _read_samples(path):
    """(graph, labels) per valid dataset row; each skipped row is logged."""
    from .molgraph import parse_smiles
    data = dataio.ingest_dataset(path)
    for issue in data.issues:
        log.warning("dataset: %s", issue)
    return [(parse_smiles(row.canonical), row.labels()) for row in data.rows]


def cmd_train_gnn(cfg, seed, out):
    gnn_cfg = _from_section(gnn.GnnConfig, "gnn", cfg.get("gnn", {}))
    train_cfg = _from_section(gnn.TrainConfig, "train", cfg.get("train", {}))
    n_models = cfg.get("n_models", 40)
    if not is_int(n_models, 1):
        raise ConfigError("n_models must be an integer >= 1")
    samples = _read_samples(_required(cfg, "dataset"))
    ensemble = gnn.GnnEnsemble(n_models=n_models, config=gnn_cfg, seed=seed)
    histories = gnn.train_ensemble(samples, ensemble, train_cfg)
    checkpoint.save_checkpoint(out, ensemble)
    with open(out + ".losses.json", "w") as f:
        json.dump({"seed": seed, "loss_histories": histories}, f)
    print("wrote checkpoint %s (%d models)" % (out, n_models))


def _check_ad_hyperparams(nus, gammas):
    if not (isinstance(nus, list) and nus
            and all(is_real(nu) and 0 < nu <= 1 for nu in nus)):
        raise ConfigError("each nu must be a number in (0, 1]")
    if not (isinstance(gammas, list) and gammas
            and all(g == "scale" or (is_real(g) and g > 0) for g in gammas)):
        raise ConfigError('each gamma must be "scale" or a finite number > 0')
    for key, values in (("nu_grid", nus), ("gamma_grid", gammas)):
        repeats = repeated(values)
        if repeats:
            raise ConfigError("config key %r repeats %s"
                              % (key, json.dumps(repeats[0])))


def cmd_fit_ad(cfg, out):
    grid_search = cfg.get("grid_search", False)
    if not isinstance(grid_search, bool):
        raise ConfigError("grid_search must be true or false")
    # each mode refuses the other's keys, which it would ignore
    for key in ("nu", "gamma") if grid_search else ("nu_grid", "gamma_grid"):
        if key in cfg:
            raise ConfigError("config key %r has no effect when grid_search "
                              "is %s" % (key, json.dumps(grid_search)))
    if grid_search:
        nus = cfg.get("nu_grid", [0.5, 0.1, 0.05, 0.01])
        gammas = cfg.get("gamma_grid", [0.5, 0.1, 0.01, 0.005, 0.001,
                                        0.0005, 0.0001, "scale"])
    else:
        nus, gammas = [cfg.get("nu", 0.05)], [cfg.get("gamma", "scale")]
    _check_ad_hyperparams(nus, gammas)
    ensemble, _, _ = checkpoint.load_checkpoint(_required(cfg, "checkpoint"))
    dataset = _required(cfg, "dataset")
    graphs = [g for g, _ in _read_samples(dataset)]
    if len(graphs) < 2:
        raise ConfigError("dataset %s holds %d valid distinct molecule(s); "
                          "fit-ad needs at least 2" % (dataset, len(graphs)))
    if len(graphs) > adomain.SVM_MAX_ROWS:
        raise ConfigError("dataset %s holds %d valid distinct molecules; "
                          "fit-ad fits at most SVM_MAX_ROWS=%d"
                          % (dataset, len(graphs), adomain.SVM_MAX_ROWS))
    per_model = ensemble.forward(graphs)[0]

    # extra replaces an earlier fit's, whose tables would be stale
    if grid_search:
        # each member picks its SVM from its own fingerprints
        fits = [adomain.grid_search_hyperparams(fps, gammas, nus)
                for fps in per_model]
        ad = adomain.AdEnsemble(svms=[svm for svm, _ in fits])
        extra = {"ad_grid_search": [
            {"selected_gamma": svm.gamma, "selected_nu": svm.nu,
             "table": table} for svm, table in fits]}
    else:
        nu, gamma = nus[0], gammas[0]
        ad = adomain.fit_ad_ensemble(per_model, nu=nu, gamma=gamma)
        extra = {"ad_hyperparams": {"nu": nu, "gamma": gamma if gamma == "scale"
                                    else float(gamma)}}
    checkpoint.save_checkpoint(out, ensemble, ad=ad, extra=extra)
    print("wrote checkpoint %s (+%d SVMs)" % (out, ad.n_members))


def cmd_run_loop(cfg, seed, out):
    loop_cfg = cfg.get("loop", {})
    if isinstance(loop_cfg, dict):
        if "seed" in loop_cfg:
            raise ConfigError("key 'seed' in config section 'loop' is "
                              "refused: the loop seed is --seed")
        loop_cfg = dict(loop_cfg, seed=seed)
    run_cfg = _from_section(loop.RunConfig, "loop", loop_cfg)
    ensemble, ad, _ = checkpoint.load_checkpoint(_required(cfg, "checkpoint"))
    grammar = FragmentGrammar.load(_required(cfg, "grammar"))
    corpus = dataio.read_smiles_corpus(_required(cfg, "corpus"))

    started = time.time()
    records, summary = loop.run(run_cfg, grammar, ensemble, ad=ad,
                                corpus=corpus)
    elapsed = time.time() - started

    os.makedirs(out, exist_ok=True)
    loop.write_records(os.path.join(out, "records.jsonl"), records)
    summary_doc = {"summary": summary, "config": run_cfg.to_dict(),
                   "grammar": grammar.to_config()}
    with open(os.path.join(out, "summary.json"), "w") as f:
        json.dump(summary_doc, f, indent=2, sort_keys=True)
    with open(os.path.join(out, "metadata.json"), "w") as f:
        json.dump({"started_unix": started, "elapsed_s": elapsed}, f)
    print("run finished: %d records, %d unique, max score %s"
          % (summary["n_total"], summary["n_unique"], summary["max_score"]))


def cmd_report(cfg, out):
    records = loop.read_records(_required(cfg, "records"))
    summary = loop.summarize(records)
    scatter = [{"smiles": rec.smiles, "ron": rec.ron, "os": rec.os,
                "score": rec.score, "in_ad": rec.in_ad,
                "promising": loop.is_promising(rec)}
               for rec in loop.best_per_molecule(records).values()]
    scatter.sort(key=lambda r: -r["score"])
    report = {
        "summary": summary,
        "thresholds": {"ron": loop.PROMISING_RON, "os": loop.PROMISING_OS,
                       "strict": True},
        "molecules": scatter,
        "promising": [r for r in scatter if r["promising"]],
    }
    with open(out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print("report: %d unique, %d promising"
          % (summary["n_unique"], summary["n_promising"]))


def cmd_enumerate(cfg, out):
    grammar = FragmentGrammar.load(_required(cfg, "grammar"))
    molecules = enumerate_grammar(grammar)
    with open(out, "w") as f:
        for smi in molecules:
            f.write(smi + "\n")
    print("enumerated %d molecules" % len(molecules))


# name: (handler, the top-level config keys it reads, the flags it takes
# beside --config and --out, help text). --seed goes to the handler; a
# flag named after one of the keys fills that key.
COMMANDS = {
    "train-gnn": (cmd_train_gnn, ("dataset", "n_models", "gnn", "train"),
                  ("--seed",), "train the GNN ensemble into a checkpoint"),
    "fit-ad": (cmd_fit_ad, ("checkpoint", "dataset", "nu", "gamma",
                            "grid_search", "nu_grid", "gamma_grid"), (),
               "fit the applicability-domain SVMs into a checkpoint"),
    "run-loop": (cmd_run_loop, ("checkpoint", "grammar", "corpus", "loop"),
                 ("--seed",), "execute a design-loop run"),
    "report": (cmd_report, ("records",), ("--records",),
               "render summary and scatter data from a records file"),
    "enumerate": (cmd_enumerate, ("grammar",), (),
                  "dump every molecule the grammar can produce"),
}

FLAGS = {
    "--seed": {"type": int, "default": 0, "help": "random seed, >= 0"},
    "--records": {"help": "records.jsonl path (overrides config)"},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="moldesign",
        description="Molecular design loop: generator, GNN ensemble, "
                    "applicability domain, black-box optimizers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, flags, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", required=True)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler, keys, _, _ = COMMANDS[args.command]
    seed = [args.seed] if "seed" in args else []   # for seeded handlers only
    try:
        level = os.environ.get("MOLDESIGN_LOG", "WARNING")
        if not isinstance(logging.getLevelName(level), int):
            raise ConfigError("MOLDESIGN_LOG must name a logging level such "
                              "as INFO or DEBUG, not %r" % level)
        logging.basicConfig(level=level)
        if seed and args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg = _load_config(args.config, keys)
        cfg.update((key, value) for key, value in vars(args).items()
                   if key in keys and value is not None)
        handler(cfg, *seed, args.out)
    except CONFIG_ERRORS as e:
        print("error[E_CONFIG]: %s" % e, file=sys.stderr)
        return 1
    except Exception as e:
        print("error[E_RUNTIME]: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
