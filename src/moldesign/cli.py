"""Command-line front end.

Subcommands: train-gnn, fit-ad, run-loop, report, enumerate. Every
subcommand takes --config (JSON), --seed, and --out. Exit code 0 on
success, 1 on configuration errors, 2 on runtime faults; errors go to
stderr as "error[CODE]: message". Set MOLDESIGN_LOG for verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time

from . import adomain, checkpoint, dataio, gnn, loop, optimizers
from .checks import is_int, is_real
from .grammar import FragmentGrammar, GrammarError, enumerate_grammar

log = logging.getLogger("moldesign")

CONFIG_ERRORS = (
    dataio.DataError,
    checkpoint.CheckpointError,
    loop.ConfigError,
    gnn.GnnConfigError,
    gnn.TrainConfigError,
    optimizers.GaConfigError,
    GrammarError,
    OSError,
    json.JSONDecodeError,
)


class CliError(Exception):
    def __init__(self, code, message, exit_code):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def _load_config(path):
    if path is None:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise CliError("E_CONFIG", "config must be a JSON object", 1)
    version = cfg.get("schema_version", 1)
    if version != 1:
        raise CliError("E_CONFIG", "unsupported config schema %r" % version, 1)
    return cfg


def _from_section(cls, section, values):
    """cls(**values) for one config section, refusing keys that are not
    fields of cls."""
    if not isinstance(values, dict):
        raise CliError("E_CONFIG", "config section %r must be an object"
                       % section, 1)
    fields = {f.name for f in dataclasses.fields(cls)}
    for key in values:
        if key not in fields:
            raise CliError("E_CONFIG", "unknown key %r in config section %r"
                           % (key, section), 1)
    return cls(**values)


def _required(cfg, key):
    """The path a config must give under key."""
    if not isinstance(cfg.get(key), str):
        raise CliError("E_CONFIG", "config key %r is missing or not a path"
                       % key, 1)
    return cfg[key]


def _dataset_samples(dataset):
    from .molgraph import parse_smiles
    return [(parse_smiles(row.canonical), row.labels()) for row in dataset.rows]


def cmd_train_gnn(cfg, seed, out):
    gnn_cfg = _from_section(gnn.GnnConfig, "gnn", cfg.get("gnn", {}))
    train_cfg = _from_section(gnn.TrainConfig, "train", cfg.get("train", {}))
    n_models = cfg.get("n_models", 40)
    if not is_int(n_models, 1):
        raise CliError("E_CONFIG", "n_models must be an integer >= 1", 1)
    data = dataio.ingest_dataset(_required(cfg, "dataset"))
    for issue in data.issues:
        log.warning("dataset: %s", issue)
    ensemble = gnn.GnnEnsemble(n_models=n_models, config=gnn_cfg, seed=seed)
    histories = gnn.train_ensemble(_dataset_samples(data), ensemble, train_cfg)
    checkpoint.save_checkpoint(out, ensemble)
    with open(out + ".losses.json", "w") as f:
        json.dump({"seed": seed, "loss_histories": histories}, f)
    print("wrote checkpoint %s (%d models)" % (out, n_models))


def _check_ad_hyperparams(nus, gammas):
    if not (isinstance(nus, list) and nus
            and all(is_real(nu) and 0 < nu <= 1 for nu in nus)):
        raise CliError("E_CONFIG", "each nu must be a number in (0, 1]", 1)
    if not (isinstance(gammas, list) and gammas
            and all(g == "scale" or (is_real(g) and g > 0) for g in gammas)):
        raise CliError("E_CONFIG", "each gamma must be \"scale\" or a "
                       "finite number > 0", 1)


def cmd_fit_ad(cfg, seed, out):
    nu = cfg.get("nu", 0.05)
    gamma = cfg.get("gamma", "scale")
    grid_search = cfg.get("grid_search", False)
    if grid_search:
        nus = cfg.get("nu_grid", [0.5, 0.1, 0.05, 0.01])
        gammas = cfg.get("gamma_grid", [0.5, 0.1, 0.01, 0.005, 0.001,
                                        0.0005, 0.0001, "scale"])
        _check_ad_hyperparams(nus, gammas)
    else:
        _check_ad_hyperparams([nu], [gamma])
    ensemble, _, payload = checkpoint.load_checkpoint(
        _required(cfg, "checkpoint"))
    data = dataio.ingest_dataset(_required(cfg, "dataset"))
    graphs = [g for g, _ in _dataset_samples(data)]
    per_model = list(ensemble.forward(graphs)[0])

    extra = payload.get("extra", {})
    if grid_search:
        import numpy as np
        pooled = np.vstack(per_model)
        gamma, nu, table = adomain.grid_search_hyperparams(pooled, gammas, nus)
        extra["ad_grid_search"] = {"selected_gamma": gamma, "selected_nu": nu,
                                   "table": table}
    ad = adomain.fit_ad_ensemble(per_model, nu=nu, gamma=gamma)
    extra["ad_hyperparams"] = {"nu": nu, "gamma": gamma if gamma == "scale"
                               else float(gamma)}
    checkpoint.save_checkpoint(out, ensemble, ad=ad, extra=extra)
    print("wrote checkpoint %s (+%d SVMs)" % (out, ad.n_members))


def _run_config_from(cfg, seed):
    loop_cfg = cfg.get("loop", {})
    if isinstance(loop_cfg, dict):
        loop_cfg = dict(loop_cfg, seed=seed)
        loop_cfg["ga"] = _from_section(optimizers.GaConfig, "loop.ga",
                                       loop_cfg.get("ga") or {})
    return _from_section(loop.RunConfig, "loop", loop_cfg)


def cmd_run_loop(cfg, seed, out):
    run_cfg = _run_config_from(cfg, seed)
    ensemble, ad, _ = checkpoint.load_checkpoint(_required(cfg, "checkpoint"))
    grammar = FragmentGrammar.load(_required(cfg, "grammar"))
    corpus = dataio.read_smiles_corpus(_required(cfg, "corpus"))
    if run_cfg.ad_enabled and ad is None:
        raise CliError("E_CONFIG", "checkpoint missing AD section", 1)

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


def cmd_report(cfg, seed, out, records_path=None):
    records_path = records_path or _required(cfg, "records")
    records = loop.read_records(records_path)
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


def cmd_enumerate(cfg, seed, out):
    grammar = FragmentGrammar.load(_required(cfg, "grammar"))
    molecules = enumerate_grammar(grammar)
    with open(out, "w") as f:
        for smi in molecules:
            f.write(smi + "\n")
    print("enumerated %d molecules" % len(molecules))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="moldesign",
        description="Molecular design loop: generator, GNN ensemble, "
                    "applicability domain, black-box optimizers.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "train-gnn": "train the GNN ensemble and write a checkpoint",
        "fit-ad": "fit the applicability-domain SVMs into a checkpoint",
        "run-loop": "execute a design-loop run",
        "report": "render summary and scatter data from a records file",
        "enumerate": "dump every molecule the grammar can produce",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        if name == "report":
            p.add_argument("--records", help="records.jsonl path "
                           "(overrides config)")
    return parser


HANDLERS = {
    "train-gnn": cmd_train_gnn,
    "fit-ad": cmd_fit_ad,
    "run-loop": cmd_run_loop,
    "report": cmd_report,
    "enumerate": cmd_enumerate,
}


def main(argv=None):
    logging.basicConfig(level=os.environ.get("MOLDESIGN_LOG", "WARNING"))
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise CliError("E_CONFIG", "--seed must be >= 0", 1)
        cfg = _load_config(args.config)
        handler = HANDLERS[args.command]
        if args.command == "report":
            handler(cfg, args.seed, args.out, records_path=args.records)
        else:
            handler(cfg, args.seed, args.out)
    except CliError as e:
        print("error[%s]: %s" % (e.code, e), file=sys.stderr)
        return e.exit_code
    except CONFIG_ERRORS as e:
        print("error[E_CONFIG]: %s" % e, file=sys.stderr)
        return 1
    except Exception as e:
        print("error[E_RUNTIME]: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
