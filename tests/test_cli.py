import dataclasses
import hashlib
import importlib
import json
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from moldesign import adomain, gnn, loop
from moldesign.checkpoint import load_checkpoint, save_checkpoint
from moldesign.cli import COMMANDS, main
from moldesign.dataio import ingest_dataset
from moldesign.grammar import FragmentGrammar, enumerate_grammar
from moldesign.molgraph import parse_smiles

DATASET = """smiles,ron,mon,dcn
C,120,118,
CC,112,101,
CCC,110,100,22
CCO,108,99,
COC,105,97,
CC(C)O,113,104,
CC(C)C,102,95,
OCCO,100,90,
"""

CORPUS = "C\nCC\nCCO\nCC(C)O\nCOC\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared artifacts: grammar, dataset, corpus, trained checkpoints."""
    d = tmp_path_factory.mktemp("cli")
    (d / "dataset.csv").write_text(DATASET)
    (d / "corpus.smi").write_text(CORPUS)
    FragmentGrammar(n_dims=4).save(d / "grammar.json")

    (d / "train.json").write_text(json.dumps({
        "schema_version": 1,
        "dataset": str(d / "dataset.csv"),
        "n_models": 2,
        "gnn": {"hidden_dim": 8, "fp_dim": 8, "mlp_hidden": 4},
        "train": {"epochs": 5},
    }))
    rc = main(["train-gnn", "--config", str(d / "train.json"),
               "--seed", "0", "--out", str(d / "gnn.ckpt")])
    assert rc == 0

    (d / "fitad.json").write_text(json.dumps({
        "schema_version": 1,
        "checkpoint": str(d / "gnn.ckpt"),
        "dataset": str(d / "dataset.csv"),
        "nu": 0.2,
        "gamma": "scale",
    }))
    rc = main(["fit-ad", "--config", str(d / "fitad.json"),
               "--out", str(d / "full.ckpt")])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def untrained(tmp_path_factory):
    """The fixture dataset and an untrained, saved three-member ensemble,
    so fit-ad's output depends on no training run."""
    d = tmp_path_factory.mktemp("untrained")
    (d / "dataset.csv").write_text(DATASET)
    save_checkpoint(str(d / "gnn.ckpt"), gnn.GnnEnsemble(n_models=3, seed=0))
    return d


def fit_ad(d, out, **values):
    """Run fit-ad on d's checkpoint and dataset with the config values."""
    cfg = out.parent / (out.name + ".json")
    cfg.write_text(json.dumps({"checkpoint": str(d / "gnn.ckpt"),
                               "dataset": str(d / "dataset.csv"), **values}))
    return main(["fit-ad", "--config", str(cfg), "--out", str(out)])


# sha256 of the plain fit-ad checkpoint (nu 0.2, gamma "scale") of the
# untrained fixture
PLAIN_FIT_AD_SHA256 = \
    "1cc51896e54bf3b2e1553d05c769a57e8ff46313f69ceb1a94ef19c084a68f5a"


def _narrow(rows):
    return [row[:-1] for row in rows]


# a damaged copy of a fit-ad checkpoint (two models, two SVMs), and the
# text the load error names
CHECKPOINT_DAMAGE = {
    "W1_0 one column short": (
        lambda p: p["gnn"]["models"][0]["params"].update(
            W1_0=_narrow(p["gnn"]["models"][0]["params"]["W1_0"])),
        "param W1_0 has shape (4, 7); the config needs (4, 8)"),
    "M2 missing": (lambda p: p["gnn"]["models"][1]["params"].pop("M2"),
                   "param M2 has shape None"),
    "second SVM too narrow": (
        lambda p: p["ad"]["svms"][1].update(
            support_vectors=_narrow(p["ad"]["svms"][1]["support_vectors"])),
        "AD member 1"),
    "second SVM an alpha short": (
        lambda p: p["ad"]["svms"][1]["alphas"].pop(), "AD member 1"),
    "no models": (lambda p: p["gnn"].update(models=[]),
                  "malformed checkpoint"),
    "params not an object": (
        lambda p: p["gnn"]["models"][0].update(params=[]),
        "malformed checkpoint"),
    "NaN GNN bias": (
        lambda p: p["gnn"]["models"][1]["params"]["b1"].__setitem__(
            0, float("nan")),
        "GNN member 1: b1 holds a non-finite value"),
    "infinite GNN weight": (
        lambda p: p["gnn"]["models"][0]["params"]["W2_0"][1].__setitem__(
            2, -float("inf")),
        "GNN member 0: W2_0 holds a non-finite value"),
    "NaN support vector": (
        lambda p: p["ad"]["svms"][1]["support_vectors"][0].__setitem__(
            3, float("nan")),
        "AD member 1: support_vectors holds a non-finite value"),
    "NaN alpha": (
        lambda p: p["ad"]["svms"][0]["alphas"].__setitem__(0, float("nan")),
        "AD member 0: alphas holds a non-finite value"),
    "infinite rho": (lambda p: p["ad"]["svms"][1].update(rho=float("inf")),
                     "AD member 1: rho holds a non-finite value"),
    "NaN gamma": (lambda p: p["ad"]["svms"][0].update(gamma=float("nan")),
                  "AD member 0: gamma holds a non-finite value"),
}


def run_cli(args, **env):
    """The finished `python -m moldesign.cli` process on args, with env
    added to this one's and RuntimeWarning an error, as in this suite."""
    src = os.path.dirname(os.path.dirname(gnn.__file__))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "moldesign.cli",
         *args], env=dict(os.environ, PYTHONPATH=src, **env),
        capture_output=True, text=True, timeout=120)


def loop_config(workdir, **loop_kw):
    cfg = {
        "schema_version": 1,
        "checkpoint": str(workdir / "full.ckpt"),
        "grammar": str(workdir / "grammar.json"),
        "corpus": str(workdir / "corpus.smi"),
        "loop": {"method": "ga", "max_total": 10, "max_unique": 1000,
                 "ad_enabled": False, **loop_kw},
    }
    path = workdir / "loop.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestTrainAndFit:
    def test_checkpoint_loads(self, workdir):
        ensemble, ad, _ = load_checkpoint(str(workdir / "gnn.ckpt"))
        assert ensemble.n_models == 2
        assert ad is None
        assert (workdir / "gnn.ckpt.losses.json").exists()

    def test_fit_ad_adds_svms(self, workdir):
        ensemble, ad, payload = load_checkpoint(str(workdir / "full.ckpt"))
        assert ad is not None and ad.n_members == 2
        assert payload["extra"]["ad_hyperparams"]["nu"] == 0.2

    def test_plain_fit_ad_checkpoint_pinned(self, untrained, tmp_path):
        out = tmp_path / "plain.ckpt"
        assert fit_ad(untrained, out, nu=0.2, gamma="scale") == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == PLAIN_FIT_AD_SHA256

    def test_fit_ad_refuses_rows_past_the_svm_limit(self, untrained,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        # the fixture dataset holds 8 valid distinct molecules; the count
        # is refused before the fingerprint pass
        monkeypatch.setattr(adomain, "SVM_MAX_ROWS", 7)
        monkeypatch.setattr(gnn.GnnEnsemble, "forward", None)
        assert fit_ad(untrained, tmp_path / "o.ckpt") == 1
        assert capsys.readouterr().err == (
            "error[E_CONFIG]: dataset %s holds 8 valid distinct molecules; "
            "fit-ad fits at most SVM_MAX_ROWS=7\n"
            % (untrained / "dataset.csv"))
        assert not (tmp_path / "o.ckpt").exists()
        monkeypatch.undo()
        monkeypatch.setattr(adomain, "SVM_MAX_ROWS", 8)
        assert fit_ad(untrained, tmp_path / "o.ckpt") == 0

    def test_grid_fits_each_member_on_its_own_rows(self, untrained, tmp_path,
                                                    monkeypatch):
        rows = []
        fit_svm = adomain.fit_svm

        def spy(x, *args, **kwargs):
            rows.append(len(x))
            return fit_svm(x, *args, **kwargs)

        monkeypatch.setattr(adomain, "fit_svm", spy)
        assert fit_ad(untrained, tmp_path / "grid.ckpt", grid_search=True,
                      nu_grid=[0.5, 0.1], gamma_grid=[0.1, "scale"]) == 0
        # 3 members x 2 gammas x 2 nus, each on the 8 dataset rows
        assert rows == [8] * 12

    def test_grid_member_svm_is_its_own_grid_pick(self, untrained, tmp_path):
        nus, gammas = [0.5, 0.1, 0.05], [0.5, 0.01, "scale"]
        assert fit_ad(untrained, tmp_path / "grid.ckpt", grid_search=True,
                      nu_grid=nus, gamma_grid=gammas) == 0
        ensemble, ad, payload = load_checkpoint(str(tmp_path / "grid.ckpt"))
        graphs = [parse_smiles(row.canonical) for row in
                  ingest_dataset(str(untrained / "dataset.csv")).rows]
        per_member = payload["extra"]["ad_grid_search"]
        assert payload["extra"] == {"ad_grid_search": per_member}
        assert len(per_member) == ad.n_members == 3
        for fps, svm, member in zip(ensemble.forward(graphs)[0], ad.svms,
                                    per_member):
            own, table = adomain.grid_search_hyperparams(fps, gammas, nus)
            assert svm.to_state() == own.to_state()
            assert member == {"selected_gamma": own.gamma,
                              "selected_nu": own.nu, "table": table}

    @pytest.mark.parametrize("values,key", [
        ({"nu_grid": [0.5, 0.05, 0.05]}, "nu_grid"),
        ({"gamma_grid": [0.1, "scale", 0.1]}, "gamma_grid"),
        ({"gamma_grid": ["scale", "scale"]}, "gamma_grid"),
    ])
    def test_repeated_grid_value_refused(self, untrained, tmp_path, capsys,
                                         values, key):
        out = tmp_path / "o.ckpt"
        assert fit_ad(untrained, out, grid_search=True, **values) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]: config key %r repeats " % key)
        assert not out.exists()

    def test_plain_refit_drops_grid_table(self, workdir, tmp_path):
        data = str(workdir / "dataset.csv")
        for src, out, values in (
                (workdir / "gnn.ckpt", "grid.ckpt",
                 {"grid_search": True, "nu_grid": [0.5, 0.1],
                  "gamma_grid": [0.1, "scale"]}),
                (tmp_path / "grid.ckpt", "refit.ckpt", {"nu": 0.2})):
            cfg = tmp_path / "fitad.json"
            cfg.write_text(json.dumps({"checkpoint": str(src),
                                       "dataset": data, **values}))
            assert main(["fit-ad", "--config", str(cfg),
                         "--out", str(tmp_path / out)]) == 0
        grid = load_checkpoint(str(tmp_path / "grid.ckpt"))[2]["extra"]
        assert len(grid["ad_grid_search"]) == 2
        assert all(member["selected_nu"] == 0.5
                   for member in grid["ad_grid_search"])
        refit = load_checkpoint(str(tmp_path / "refit.ckpt"))[2]["extra"]
        assert refit == {"ad_hyperparams": {"nu": 0.2, "gamma": "scale"}}

    def test_fit_ad_without_gnn_section(self, tmp_path, workdir, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_text(json.dumps({"version": 1}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checkpoint": str(bad),
                                   "dataset": str(workdir / "dataset.csv")}))
        rc = main(["fit-ad", "--config", str(cfg),
                   "--out", str(tmp_path / "o.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err
        assert "missing GNN section" in err

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_checkpoint_version_is_the_integer_one(self, tmp_path, workdir,
                                                   capsys, version):
        payload = json.loads((workdir / "full.ckpt").read_text())
        payload["version"] = version
        bad = tmp_path / "bad.ckpt"
        bad.write_text(json.dumps(payload))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checkpoint": str(bad),
                                   "dataset": str(workdir / "dataset.csv")}))
        rc = main(["fit-ad", "--config", str(cfg),
                   "--out", str(tmp_path / "o.ckpt")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error[E_CONFIG]: unsupported checkpoint version %r\n" % version)
        assert not (tmp_path / "o.ckpt").exists()

    def test_missing_checkpoint_file(self, tmp_path, workdir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checkpoint": str(tmp_path / "none.ckpt"),
                                   "dataset": str(workdir / "dataset.csv")}))
        rc = main(["fit-ad", "--config", str(cfg),
                   "--out", str(tmp_path / "o.ckpt")])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err


    @pytest.mark.parametrize("train", [{"batch_size": -3},
                                       {"batch_size": 0},
                                       {"epochs": 0},
                                       {"learning_rate": float("nan")},
                                       {"adam_beta1": 0.9},   # fixed
                                       {"batch_size": None}])
    def test_bad_train_config(self, tmp_path, workdir, capsys, train):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"dataset": str(workdir / "dataset.csv"),
                                   "n_models": 1, "train": train}))
        rc = main(["train-gnn", "--config", str(cfg),
                   "--out", str(tmp_path / "gnn.ckpt")])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err
        assert not (tmp_path / "gnn.ckpt").exists()

    @pytest.mark.parametrize("gnn", [{"n_tasks": 2},
                                     {"hidden_dim": 0},
                                     {"fp_dim": 2.5},
                                     {"in_dim": 7}])
    def test_bad_gnn_config(self, tmp_path, workdir, capsys, gnn):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"dataset": str(workdir / "dataset.csv"),
                                   "n_models": 1, "gnn": gnn,
                                   "train": {"epochs": 1}}))
        rc = main(["train-gnn", "--config", str(cfg),
                   "--out", str(tmp_path / "gnn.ckpt")])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err
        assert not (tmp_path / "gnn.ckpt").exists()


    @pytest.mark.parametrize("section,values", [
        ("gnn", {"hiden_dim": 4}),
        ("train", {"epoch": 1}),
        # the paper's fixed training design, no longer options
        ("train", {"bootstrap": False}),
        ("train", {"normalize_labels": False}),
        ("train", {"cosine_decay": False}),
    ])
    def test_unknown_config_key(self, tmp_path, workdir, capsys, section,
                                values):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"dataset": str(workdir / "dataset.csv"),
                                   "n_models": 1, section: values}))
        rc = main(["train-gnn", "--config", str(cfg),
                   "--out", str(tmp_path / "gnn.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err
        assert repr(section) in err and repr(next(iter(values))) in err
        assert not (tmp_path / "gnn.ckpt").exists()


    @pytest.mark.parametrize("n_models", [0, 2.7, "2", True])
    def test_bad_n_models(self, tmp_path, workdir, capsys, n_models):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"dataset": str(workdir / "dataset.csv"),
                                   "n_models": n_models,
                                   "train": {"epochs": 1}}))
        rc = main(["train-gnn", "--config", str(cfg),
                   "--out", str(tmp_path / "gnn.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err and "n_models" in err
        assert not (tmp_path / "gnn.ckpt").exists()

    @pytest.mark.parametrize("values", [
        {"nu": 0}, {"nu": 1.5}, {"nu": "0.1"}, {"gamma": -1.0},
        {"grid_search": True, "nu_grid": [0.5, 2.0]},
        {"grid_search": True, "gamma_grid": ["auto"]},
        {"grid_search": True, "nu": -5},
        {"grid_search": True, "gamma": "bogus"},
    ])
    def test_bad_ad_hyperparams(self, tmp_path, workdir, capsys, values):
        cfg = tmp_path / "fitad.json"
        cfg.write_text(json.dumps({"checkpoint": str(workdir / "gnn.ckpt"),
                                   "dataset": str(workdir / "dataset.csv"),
                                   **values}))
        rc = main(["fit-ad", "--config", str(cfg),
                   "--out", str(tmp_path / "o.ckpt")])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err
        assert not (tmp_path / "o.ckpt").exists()

    @pytest.mark.parametrize("values,key", [
        ({"grid_search": True, "nu": 0.05}, "nu"),
        ({"grid_search": True, "gamma": "scale"}, "gamma"),
        ({"nu_grid": [0.1]}, "nu_grid"),
        ({"grid_search": False, "gamma_grid": [0.1]}, "gamma_grid"),
        ({"grid_search": "yes"}, "grid_search"),
    ])
    def test_key_the_ad_mode_ignores_is_refused(self, tmp_path, workdir,
                                                 capsys, values, key):
        cfg = tmp_path / "fitad.json"
        cfg.write_text(json.dumps({"checkpoint": str(workdir / "gnn.ckpt"),
                                   "dataset": str(workdir / "dataset.csv"),
                                   **values}))
        rc = main(["fit-ad", "--config", str(cfg),
                   "--out", str(tmp_path / "o.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err and key in err
        assert not (tmp_path / "o.ckpt").exists()

    def test_non_finite_label_row_skipped(self, tmp_path, workdir, caplog,
                                          recwarn):
        data = tmp_path / "data.csv"
        data.write_text(DATASET + "CCCC,nan,90,\nCCCO,1e400,,\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(data), "n_models": 1,
                                   "train": {"epochs": 2}}))
        with caplog.at_level(logging.WARNING, logger="moldesign"):
            rc = main(["train-gnn", "--config", str(cfg),
                       "--out", str(tmp_path / "o.ckpt")])
        assert rc == 0
        assert [r.getMessage() for r in caplog.records] == [
            "dataset: line 10: bad ron value 'nan'",
            "dataset: line 11: bad ron value '1e400'"]
        losses = json.loads((tmp_path / "o.ckpt.losses.json").read_text())
        assert np.all(np.isfinite(losses["loss_histories"]))
        assert not recwarn.list

    @pytest.mark.parametrize("command", ["train-gnn", "fit-ad"])
    def test_dataset_issue_logged_once(self, tmp_path, workdir, caplog,
                                       recwarn, command):
        data = tmp_path / "data.csv"
        data.write_text(DATASET + "OCC,90,,\nCXC,1,,\n")   # OCC is CCO
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"dataset": str(data), "n_models": 1, "train": {"epochs": 1}}
            if command == "train-gnn" else
            {"dataset": str(data), "checkpoint": str(workdir / "gnn.ckpt")}))
        with caplog.at_level(logging.WARNING, logger="moldesign"):
            rc = main([command, "--config", str(cfg),
                       "--out", str(tmp_path / "o.ckpt")])
        assert rc == 0
        issues = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("dataset: ")]
        assert len(issues) == 2
        assert "line 10: duplicate molecule CCO" in issues[0]
        assert issues[1].startswith("dataset: line 11: ")
        assert not recwarn.list

    @pytest.mark.parametrize("rows", [["CCO,100,90,"],
                                      ["CCO,100,90,", "OCC,101,91,",
                                       "C(O)C,102,92,"]])
    def test_fit_ad_needs_two_molecules(self, tmp_path, workdir, capsys,
                                        rows):
        # three spellings of one molecule: ingest keeps the first
        data = tmp_path / "data.csv"
        data.write_text("smiles,ron,mon,dcn\n" + "\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(data),
                                   "checkpoint": str(workdir / "gnn.ckpt")}))
        rc = main(["fit-ad", "--config", str(cfg),
                   "--out", str(tmp_path / "o.ckpt")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error[E_CONFIG]: dataset %s holds 1 valid distinct molecule(s); "
            "fit-ad needs at least 2\n" % data)
        assert not (tmp_path / "o.ckpt").exists()

    def test_diverging_training_is_a_runtime_fault(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("smiles,ron,mon,dcn\nCCO,100,90,\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(data), "n_models": 2,
                                   "train": {"epochs": 5,
                                             "learning_rate": 1e300}}))
        with np.errstate(all="ignore"):
            rc = main(["train-gnn", "--config", str(cfg),
                       "--out", str(tmp_path / "o.ckpt")])
        assert rc == 2
        assert capsys.readouterr().err.endswith(
            "error[E_RUNTIME]: training loss became non-finite at epoch 2\n")
        assert not (tmp_path / "o.ckpt").exists()

    def test_diverging_training_reports_only_its_error(self, tmp_path):
        # the members diverge in worker processes, whose numpy overflow
        # warnings would reach the CLI's stderr before the error line
        data = tmp_path / "data.csv"
        data.write_text("smiles,ron,mon,dcn\nCCO,100,90,\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(data), "n_models": 2,
                                   "train": {"epochs": 5,
                                             "learning_rate": 1e300}}))
        proc = run_cli(["train-gnn", "--config", str(cfg),
                        "--out", str(tmp_path / "o.ckpt")],
                       PYTHONWARNINGS="always")
        assert proc.returncode == 2
        assert proc.stderr == (
            "error[E_RUNTIME]: training loss became non-finite at epoch 2\n")
        assert not (tmp_path / "o.ckpt").exists()

    def test_every_member_logs_its_progress(self, tmp_path, workdir):
        # the members train in worker processes, whose log lines reach
        # the CLI's stderr too
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": str(workdir / "dataset.csv"), "n_models": 3,
            "gnn": {"hidden_dim": 8, "fp_dim": 8, "mlp_hidden": 4},
            "train": {"epochs": 10}}))
        proc = run_cli(["train-gnn", "--config", str(cfg), "--seed", "4",
                        "--out", str(tmp_path / "o.ckpt")],
                       MOLDESIGN_LOG="INFO")
        assert proc.returncode == 0
        losses = json.loads((tmp_path / "o.ckpt.losses.json").read_text())
        lines = proc.stderr.splitlines()
        expected = ["INFO:moldesign:model seed %d, epoch %d/10, loss %.6g"
                    % (4 + k, e, history[e - 1])
                    for k, history in enumerate(losses["loss_histories"])
                    for e in range(1, 11)]
        assert sorted(lines) == sorted(expected)
        for k in range(3):   # each member's own lines stay in epoch order
            own = [line for line in lines if "seed %d," % (4 + k) in line]
            assert own == expected[10 * k:10 * k + 10]

    def test_malformed_checkpoint(self, tmp_path, workdir, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_text(json.dumps({"version": 1, "gnn": {"models": []}}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checkpoint": str(bad),
                                   "dataset": str(workdir / "dataset.csv")}))
        rc = main(["fit-ad", "--config", str(cfg),
                   "--out", str(tmp_path / "o.ckpt")])
        assert rc == 1
        assert "malformed checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_DAMAGE))
    def test_checkpoint_shapes_checked_at_load(self, tmp_path, workdir,
                                               capsys, case):
        damage, message = CHECKPOINT_DAMAGE[case]
        payload = json.loads((workdir / "full.ckpt").read_text())
        damage(payload)
        bad = tmp_path / "bad.ckpt"
        bad.write_text(json.dumps(payload))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checkpoint": str(bad),
                                   "dataset": str(workdir / "dataset.csv")}))
        rc = main(["fit-ad", "--config", str(cfg),
                   "--out", str(tmp_path / "o.ckpt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error[E_CONFIG]: ") and message in err
        assert not (tmp_path / "o.ckpt").exists()


class TestRunLoop:
    def test_non_finite_checkpoint_refused(self, workdir, tmp_path, capsys):
        payload = json.loads((workdir / "full.ckpt").read_text())
        payload["gnn"]["models"][0]["params"]["b2"][0] = float("nan")
        bad = tmp_path / "bad.ckpt"
        bad.write_text(json.dumps(payload))
        cfg = json.loads(open(loop_config(workdir)).read())
        cfg["checkpoint"] = str(bad)
        (tmp_path / "loop.json").write_text(json.dumps(cfg))
        rc = main(["run-loop", "--config", str(tmp_path / "loop.json"),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error[E_CONFIG]: GNN member 0: b2 holds a non-finite value\n")
        assert not (tmp_path / "run").exists()

    def test_budget_and_outputs(self, workdir, tmp_path):
        rc = main(["run-loop", "--config", loop_config(workdir),
                   "--seed", "0", "--out", str(tmp_path / "run")])
        assert rc == 0
        lines = (tmp_path / "run" / "records.jsonl").read_text().splitlines()
        assert len(lines) == 10
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["summary"]["n_total"] == 10
        assert summary["config"]["seed"] == 0
        meta = json.loads((tmp_path / "run" / "metadata.json").read_text())
        assert set(meta) == {"started_unix", "elapsed_s"}
        assert meta["elapsed_s"] >= 0.0

    @pytest.mark.parametrize("method", ["ga", "bo"])
    def test_time_budget_shorter_than_one_evaluation(self, workdir, tmp_path,
                                                     method):
        rc = main(["run-loop", "--config",
                   loop_config(workdir, method=method, time_limit_s=1e-9,
                               max_total=None, max_unique=None),
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        lines = (tmp_path / "run" / "records.jsonl").read_text().splitlines()
        assert len(lines) == 1

    def test_rerun_byte_identical(self, workdir, tmp_path):
        cfg = loop_config(workdir)
        for name in ("a", "b"):
            rc = main(["run-loop", "--config", cfg, "--seed", "5",
                       "--out", str(tmp_path / name)])
            assert rc == 0
        assert (tmp_path / "a" / "records.jsonl").read_bytes() == \
            (tmp_path / "b" / "records.jsonl").read_bytes()

    def test_ad_gated_run(self, workdir, tmp_path):
        rc = main(["run-loop",
                   "--config", loop_config(workdir, ad_enabled=True),
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        recs = [json.loads(l) for l in
                (tmp_path / "run" / "records.jsonl").read_text().splitlines()]
        assert all(r["vote_sum"] is not None for r in recs)

    def test_ad_enabled_without_ad_checkpoint(self, workdir, tmp_path,
                                              capsys):
        cfg = {
            "schema_version": 1,
            "checkpoint": str(workdir / "gnn.ckpt"),
            "grammar": str(workdir / "grammar.json"),
            "corpus": str(workdir / "corpus.smi"),
            "loop": {"method": "ga", "max_total": 5, "ad_enabled": True},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        rc = main(["run-loop", "--config", str(p),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "missing AD section" in capsys.readouterr().err

    def test_seed_in_loop_section_refused(self, workdir, tmp_path, capsys):
        # the loop seed is --seed; a loop.seed key would be overwritten
        rc = main(["run-loop", "--config", loop_config(workdir, seed=5),
                   "--seed", "5", "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err and "'seed'" in err
        assert not (tmp_path / "run").exists()

    def test_ga_section_refused(self, workdir, tmp_path, capsys):
        # the GA's settings are constants, so neither method reads loop.ga
        for method in ("ga", "bo"):
            rc = main(["run-loop", "--config",
                       loop_config(workdir, method=method,
                                   ga={"population_size": 7}),
                       "--out", str(tmp_path / method)])
            assert rc == 1
            assert capsys.readouterr().err == (
                "error[E_CONFIG]: unknown key 'ga' in config section "
                "'loop'\n")
            assert not (tmp_path / method).exists()

    def test_bad_method_is_config_error(self, workdir, tmp_path, capsys):
        rc = main(["run-loop", "--config", loop_config(workdir,
                                                       method="annealing"),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err


    def test_nan_budget_is_config_error(self, workdir, tmp_path, capsys):
        path = tmp_path / "loop.json"
        # json.dumps writes the bare NaN token that json.load accepts
        path.write_text(json.dumps({
            "checkpoint": str(workdir / "full.ckpt"),
            "grammar": str(workdir / "grammar.json"),
            "corpus": str(workdir / "corpus.smi"),
            "loop": {"method": "ga", "max_total": float("nan"),
                     "ad_enabled": False}}))
        assert "NaN" in path.read_text()
        rc = main(["run-loop", "--config", str(path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


    @pytest.mark.parametrize("loop_kw,section,key", [
        ({"max_uniq": 5}, "loop", "max_uniq"),
        ({"ga": {}}, "loop", "ga"),
        ({"penalty": -5.0}, "loop", "penalty"),   # fixed at -1000
    ])
    def test_unknown_loop_key(self, workdir, tmp_path, capsys, loop_kw,
                              section, key):
        rc = main(["run-loop", "--config", loop_config(workdir, **loop_kw),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err
        assert repr(section) in err and repr(key) in err
        assert not (tmp_path / "run").exists()

    def test_run_without_budget_is_config_error(self, workdir, tmp_path,
                                                capsys):
        rc = main(["run-loop", "--config",
                   loop_config(workdir, max_unique=None, max_total=None),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err and "time_limit_s" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field", ["max_unique", "max_total",
                                       "time_limit_s"])
    def test_non_numeric_budget(self, workdir, tmp_path, capsys, field):
        rc = main(["run-loop", "--config",
                   loop_config(workdir, **{field: "ten"}),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err and field in err

    @pytest.mark.parametrize("loop_kw,key", [
        ({"max_unique": 0}, "max_unique"),
        ({"max_total": -3}, "max_total"),
        ({"time_limit_s": True}, "time_limit_s"),
        ({"bo_batch": 0}, "bo_batch"),
        ({"bo_init": -1}, "bo_init"),
        ({"ad_enabled": "no"}, "ad_enabled"),
        ({"use_pca": "no"}, "use_pca"),
        ({"pca_target_ratio": 2}, "pca_target_ratio"),
    ])
    def test_bad_loop_value(self, workdir, tmp_path, capsys, loop_kw, key):
        rc = main(["run-loop", "--config", loop_config(workdir, **loop_kw),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err and key in err
        assert not (tmp_path / "run").exists()

    def test_bad_corpus_smiles(self, workdir, tmp_path, capsys):
        corpus = tmp_path / "corpus.smi"
        corpus.write_text("C\nCXC\n")
        cfg = json.loads(open(loop_config(workdir)).read())
        cfg["corpus"] = str(corpus)
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(cfg))
        rc = main(["run-loop", "--config", str(path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err and "line 2" in err

    def run_on(self, workdir, tmp_path, corpus, grammar=None, **loop_kw):
        """run-loop on the corpus text, and on the grammar config if one
        is given, with the fixture checkpoint."""
        cfg = json.loads(open(loop_config(workdir, **loop_kw)).read())
        cfg["corpus"] = str(tmp_path / "corpus.smi")
        (tmp_path / "corpus.smi").write_text(corpus)
        if grammar is not None:
            cfg["grammar"] = str(tmp_path / "grammar.json")
            (tmp_path / "grammar.json").write_text(json.dumps(grammar))
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(cfg))
        return main(["run-loop", "--config", str(path),
                     "--out", str(tmp_path / "run")])

    def test_ten_ring_corpus_molecule_skipped(self, workdir, tmp_path,
                                              caplog):
        # a SMILES string numbers at most 9 ring closures
        with caplog.at_level(logging.WARNING, logger="moldesign"):
            rc = self.run_on(workdir, tmp_path, CORPUS + "C1CC1" * 10 + "\n")
        assert rc == 0
        assert "skipped 1 of 6 molecules" in caplog.text

    def test_grammar_with_room_for_ten_rings_refused(self, workdir, tmp_path,
                                                     capsys):
        grammar = dict(FragmentGrammar().to_config(), n_dims=12,
                       max_heavy_atoms=40)
        rc = self.run_on(workdir, tmp_path, "C1CC1\n", grammar)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and "more than 9 rings" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("method,corpus,message", [
        ("ga", "C1CCC1\n", "no corpus molecule is expressible"),
        ("bo", "C1CCC1\n", "no corpus molecule is expressible"),
        ("bo", "C\nC1CCC1\n", "2 distinct expressible corpus molecules"),
        ("bo", "CCO\nCCO\n", "2 distinct expressible corpus molecules"),
    ])
    def test_corpus_the_grammar_cannot_use_is_config_error(
            self, workdir, tmp_path, capsys, method, corpus, message):
        rc = self.run_on(workdir, tmp_path, corpus, method=method)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and message in err
        assert not (tmp_path / "run").exists()


class TestReportAndEnumerate:
    def test_report_consistent_with_summary(self, workdir, tmp_path):
        rc = main(["run-loop", "--config", loop_config(workdir),
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        records = str(tmp_path / "run" / "records.jsonl")
        out = tmp_path / "report.json"
        rc = main(["report", "--records", records, "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert len(report["promising"]) == report["summary"]["n_promising"]
        assert len(report["molecules"]) == report["summary"]["n_unique"]
        scores = [m["score"] for m in report["molecules"]]
        assert scores == sorted(scores, reverse=True)

    def test_report_keeps_best_record_per_molecule(self, tmp_path):
        def rec(index, score, ron, os_):
            return {"index": index, "latent_full": [0.0],
                    "latent_reduced": None, "smiles": "CC", "ron": ron,
                    "mon": ron - os_, "dcn": None, "os": os_, "score": score,
                    "in_ad": True, "vote_sum": 2, "duplicate": index > 0,
                    "penalty_applied": False}
        records = tmp_path / "records.jsonl"
        records.write_text("".join(json.dumps(r) + "\n" for r in [
            rec(0, 100.0, 105.0, 5.0), rec(1, 130.0, 115.0, 15.0)]))
        out = tmp_path / "report.json"
        rc = main(["report", "--records", str(records), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert [m["score"] for m in report["molecules"]] == [130.0]
        assert report["summary"]["max_score"] == 130.0
        assert report["summary"]["n_promising"] == len(report["promising"]) \
            == 1

    def test_report_on_empty_records_is_config_error(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text("")
        rc = main(["report", "--records", str(records),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err \
            == "error[E_CONFIG]: %s holds no records\n" % records
        assert not (tmp_path / "r.json").exists()

    def test_enumerate_matches_library(self, workdir, tmp_path):
        out = tmp_path / "mols.smi"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grammar": str(workdir / "grammar.json")}))
        rc = main(["enumerate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        expected = enumerate_grammar(FragmentGrammar(n_dims=4))
        assert lines == list(expected)

    def test_enumerate_default_grammar(self, tmp_path):
        # the library's default grammar: 32 slots, 9 heavy atoms
        FragmentGrammar().save(tmp_path / "grammar.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grammar": str(tmp_path / "grammar.json")}))
        out = tmp_path / "mols.smi"
        rc = main(["enumerate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2580


class TestConfigHandling:
    def test_unsupported_schema_version(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 99}))
        rc = main(["enumerate", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "schema" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [True, 1.0])
    @pytest.mark.parametrize("kind", ["config", "grammar"])
    def test_schema_version_is_the_integer_one(self, tmp_path, workdir,
                                               capsys, kind, version):
        grammar = json.loads((workdir / "grammar.json").read_text())
        cfg = {"grammar": str(tmp_path / "grammar.json")}
        (cfg if kind == "config" else grammar)["schema_version"] = version
        (tmp_path / "grammar.json").write_text(json.dumps(grammar))
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        rc = main(["enumerate", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error[E_CONFIG]: unsupported %s schema %r\n" % (kind, version))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,key", [
        ("train-gnn", "dataset"), ("fit-ad", "checkpoint"),
        ("run-loop", "checkpoint"), ("report", "records"),
        ("enumerate", "grammar"),
    ])
    def test_missing_required_key(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1}))
        rc = main([command, "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err and repr(key) in err

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null"])
    def test_config_not_an_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["enumerate", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err

    def test_negative_seed(self, tmp_path, workdir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(workdir / "dataset.csv"),
                                   "n_models": 1, "train": {"epochs": 1}}))
        rc = main(["train-gnn", "--config", str(cfg), "--seed", "-1",
                   "--out", str(tmp_path / "gnn.ckpt")])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err

    def test_unknown_log_level(self, tmp_path, workdir, capsys, monkeypatch):
        monkeypatch.setenv("MOLDESIGN_LOG", "bogus")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grammar": str(workdir / "grammar.json")}))
        rc = main(["enumerate", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]: MOLDESIGN_LOG")
        assert "'bogus'" in err
        assert not (tmp_path / "o").exists()

    def test_grammar_file_without_n_dims(self, tmp_path, capsys):
        grammar = FragmentGrammar(n_dims=4).to_config()
        del grammar["n_dims"]
        (tmp_path / "grammar.json").write_text(json.dumps(grammar))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grammar": str(tmp_path / "grammar.json")}))
        rc = main(["enumerate", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err and "n_dims" in err

    @pytest.mark.parametrize("change,message", [
        ({"scaffolds": []}, "scaffolds must not be empty"),
        ({"fragments": [["methyl"]]}, "unknown fragment ['methyl']"),
        ({"max_heavy_atom": 9}, "unknown grammar key 'max_heavy_atom'"),
        ({"schema_version": 7}, "unsupported grammar schema 7"),
    ])
    @pytest.mark.parametrize("command", ["enumerate", "run-loop"])
    def test_bad_grammar_file(self, tmp_path, workdir, capsys, change,
                              message, command):
        grammar = dict(FragmentGrammar(n_dims=4).to_config(), **change)
        (tmp_path / "grammar.json").write_text(json.dumps(grammar))
        cfg = json.loads(open(loop_config(workdir)).read())
        cfg["grammar"] = str(tmp_path / "grammar.json")
        if command == "enumerate":
            cfg = {"grammar": cfg["grammar"]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        rc = main([command, "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error[E_CONFIG]: %s\n" % message
        assert not (tmp_path / "o").exists()

    def test_malformed_json(self, tmp_path, workdir, capsys):
        # each JSON input names itself when it is not JSON or not an object
        for which in ("config", "grammar", "checkpoint"):
            for text, message in [("{not json", "is not JSON: Expecting "),
                                  ("[4]", "is not a JSON object")]:
                bad = tmp_path / ("bad." + which)
                bad.write_text(text)
                cfg = json.loads(open(loop_config(workdir)).read())
                cfg[which] = str(bad)
                path = tmp_path / "cfg.json"
                path.write_text(json.dumps(cfg))
                if which == "config":
                    path = bad
                rc = main(["run-loop", "--config", str(path),
                           "--out", str(tmp_path / "o")])
                assert rc == 1
                assert capsys.readouterr().err.startswith(
                    "error[E_CONFIG]: %s %s" % (bad, message)), which
                assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("which", ["config", "grammar", "corpus",
                                       "dataset", "checkpoint", "records"])
    def test_non_utf8_input_file(self, tmp_path, workdir, capsys, which):
        bad = tmp_path / ("bad." + which)
        bad.write_bytes(b"C\n\xff\n")
        cfg = json.loads(open(loop_config(workdir)).read())
        command = "run-loop"
        if which in ("dataset", "checkpoint"):
            command = "fit-ad"
            cfg = {"checkpoint": cfg["checkpoint"],
                   "dataset": str(workdir / "dataset.csv")}
        elif which == "records":
            command, cfg = "report", {}
        cfg[which] = str(bad)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        if which == "config":
            path = bad
        rc = main([command, "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error[E_CONFIG]: %s is not UTF-8 text: " % bad)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,value", [("gnn", 5), ("train", [1])])
    def test_section_not_an_object(self, tmp_path, workdir, capsys, section,
                                   value):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"dataset": str(workdir / "dataset.csv"),
                                   "n_models": 1, section: value}))
        rc = main(["train-gnn", "--config", str(cfg),
                   "--out", str(tmp_path / "gnn.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err and "must be an object" in err

    def test_loop_section_not_an_object(self, workdir, tmp_path, capsys):
        cfg = json.loads(open(loop_config(workdir)).read())
        cfg["loop"] = ["ga"]
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(cfg))
        rc = main(["run-loop", "--config", str(path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, False, 0, []])
    def test_ga_section_not_an_object(self, workdir, tmp_path, capsys, value):
        rc = main(["run-loop", "--config", loop_config(workdir, ga=value),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown key 'ga' in config section 'loop'" in err
        assert not (tmp_path / "run").exists()


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def readme_config_keys():
    """Command -> the top-level keys its rows of the README's "Config keys"
    table name."""
    text = open(README).read().split("### Config keys", 1)[1]
    keys, command = {}, None
    for line in text.splitlines():
        if not line.startswith("| "):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells[0] == "Command":
            continue
        if cells[0]:
            command = cells[0].strip("`")
        keys.setdefault(command, set()).update(
            re.findall(r"`([^`]+)`", cells[1]))
    return keys


def readme_section_keys():
    """Config section -> the keys its row of the README's "Config keys"
    table lists: the backticked name that opens each comma-separated item
    of the Meaning cell."""
    text = open(README).read().split("### Config keys", 1)[1]
    keys = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[2] == "`{}`":
            keys[cells[1].strip("`")] = set(
                re.findall(r"(?:^|, )`(\w+)`", cells[3]))
    return keys


def readme_fixed_constants():
    """(module, name) of each constant the README's "design of the loop is
    fixed" paragraph names: `module.NAME`, or a bare `NAME` of the module
    named last before it. A name may end in * for a family of constants."""
    text = open(README).read()
    start = text.index("The design of the loop is fixed")
    paragraph = text[start:text.index("\n\n", start)]
    out, module = [], None
    for ref in re.findall(r"`((?:\w+\.)?[A-Z][A-Z0-9_]*\*?)`", paragraph):
        if "." in ref:
            module, ref = ref.split(".")
        out.append((module, ref))
    return out


def valid_config(command, workdir, tmp_path):
    """A config that command accepts, writing to a fresh output."""
    if command == "report":
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({
            "index": 0, "latent_full": [0.0], "latent_reduced": None,
            "smiles": "CC", "ron": 105.0, "mon": 100.0, "dcn": None,
            "os": 5.0, "score": 110.0, "in_ad": True, "vote_sum": 2,
            "duplicate": False, "penalty_applied": False}) + "\n")
    return {
        "train-gnn": {"dataset": str(workdir / "dataset.csv"), "n_models": 1,
                      "train": {"epochs": 1}},
        "fit-ad": {"checkpoint": str(workdir / "gnn.ckpt"),
                   "dataset": str(workdir / "dataset.csv")},
        "run-loop": {**json.loads(open(loop_config(workdir)).read()),
                     "loop": {"method": "ga", "max_total": 5,
                              "ad_enabled": False}},
        "report": {"records": str(tmp_path / "records.jsonl")},
        "enumerate": {"grammar": str(workdir / "grammar.json")},
    }[command]


class TestCommandTable:
    def test_readme_names_the_declared_keys(self):
        declared = {name: set(keys) for name, (_, keys, _, _)
                    in COMMANDS.items()}
        assert readme_config_keys() == declared

    def test_readme_rows_name_the_config_fields(self):
        def fields(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert readme_section_keys() == {
            "gnn": fields(gnn.GnnConfig),
            "train": fields(gnn.TrainConfig),
            "loop": fields(loop.RunConfig) - {"seed"},
        }

    def test_readme_fixed_constants_exist(self):
        constants = readme_fixed_constants()
        assert {module for module, _ in constants} \
            == {"loop", "gnn", "optimizers"}
        for module, name in constants:
            names = vars(importlib.import_module("moldesign." + module))
            if name.endswith("*"):
                assert any(n.startswith(name[:-1]) for n in names), name
            else:
                assert name in names, "%s.%s" % (module, name)

    @pytest.mark.parametrize("command,key", [
        ("train-gnn", "epochs"), ("fit-ad", "gama"), ("run-loop", "seed"),
        ("report", "record"), ("enumerate", "n_dim"),
    ])
    def test_undeclared_key_refused(self, workdir, tmp_path, capsys,
                                    command, key):
        cfg = valid_config(command, workdir, tmp_path)
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(cfg))
        bad.write_text(json.dumps({**cfg, key: 5}))
        rc = main([command, "--config", str(bad),
                   "--out", str(tmp_path / "bad.out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err and repr(key) in err
        assert not (tmp_path / "bad.out").exists()
        # without the key the same config runs
        assert main([command, "--config", str(good),
                     "--out", str(tmp_path / "good.out")]) == 0
        assert (tmp_path / "good.out").exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_seed_only_where_read(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert ("--seed" in capsys.readouterr().out) \
            == (command in ("train-gnn", "run-loop"))
