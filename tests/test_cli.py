"""End-to-end command tests over a small planted dataset."""

import csv
import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multilayer_gnn import analysis as an
from multilayer_gnn import cli, data, gnn, training


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Synth a dataset, shorten training, and produce one trained run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("synth", "--out", data, "--n-genes", 120, "--n-layers", 2,
               "--n-features", 12, "--seed", 5) == 0
    cfg = json.loads((data / "config.json").read_text())
    cfg["training"]["epochs"] = 200
    cfg["output_dir"] = str(root / "run")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    assert run("train", "--config", cfg_path) == 0
    return {
        "root": root,
        "data": data,
        "config": cfg_path,
        "cfg": cfg,
        "run": root / "run",
        "checkpoint": root / "run" / "checkpoint.bin",
        "truth": json.loads((data / "truth.json").read_text()),
    }


class TestSynth:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--out", out, "--n-genes", 60, "--seed", 9) == 0
        for name in ("layer_L0.tsv", "layer_L1.tsv", "features.csv", "labels.tsv",
                     "gene_sets.gmt", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_signal_documented_in_truth(self, tmp_path):
        assert run("synth", "--out", tmp_path / "z", "--n-genes", 60, "--seed", 1,
                   "--signal", 0.0) == 0
        truth = json.loads((tmp_path / "z" / "truth.json").read_text())
        assert truth["signal_strength"] == 0.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_signal_exits_1_naming_the_flag(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert run("synth", "--out", out, f"--signal={value}") == 1
        err = capsys.readouterr().err
        assert "argument --signal: must be a finite number" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestIngest:
    def test_summary(self, ws, tmp_path):
        assert run("ingest", "--config", ws["config"], "--out", tmp_path) == 0
        summary = json.loads((tmp_path / "dataset_summary.json").read_text())
        assert summary["n_genes"] == 120
        assert len(summary["layers"]) == 2
        assert summary["labels"]["unlabeled"] > 0

    def test_missing_feature_path_exit_1(self, ws, tmp_path, capsys):
        cfg = json.loads(ws["config"].read_text())
        cfg["paths"]["features"] = str(tmp_path / "nope.csv")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run("ingest", "--config", bad) == 1
        assert "paths.features" in capsys.readouterr().err

    def test_bad_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("ingest", "--config", bad) == 1

    def test_missing_seed_exit_1(self, ws, tmp_path, capsys):
        cfg = json.loads(ws["config"].read_text())
        del cfg["training"]["seed"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run("train", "--config", bad) == 1
        assert "training.seed" in capsys.readouterr().err


class TestEmptyGeneName:
    @pytest.mark.parametrize("key, text, where", [
        ("layers", "G0001\tG0002\nG0003\t\n", ":2: empty field '' (column 2)"),
        ("layers", "\tG0002\n", ":1: empty field '' (column 1)"),
        ("labels", "G0001\t1\nG0002\t \n", ":2: empty field ' ' (column 2)"),
        ("features", "gene,f1,,f3\n", ":1: empty feature name '' (column 3)"),
    ])
    def test_train_exits_2_naming_file_line_and_column(self, ws, tmp_path, capsys,
                                                        key, text, where):
        cfg = json.loads(ws["config"].read_text())
        bad = tmp_path / "bad.tsv"
        bad.write_text(text)
        if key == "layers":
            cfg["paths"]["layers"][0]["path"] = str(bad)
        else:
            cfg["paths"][key] = str(bad)
        cfg["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("train", "--config", cfg_path) == 2
        err = capsys.readouterr().err
        assert f"{bad}{where}" in err
        assert "Traceback" not in err


class TestTrain:
    def test_outputs_present(self, ws):
        for name in ("checkpoint.bin", "report.json", "split.json",
                     "effective_config.json", "run.log"):
            assert (ws["run"] / name).exists()
        report = json.loads((ws["run"] / "report.json").read_text())
        assert len(report["train_loss"]) == 200
        assert "wall_clock_sec" not in report  # timing lives in run.log only

    def test_rerun_byte_identical(self, ws, tmp_path):
        out2 = tmp_path / "rerun"
        assert run("train", "--config", ws["config"], "--out", out2) == 0
        assert (out2 / "report.json").read_bytes() == (ws["run"] / "report.json").read_bytes()
        assert (out2 / "checkpoint.bin").read_bytes() == (ws["run"] / "checkpoint.bin").read_bytes()

    def test_divergence_exit_3(self, ws, tmp_path):
        cfg = json.loads(ws["config"].read_text())
        cfg["training"]["lr"] = 1e120
        cfg["training"]["epochs"] = 30
        cfg["output_dir"] = str(tmp_path / "div")
        bad = tmp_path / "div.json"
        bad.write_text(json.dumps(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            assert run("train", "--config", bad) == 3

    def test_run_log_names_the_cli_logger_under_python_m(self, ws, tmp_path):
        cfg = json.loads(ws["config"].read_text())
        cfg["training"]["epochs"] = 5
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "multilayer_gnn.cli", "--threads", "1",
             "train", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        log = (out / "run.log").read_text(encoding="utf-8")
        assert re.search(r" INFO multilayer_gnn\.cli: trained 5 epochs", log), log
        assert "__main__" not in log


class TestConfigEchoOnFailure:
    """A config command echoes its config once the dataset loads, so a run
    that fails after that keeps the same ``effective_config.json``."""

    def test_diverged_train_keeps_the_echo(self, ws, tmp_path):
        cfg = json.loads(ws["config"].read_text())
        cfg["training"].update(lr=1e120, epochs=30)
        cfg["output_dir"] = str(tmp_path / "div")
        bad = tmp_path / "div.json"
        bad.write_text(json.dumps(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            assert run("train", "--config", bad) == 3
        want = json.loads((ws["run"] / "effective_config.json").read_text())
        want["training"].update(lr=1e120, epochs=30)
        want["output_dir"] = cfg["output_dir"]
        assert json.loads((tmp_path / "div" / "effective_config.json").read_text()) == want

    def test_discover_on_a_non_checkpoint_keeps_the_echo(self, ws, tmp_path):
        out = tmp_path / "disc"
        assert run("discover", "--config", ws["config"], "--checkpoint", ws["config"],
                   "--out", out) == 2
        want = json.loads((ws["run"] / "effective_config.json").read_text())
        want["output_dir"] = str(out)
        assert json.loads((out / "effective_config.json").read_text()) == want


class TestEvaluate:
    def test_matches_training_report(self, ws, tmp_path):
        out = tmp_path / "eval"
        assert run("evaluate", "--config", ws["config"], "--checkpoint", ws["checkpoint"],
                   "--split", ws["run"] / "split.json", "--out", out) == 0
        ev = json.loads((out / "evaluation.json").read_text())
        report = json.loads((ws["run"] / "report.json").read_text())
        assert ev["test_auprc"] == pytest.approx(report["test_auprc"], abs=1e-12)


class TestExplain:
    def test_meta_edges_cover_layers(self, ws, tmp_path):
        out = tmp_path / "exp"
        assert run("explain", "--config", ws["config"], "--checkpoint", ws["checkpoint"],
                   "--genes", "G0000", "--out", out) == 0
        rep = json.loads((out / "explain_G0000.json").read_text())
        assert set(rep["meta_edges"]) == {"L0", "L1"}
        assert rep["gene"] == "G0000"

    def test_unknown_gene_exit_2_with_hint(self, ws, tmp_path, capsys):
        assert run("explain", "--config", ws["config"], "--checkpoint", ws["checkpoint"],
                   "--genes", "G00O1", "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert "closest matches" in err

    def test_explain_twice_identical(self, ws, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run("explain", "--config", ws["config"], "--checkpoint",
                       ws["checkpoint"], "--genes", "G0002", "--out", out) == 0
            outs.append((out / "explain_G0002.json").read_bytes())
        assert outs[0] == outs[1]


class TestExplainEachGeneOnce:
    def test_repeats_explained_once_with_identical_outputs(self, ws, tmp_path, monkeypatch):
        from multilayer_gnn import explain

        once = tmp_path / "once"
        assert run("explain", "--config", ws["config"], "--checkpoint", ws["checkpoint"],
                   "--genes", "G0001", "--out", once) == 0
        calls = {"ig_node_features": 0, "ig_meta_edges": 0}
        for name in calls:
            _count_calls(monkeypatch, explain, name, calls)
        genes_file = tmp_path / "genes.txt"
        genes_file.write_text("G0001\nG0001\n", encoding="utf-8")
        repeated = tmp_path / "repeated"
        assert run("explain", "--config", ws["config"], "--checkpoint", ws["checkpoint"],
                   "--genes", "G0001,G0001", "--genes-file", genes_file,
                   "--out", repeated) == 0
        assert calls == {"ig_node_features": 1, "ig_meta_edges": 1}
        # the effective config differs only in output_dir
        sidecars = ("run.log", "effective_config.json")
        names = sorted(p.name for p in once.iterdir() if p.name not in sidecars)
        assert sorted(p.name for p in repeated.iterdir() if p.name not in sidecars) == names
        assert len(names) == 3
        for name in names:
            assert (repeated / name).read_bytes() == (once / name).read_bytes(), name
        log = (repeated / "run.log").read_text(encoding="utf-8")
        assert re.findall(r"WARNING .*more than once.*", log) == [
            "WARNING multilayer_gnn.cli: explaining once each gene named more than once: G0001"]

    def test_run_log_has_time_and_completeness_gap_per_gene(self, ws, tmp_path):
        out = tmp_path / "exp"
        assert run("explain", "--config", ws["config"], "--checkpoint", ws["checkpoint"],
                   "--genes", "G0003,G0000", "--out", out) == 0
        log = (out / "run.log").read_text(encoding="utf-8")
        for gene in ("G0003", "G0000"):
            match = re.search(rf"explained {gene} in (\S+)s \(.*\): "
                              rf"feature IG completeness gap (\S+)$", log, re.M)
            assert match, log
            assert float(match.group(1)) > 0
            assert 0 <= float(match.group(2)) < 1


class TestUnreadableFlagPaths:
    def test_genes_file_not_utf8_exits_2_naming_the_line(self, ws, tmp_path, capsys):
        genes_file = tmp_path / "genes.txt"
        genes_file.write_bytes(b"G0001\nG00\xff2\n")
        assert run("explain", "--config", ws["config"], "--checkpoint", ws["checkpoint"],
                   "--genes-file", genes_file, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: {genes_file}:2: not valid UTF-8 (byte 0xff)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--config", "--genes-file"])
    def test_directory_exits_1_naming_the_path(self, ws, tmp_path, capsys, flag):
        flags = {"--config": ws["config"], "--checkpoint": ws["checkpoint"], flag: tmp_path}
        argv = [str(a) for pair in flags.items() for a in pair]
        assert run("explain", *argv, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"error: {tmp_path}: is a directory" in err
        assert "Traceback" not in err


class TestDiscover:
    def test_candidates_are_planted_positives(self, ws, tmp_path):
        out = tmp_path / "disc"
        assert run("discover", "--config", ws["config"], "--checkpoint",
                   ws["checkpoint"], "--out", out) == 0
        with open(out / "candidates.csv") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        got = {r[0] for r in rows[1:]}
        truth = ws["truth"]
        want = {g for g in truth["unlabeled"] if truth["positive"][g]}
        assert got == want
        full = (out / "unlabeled_ranking.csv").read_text().splitlines()
        assert len(full) - 1 == len(truth["unlabeled"])

    def test_threshold_override_echoed(self, ws, tmp_path):
        out = tmp_path / "disc2"
        assert run("discover", "--config", ws["config"], "--checkpoint",
                   ws["checkpoint"], "--threshold", 1.01, "--out", out) == 0
        text = (out / "candidates.csv").read_text()
        assert "threshold_override=true" in text
        with open(out / "candidates.csv") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        assert len(rows) == 1  # header only: no candidate clears 1.01


class TestDiscoverWithoutPositives:
    @pytest.mark.parametrize("relabel", ["negative", "none"])
    def test_exits_2_naming_the_labels_file(self, ws, tmp_path, capsys, relabel):
        cfg = json.loads(ws["config"].read_text())
        lines = Path(cfg["paths"]["labels"]).read_text().splitlines()
        labels = tmp_path / "labels.tsv"
        if relabel == "negative":
            labels.write_text("".join(f"{line.split()[0]}\t0\n" for line in lines
                                      if line and not line.startswith("#")))
        else:
            labels.write_text("# no labels\n")
        cfg["paths"]["labels"] = str(labels)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("discover", "--config", cfg_path, "--checkpoint", ws["checkpoint"],
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert (f"error: {labels}: no labeled positive to pick a threshold from; "
                "--threshold skips the selection") in err
        assert "Traceback" not in err
        assert run("discover", "--config", cfg_path, "--checkpoint", ws["checkpoint"],
                   "--threshold", 0.5, "--out", tmp_path / "out") == 0


def _count_calls(monkeypatch, module, name, calls):
    """Count calls to ``module.name`` through every package binding of it."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("multilayer_gnn") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


class TestDiscoverOnePass:
    def test_one_forward_and_outputs_match_library(self, ws, tmp_path, monkeypatch):
        calls = {"forward": 0, "prepare": 0}
        _count_calls(monkeypatch, gnn, "forward", calls)
        _count_calls(monkeypatch, gnn, "prepare", calls)
        out = tmp_path / "disc"
        assert run("discover", "--config", ws["config"], "--checkpoint",
                   ws["checkpoint"], "--out", out) == 0
        assert calls == {"forward": 1, "prepare": 1}
        monkeypatch.undo()

        paths = ws["cfg"]["paths"]
        ds = data.load_dataset([(e["name"], e["path"]) for e in paths["layers"]],
                               paths["features"], paths["labels"])
        params, cfg, _ = training.load_checkpoint(ws["checkpoint"])
        probs = gnn.forward(params, cfg, ds)
        labeled = ds.labels.labeled_ids()
        targets = np.array([ds.labels.labels[g] for g in labeled])
        threshold = an.select_threshold(probs[labeled], targets, 0.95)
        want = an.discover_candidates(params, cfg, ds, threshold)
        an.write_candidates_csv(want, tmp_path / "candidates.csv",
                                header_note="precision_target=0.95")
        an.write_ranking_csv(want.full_ranking, tmp_path / "unlabeled_ranking.csv")
        for name in ("candidates.csv", "unlabeled_ranking.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def _rewrite_header(src, dst, edit):
    """Copy a checkpoint, passing its parsed JSON header through ``edit``."""
    raw = src.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = edit(json.loads(raw[12:12 + hlen]))
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:])


_DROP = object()


def _at(path, value):
    """Header edit: set the field at ``path`` to ``value``, or delete it
    when ``value`` is _DROP."""
    def edit(header):
        *outer, last = path
        node = header
        for key in outer:
            node = node[key]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
        return header
    return edit


class TestCorruptCheckpointHeader:
    @pytest.mark.parametrize("edit, field", [
        (lambda h: [h], "header"),
        (_at(["config"], _DROP), "'config'"),
        (_at(["config"], [1, 2]), "'config'"),
        (_at(["config", "depth"], 2), "'config.depth'"),
        (_at(["config", "hidden_dim"], _DROP), "'config.hidden_dim'"),
        (_at(["config", "encoder_layers"], "3"), "'config.encoder_layers'"),
        (_at(["config", "encoder_layers"], 2.5), "'config.encoder_layers'"),
        (_at(["config", "meta_layers"], True), "'config.meta_layers'"),
        (_at(["config", "leaky_slope"], None), "'config.leaky_slope'"),
        (_at(["config", "arch"], "rnn"), "'config'"),
        (_at(["config", "hidden_dim"], 0), "'config'"),
        (_at(["params"], _DROP), "'params'"),
        (_at(["params"], {"enc0.w": [1, 1]}), "'params'"),
        (_at(["params", 1], "enc1.w"), "'params[1]'"),
        (_at(["params", 0, "shape"], [3]), "'params[0].shape'"),
        (_at(["params", 0, "shape"], [-1, 4]), "'params[0].shape'"),
        (_at(["params", 0, "shape"], ["12", 64]), "'params[0].shape'"),
        (_at(["params", 1, "name"], _DROP), "'params[1].name'"),
        (_at(["d_in"], _DROP), "'d_in'"),
        (_at(["d_in"], "12"), "'d_in'"),
        (_at(["d_in"], 0), "'d_in'"),
        (_at(["seed"], _DROP), "'seed'"),
        (_at(["seed"], 5.0), "'seed'"),
    ])
    def test_discover_exits_2_naming_file_and_field(self, ws, tmp_path, capsys, edit, field):
        bad = tmp_path / "bad.bin"
        _rewrite_header(ws["checkpoint"], bad, edit)
        assert run("discover", "--config", ws["config"], "--checkpoint", bad,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err
        assert field in err
        assert "Traceback" not in err


class TestCheckpointParamShapes:
    @pytest.mark.parametrize("key, change, shown", [
        ("shape", lambda shape: shape[::-1], "'head.w2'"),
        ("name", lambda name: "head.w3", "'head.w3'"),
    ], ids=["transposed-shape", "unknown-name"])
    def test_discover_exits_2_naming_the_entry(self, ws, tmp_path, capsys, key, change, shown):
        where = {}

        def edit(header):
            i = next(i for i, e in enumerate(header["params"]) if e["name"] == "head.w2")
            header["params"][i][key] = change(header["params"][i][key])
            where["field"] = f"'params[{i}].{key}'"
            return header

        bad = tmp_path / "bad.bin"
        _rewrite_header(ws["checkpoint"], bad, edit)
        assert run("discover", "--config", ws["config"], "--checkpoint", bad,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: header field {where['field']}" in err
        assert shown in err
        assert "Traceback" not in err

    def test_reordered_entries_exit_2(self, ws, tmp_path, capsys):
        """Entries in another order than ``param_shapes`` are refused, so no
        block of the body is read as another parameter."""
        def edit(header):
            entries = header["params"]
            entries[0], entries[1] = entries[1], entries[0]
            return header

        bad = tmp_path / "bad.bin"
        _rewrite_header(ws["checkpoint"], bad, edit)
        assert run("discover", "--config", ws["config"], "--checkpoint", bad,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: header field 'params[0].name'" in err
        assert "Traceback" not in err


class TestTestSplitWithoutPositives:
    """A ``test_frac`` that leaves the test set without a positive exits 2
    before any training, naming the fraction and the layer."""

    @pytest.mark.parametrize("command", [["train"], ["ablate", "--mode", "none"]],
                             ids=["train", "ablate"])
    def test_exit_2_before_training(self, ws, tmp_path, capsys, command):
        cfg = json.loads(ws["config"].read_text())
        cfg["training"]["test_frac"] = 0.01
        cfg["training"]["epochs"] = 3
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(*command, "--config", cfg_path, "--out", out) == 2
        err = capsys.readouterr().err
        layer = cfg["training"]["test_layer"]
        assert re.search(rf"test_frac 0\.01 puts none of the \d+ positive genes of test layer "
                         rf"'{layer}' in the test set", err), err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()


def _rename_gene(src_dir, dst_dir, old, new):
    """Copy the data files of a synth run with gene ``old`` renamed ``new``."""
    dst_dir.mkdir()
    for path in src_dir.iterdir():
        if path.suffix in (".tsv", ".csv", ".gmt"):
            (dst_dir / path.name).write_text(path.read_text().replace(old, new))


class TestExplainFileNames:
    def test_slash_and_percent_are_encoded(self, ws, tmp_path):
        data_dir = tmp_path / "data"
        _rename_gene(ws["data"], data_dir, "G0003", "A/B")
        cfg = json.loads(ws["config"].read_text())
        for entry in cfg["paths"]["layers"]:
            entry["path"] = str(data_dir / Path(entry["path"]).name)
        for key in ("features", "labels", "gene_sets"):
            cfg["paths"][key] = str(data_dir / Path(cfg["paths"][key]).name)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "exp"
        assert run("explain", "--config", cfg_path, "--checkpoint", ws["checkpoint"],
                   "--genes", "A/B,G0002", "--out", out) == 0
        names = sorted(p.name for p in out.glob("explain_*.json"))
        assert names == ["explain_A%2FB.json", "explain_G0002.json"]
        assert json.loads((out / "explain_A%2FB.json").read_text())["gene"] == "A/B"

    def test_filename_escaping(self):
        assert cli._explain_filename("G0002") == "explain_G0002.json"
        assert cli._explain_filename("a%2Fb/c") == "explain_a%252Fb%2Fc.json"


class TestGsea:
    def test_enrichment_on_ranking(self, ws, tmp_path):
        disc = tmp_path / "disc"
        assert run("discover", "--config", ws["config"], "--checkpoint",
                   ws["checkpoint"], "--out", disc) == 0
        out = tmp_path / "gsea"
        assert run("gsea", "--ranked", disc / "unlabeled_ranking.csv",
                   "--gene-sets", ws["data"] / "gene_sets.gmt",
                   "--permutations", 200, "--seed", 3, "--out", out) == 0
        text = (out / "enrichment.csv").read_text()
        assert text.startswith("set,es,")
        assert "PLANTED_POSITIVE" in text

    def test_same_seed_identical_csv(self, ws, tmp_path):
        disc = tmp_path / "disc"
        assert run("discover", "--config", ws["config"], "--checkpoint",
                   ws["checkpoint"], "--out", disc) == 0
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run("gsea", "--ranked", disc / "unlabeled_ranking.csv",
                       "--gene-sets", ws["data"] / "gene_sets.gmt",
                       "--permutations", 100, "--seed", 7, "--out", out) == 0
            outs.append((out / "enrichment.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_zero_permutations_unavailable(self, ws, tmp_path):
        disc = tmp_path / "disc"
        assert run("discover", "--config", ws["config"], "--checkpoint",
                   ws["checkpoint"], "--out", disc) == 0
        out = tmp_path / "gsea0"
        assert run("gsea", "--ranked", disc / "unlabeled_ranking.csv",
                   "--gene-sets", ws["data"] / "gene_sets.gmt",
                   "--permutations", 0, "--out", out) == 0
        assert "unavailable" in (out / "enrichment.csv").read_text()

    def test_explain_json_as_ranking(self, ws, tmp_path):
        exp = tmp_path / "exp"
        assert run("explain", "--config", ws["config"], "--checkpoint",
                   ws["checkpoint"], "--genes", "G0000", "--out", exp) == 0
        out = tmp_path / "gsea_json"
        assert run("gsea", "--ranked", exp / "explain_G0000.json",
                   "--gene-sets", ws["data"] / "gene_sets.gmt",
                   "--permutations", 50, "--out", out) == 0
        assert (out / "enrichment.csv").exists()


class TestAblate:
    def test_edge_removal_zero_equals_baseline(self, ws, tmp_path):
        cfg = json.loads(ws["config"].read_text())
        cfg["training"]["epochs"] = 60
        cfg_path = tmp_path / "cfg.json"
        seed = cfg["training"]["seed"]
        cfg_path.write_text(json.dumps(cfg))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("ablate", "--config", cfg_path, "--mode", "none",
                   "--seeds", seed, "--out", out_a) == 0
        assert run("ablate", "--config", cfg_path, "--mode", "edge_removal",
                   "--fraction", 0.0, "--seeds", seed, "--out", out_b) == 0
        a = json.loads((out_a / "ablation_none.json").read_text())
        b = json.loads((out_b / "ablation_edge_removal.json").read_text())
        assert a["test_auprc"] == b["test_auprc"]

    def test_three_seeds_reported(self, ws, tmp_path):
        cfg = json.loads(ws["config"].read_text())
        cfg["training"]["epochs"] = 40
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "abl"
        assert run("ablate", "--config", cfg_path, "--mode", "all_one",
                   "--seeds", "1,2,3", "--out", out) == 0
        rep = json.loads((out / "ablation_all_one.json").read_text())
        assert len(rep["test_auprc"]) == 3
        assert "mean" in rep and "std" in rep

    def test_bad_mode_exit_1(self, ws):
        assert run("ablate", "--config", ws["config"], "--mode", "nonsense") == 1

    def test_config_section_supplies_defaults(self, ws, tmp_path):
        cfg = json.loads(ws["config"].read_text())
        cfg["training"]["epochs"] = 30
        cfg["ablation"] = {"mode": "all_one", "seeds": [4]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "abl"
        assert run("ablate", "--config", cfg_path, "--out", out) == 0
        rep = json.loads((out / "ablation_all_one.json").read_text())
        assert rep["seeds"] == [4]


class TestConfigValidation:
    def test_unknown_field_rejected(self, ws, tmp_path, capsys):
        cfg = json.loads(ws["config"].read_text())
        cfg["model"]["hiden_dim"] = 32  # typo must fail loudly
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run("ingest", "--config", bad) == 1
        assert "model.hiden_dim" in capsys.readouterr().err

    def test_unknown_section_rejected(self, ws, tmp_path, capsys):
        cfg = json.loads(ws["config"].read_text())
        cfg["optimizer"] = {"lr": 0.1}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run("ingest", "--config", bad) == 1
        assert "optimizer" in capsys.readouterr().err


class TestUsage:
    def test_no_command_exit_1(self):
        assert run() == 1

    def test_unknown_flag_exit_1(self):
        assert run("train", "--nonexistent-flag") == 1


# (command, field, value): each malformed field once ended in a traceback, ran
# silently, or exited without naming the field
_FIELD_PROBES = [
    ("train", "training.epochs", "10"),
    ("train", "training.lr", "x"),
    ("train", "training.pos_weight", "a"),
    ("train", "training.val_frac", "0.1"),
    ("ablate", "ablation.seeds", 5),
    ("train", "paths.features", 5),
    ("train", "paths.gene_sets", 7),
    ("explain", "explain.steps", 0),
    ("explain", "explain.steps", "64"),
    ("train", "model.encoder_layers", 2.5),
    ("train", "training.test_layer", ["L0"]),
    ("train", "training.test_frac", 0),
    ("train", "training.epochs", -1),
    ("train", "training.epochs", 0),
    ("train", "training.epochs", True),
    ("train", "training.seed", True),
    ("train", "model.leaky_slope", "x"),
    ("train", "log_level", 5),
    ("ablate", "ablation.fraction", 2.0),
    ("train", "training.lr", float("nan")),
    ("train", "training.test_frac", 1.5),
    ("train", "model.hidden_dim", "64"),
    ("train", "model.activation", "relu"),
]


class TestMalformedConfigField:
    @pytest.mark.parametrize("command, field, value", _FIELD_PROBES,
                             ids=[f"{field}={value!r}" for _, field, value in _FIELD_PROBES])
    def test_exits_1_naming_the_field(self, ws, tmp_path, capsys, command, field, value):
        cfg = json.loads(ws["config"].read_text())
        *section, key = field.split(".")
        (cfg[section[0]] if section else cfg)[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        extra = []
        if command == "explain":
            extra = ["--checkpoint", ws["checkpoint"], "--genes", "G0000"]
        assert run(command, "--config", bad, "--out", tmp_path / "out", *extra) == 1
        err = capsys.readouterr().err
        assert f"'{field}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value, field", [
        ("--seed", -1, "training.seed"),
        ("--mode", "nonsense", "ablation.mode"),
        ("--fraction", 1.5, "ablation.fraction"),
        ("--seeds", "", "ablation.seeds"),
    ])
    def test_flags_are_checked_as_their_field(self, ws, tmp_path, capsys, flag, value, field):
        assert run("ablate", "--config", ws["config"], flag, value, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert f"'{field}'" in err
        assert "Traceback" not in err

    def test_flags_are_echoed_in_the_effective_config(self, ws, tmp_path):
        cfg = json.loads(ws["config"].read_text())
        cfg["training"]["epochs"] = 20
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "abl"
        assert run("--log-level", "warning", "ablate", "--config", cfg_path,
                   "--mode", "all_one", "--seeds", "4", "--out", out) == 0
        echo = json.loads((out / "effective_config.json").read_text())
        assert echo["ablation"]["mode"] == "all_one" and echo["ablation"]["seeds"] == [4]
        assert echo["log_level"] == "warning" and echo["output_dir"] == str(out)


class TestUsageFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--n-genes", 0], "--n-genes"),
        (["synth", "--n-layers", 0], "--n-layers"),
        (["synth", "--n-features", 3], "--n-features"),
        (["synth", "--seed", -1], "--seed"),
        (["synth", "--n-genes", "many"], "--n-genes"),
        (["gsea", "--ranked", "r.csv", "--gene-sets", "s.gmt", "--permutations", -1],
         "--permutations"),
        (["gsea", "--ranked", "r.csv", "--gene-sets", "s.gmt", "--seed", -1], "--seed"),
        (["--threads", 0, "synth"], "--threads"),
    ], ids=["n-genes", "n-layers", "n-features", "synth-seed", "n-genes-text",
            "permutations", "gsea-seed", "threads"])
    def test_out_of_range_flag_exits_1_naming_it(self, tmp_path, capsys, argv, flag):
        assert run(*argv, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_seeds_must_be_integers(self, ws, tmp_path, capsys):
        assert run("ablate", "--config", ws["config"], "--seeds", "1,b", "--out", tmp_path) == 1
        assert "argument --seeds" in capsys.readouterr().err


class TestMissingFileFlags:
    @pytest.mark.parametrize("command, flags, missing", [
        ("evaluate", ["--checkpoint", "{missing}"], "nosuch.bin"),
        ("evaluate", ["--checkpoint", "{checkpoint}", "--split", "{missing}"], "nosuch.json"),
        ("explain", ["--checkpoint", "{checkpoint}", "--genes-file", "{missing}"], "nosuch.txt"),
        ("gsea", ["--ranked", "{missing}", "--gene-sets", "{gene_sets}"], "nosuch.csv"),
    ], ids=["evaluate-checkpoint", "evaluate-split", "explain-genes-file", "gsea-ranked"])
    def test_exits_1_naming_the_path(self, ws, tmp_path, capsys, command, flags, missing):
        values = {"missing": tmp_path / missing, "checkpoint": ws["checkpoint"],
                  "gene_sets": ws["data"] / "gene_sets.gmt"}
        config = [] if command == "gsea" else ["--config", ws["config"]]
        argv = [command, *config, *(flag.format(**values) for flag in flags)]
        assert run(*argv, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"error: {tmp_path / missing}: file not found" in err
        assert "Traceback" not in err


class TestMalformedSideFiles:
    def test_split_without_test_ids_exits_2(self, ws, tmp_path, capsys):
        split = json.loads((ws["run"] / "split.json").read_text())
        del split["test_ids"]
        bad = tmp_path / "split.json"
        bad.write_text(json.dumps(split))
        assert run("evaluate", "--config", ws["config"], "--checkpoint", ws["checkpoint"],
                   "--split", bad, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: 'test_ids' is missing" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("ids, shown", [(["G0001"], "'val_ids'"), ([10 ** 6], "1000000")])
    def test_split_with_bad_ids_exits_2(self, ws, tmp_path, capsys, ids, shown):
        split = json.loads((ws["run"] / "split.json").read_text())
        split["val_ids"] = ids
        bad = tmp_path / "split.json"
        bad.write_text(json.dumps(split))
        assert run("evaluate", "--config", ws["config"], "--checkpoint", ws["checkpoint"],
                   "--split", bad, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err and shown in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["split.json", "explain_G0000.json"])
    def test_not_json_exits_2(self, ws, tmp_path, capsys, name):
        bad = tmp_path / name
        bad.write_text("{not json")
        if name == "split.json":
            argv = ["evaluate", "--config", ws["config"], "--checkpoint", ws["checkpoint"],
                    "--split", bad]
        else:
            argv = ["gsea", "--ranked", bad, "--gene-sets", ws["data"] / "gene_sets.gmt"]
        assert run(*argv, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: not valid JSON" in err
        assert "Traceback" not in err


class TestMalformedRankedJson:
    @pytest.mark.parametrize("entries, field", [
        ([{"gene": "G0001"}], "'top_neighbors[0].importance' is missing"),
        ([{"gene": "G0001", "importance": 0.5}, {"importance": 0.1}],
         "'top_neighbors[1].gene' is missing"),
        ([{"gene": "G0001", "importance": "high"}], "'top_neighbors[0].importance' must be"),
        ([{"gene": "G0001", "importance": float("nan")}], "'top_neighbors[0].importance' must"),
        ([{"gene": 7, "importance": 0.5}], "'top_neighbors[0].gene' must be"),
        ([["G0001", 0.5]], "'top_neighbors[0]' must be an object"),
    ], ids=["no-importance", "no-gene", "text-importance", "nan-importance", "int-gene",
            "list-entry"])
    def test_gsea_exits_2_naming_the_entry(self, ws, tmp_path, capsys, entries, field):
        bad = tmp_path / "explain_G0000.json"
        bad.write_text(json.dumps({"gene": "G0000", "top_neighbors": entries}))
        assert run("gsea", "--ranked", bad, "--gene-sets", ws["data"] / "gene_sets.gmt",
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: field {field}" in err
        assert "Traceback" not in err


    def test_gsea_duplicate_gene_names_the_entry(self, ws, tmp_path, capsys):
        bad = tmp_path / "explain_G0000.json"
        entries = [{"gene": g, "importance": v} for g, v in
                   (("G0001", 0.5), ("G0002", 0.4), ("G0001", 0.3))]
        bad.write_text(json.dumps({"gene": "G0000", "top_neighbors": entries}))
        assert run("gsea", "--ranked", bad, "--gene-sets", ws["data"] / "gene_sets.gmt",
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: duplicate gene 'G0001' in 'top_neighbors[2].gene'" in err
        assert "Traceback" not in err


class TestMalformedRankingCsv:
    @pytest.mark.parametrize("row, shown", [
        ("G0002,nan", "score must be a finite number, got 'nan'"),
        ("G0002,inf", "score must be a finite number, got 'inf'"),
        ("G0002,-inf", "score must be a finite number, got '-inf'"),
        ("G0002,high", "score must be a finite number, got 'high'"),
        ("G0002,", "score must be a finite number, got ''"),
        ("G0002", "row has no score"),
    ], ids=["nan", "inf", "minus-inf", "text", "empty", "short"])
    def test_gsea_exits_2_naming_the_line(self, ws, tmp_path, capsys, row, shown):
        bad = tmp_path / "r.csv"
        bad.write_text(f"gene,score\n# a comment\nG0001,0.5\n\n{row}\nG0003,0.1\n")
        assert run("gsea", "--ranked", bad, "--gene-sets", ws["data"] / "gene_sets.gmt",
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: {bad}:5: {shown}" in err
        assert "Traceback" not in err


class TestDiscoverFlags:
    @pytest.mark.parametrize("flag, value", [
        ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "high"),
        ("--precision-target", "nan"), ("--precision-target", "0"),
        ("--precision-target", "1.5"), ("--precision-target", "-0.5"),
    ])
    def test_bad_value_exits_1_naming_the_flag(self, ws, tmp_path, capsys, flag, value):
        assert run("discover", "--config", ws["config"], "--checkpoint", ws["checkpoint"],
                   f"{flag}={value}", "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_precision_target_one_accepted(self, ws, tmp_path):
        out = tmp_path / "out"
        assert run("discover", "--config", ws["config"], "--checkpoint", ws["checkpoint"],
                   "--precision-target", "1", "--out", out) == 0
        assert "precision_target=1.0" in (out / "candidates.csv").read_text()
