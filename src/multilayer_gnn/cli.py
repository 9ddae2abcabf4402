"""Command-line entry point for reproducible runs driven by a JSON config.

Commands: ingest, train, evaluate, explain, discover, gsea, ablate, synth.
Every command is a pure function of (config, input files, seed); outputs are
byte-identical across reruns. Timestamps and wall-clock figures live only in
the sidecar ``run.log``.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import difflib
import json
import logging
import os
import sys
from pathlib import Path

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

logger = logging.getLogger(__name__)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_MODEL_KEYS = ("arch", "encoder_layers", "hidden_dim", "meta_layers", "meta_hidden_dim",
               "leaky_slope")
_TRAINING_DEFAULTS = {
    "epochs": 2000, "lr": 0.001, "test_frac": 0.25, "val_frac": 0.10,
    "pos_weight": 1.0,
}
_EXPLAIN_DEFAULTS = {"steps": 64, "edge_ig_scope": "target"}
_ABLATION_DEFAULTS = {"mode": "none", "fraction": 0.2, "seeds": [1, 2, 3]}


def _model_defaults() -> dict:
    """The configurable model fields with GnnConfig's defaults."""
    from .gnn import GnnConfig

    defaults = GnnConfig()
    return {key: getattr(defaults, key) for key in _MODEL_KEYS}


def _require(cond, field, message):
    from .errors import ConfigError

    if not cond:
        raise ConfigError(f"{field}: {message}")


def load_config(path, seed_override=None, out_override=None) -> dict:
    """Parse, default-fill, and validate a run configuration."""
    from .errors import ConfigError

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err

    known_top = {"paths", "model", "training", "explain", "ablation",
                 "output_dir", "log_level"}
    for key in cfg:
        _require(key in known_top, key, "unknown configuration section")
    cfg.setdefault("paths", {})
    for section, defaults, extra in (
        ("model", _model_defaults(), ()),
        ("training", _TRAINING_DEFAULTS, ("seed", "test_layer")),
        ("explain", _EXPLAIN_DEFAULTS, ()),
        ("ablation", _ABLATION_DEFAULTS, ()),
    ):
        given = cfg.get(section, {})
        for key in given:
            _require(key in defaults or key in extra, f"{section}.{key}", "unknown field")
        cfg[section] = {**defaults, **given}
    if seed_override is not None:
        cfg["training"]["seed"] = seed_override
    if out_override is not None:
        cfg["output_dir"] = str(out_override)
    cfg.setdefault("output_dir", "out")

    paths = cfg["paths"]
    _require(isinstance(paths.get("layers"), list) and paths["layers"],
             "paths.layers", "must be a non-empty list of {name, path}")
    seen = set()
    for i, entry in enumerate(paths["layers"]):
        _require(isinstance(entry, dict) and "name" in entry and "path" in entry,
                 f"paths.layers[{i}]", "must have 'name' and 'path'")
        _require(entry["name"] not in seen, f"paths.layers[{i}].name", "duplicate layer name")
        seen.add(entry["name"])
        _require(Path(entry["path"]).exists(), f"paths.layers[{i}].path",
                 f"file not found: {entry['path']}")
    for key in ("features", "labels"):
        _require(key in paths, f"paths.{key}", "missing")
        _require(Path(paths[key]).exists(), f"paths.{key}", f"file not found: {paths[key]}")
    if "gene_sets" in paths:
        _require(Path(paths["gene_sets"]).exists(), "paths.gene_sets",
                 f"file not found: {paths['gene_sets']}")

    _require("seed" in cfg["training"], "training.seed", "missing (a seed is mandatory)")
    _require(isinstance(cfg["training"]["seed"], int), "training.seed", "must be an integer")
    _require("test_layer" in cfg["training"], "training.test_layer", "missing")
    _require(cfg["training"]["test_layer"] in seen, "training.test_layer",
             f"not one of the configured layers {sorted(seen)}")
    _require(cfg["explain"]["edge_ig_scope"] in ("target", "global"),
             "explain.edge_ig_scope", "must be 'target' or 'global'")
    return cfg


def _gnn_config(cfg):
    from .errors import ConfigError
    from .gnn import GnnConfig

    try:
        return GnnConfig(**cfg["model"]).validate()
    except TypeError as err:
        raise ConfigError(f"model: {err}") from err


def _load_dataset(cfg):
    from .data import load_dataset

    return load_dataset(
        [(e["name"], e["path"]) for e in cfg["paths"]["layers"]],
        cfg["paths"]["features"],
        cfg["paths"]["labels"],
    )


def _outdir(cfg) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setup_logging(level: str, outdir: Path = None):
    root = logging.getLogger()
    for h in list(root.handlers):
        root.removeHandler(h)
        h.close()
    root.setLevel(getattr(logging, level.upper(), logging.INFO))
    console = logging.StreamHandler(sys.stderr)
    console.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(console)
    if outdir is not None:
        sidecar = logging.FileHandler(outdir / "run.log", mode="w", encoding="utf-8")
        sidecar.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
        root.addHandler(sidecar)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_config(cfg, outdir: Path):
    _write_json(outdir / "effective_config.json", cfg)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_ingest(cfg) -> int:
    outdir = _outdir(cfg)
    _setup_logging(cfg.get("log_level", "info"), outdir)
    dataset = _load_dataset(cfg)
    summary = {
        "n_genes": dataset.n_genes,
        "n_features": dataset.features.n_features,
        "feature_groups": sorted(set(dataset.features.omic_group)),
        "genes_without_feature_rows": len(dataset.features.missing),
        "layers": [
            {"name": lg.layer_name, "nodes": lg.n_nodes, "edges": lg.n_edges}
            for lg in dataset.layers
        ],
        "labels": {
            "positive": int(dataset.labels.positive_ids().size),
            "negative": int(dataset.labels.negative_ids().size),
            "unlabeled": dataset.n_genes - len(dataset.labels),
        },
    }
    _echo_config(cfg, outdir)
    _write_json(outdir / "dataset_summary.json", summary)
    logger.info("ingested %d genes across %d layers", dataset.n_genes, dataset.n_layers)
    return EXIT_OK


def cmd_train(cfg) -> int:
    from . import training as tr

    outdir = _outdir(cfg)
    _setup_logging(cfg.get("log_level", "info"), outdir)
    dataset = _load_dataset(cfg)
    model_cfg = _gnn_config(cfg)
    t = cfg["training"]
    split = tr.stratified_split(
        dataset.labels, dataset, t["test_layer"],
        test_frac=t["test_frac"], val_frac_of_rest=t["val_frac"], seed=t["seed"],
    )
    params, report = tr.train(
        model_cfg, dataset, split, epochs=t["epochs"], lr=t["lr"],
        seed=t["seed"], pos_weight=t["pos_weight"],
    )
    tr.save_checkpoint(params, model_cfg, t["seed"], outdir / "checkpoint.bin")
    _write_json(outdir / "report.json", report.as_dict(include_timing=False))
    _write_json(outdir / "split.json", split.as_dict())
    _echo_config(cfg, outdir)
    logger.info(
        "trained %d epochs in %.1fs (best epoch %d, val %.4f): test AUPRC %.4f",
        report.epochs, report.wall_clock_sec, report.best_epoch,
        report.best_val_auprc, report.test_auprc,
    )
    return EXIT_OK


def _load_checkpoint_for(cfg, checkpoint_path, dataset):
    from .errors import ConfigError
    from .training import load_checkpoint

    params, model_cfg, seed = load_checkpoint(checkpoint_path)
    if params.d_in != dataset.features.n_features:
        raise ConfigError(
            f"checkpoint expects {params.d_in} features, dataset has "
            f"{dataset.features.n_features}"
        )
    return params, model_cfg, seed


def cmd_evaluate(cfg, checkpoint, split_path=None) -> int:
    import numpy as np

    from . import training as tr
    from .autodiff import sigmoid
    from .gnn import forward

    outdir = _outdir(cfg)
    _setup_logging(cfg.get("log_level", "info"), outdir)
    dataset = _load_dataset(cfg)
    params, model_cfg, _ = _load_checkpoint_for(cfg, checkpoint, dataset)
    t = cfg["training"]
    if split_path:
        split = tr.SplitSpec.from_dict(json.loads(Path(split_path).read_text()))
    else:
        split = tr.stratified_split(
            dataset.labels, dataset, t["test_layer"],
            test_frac=t["test_frac"], val_frac_of_rest=t["val_frac"], seed=t["seed"],
        )
    probs = forward(params, model_cfg, dataset)
    result = {}
    for name, ids in (("test", split.test_ids), ("val", split.val_ids), ("train", split.train_ids)):
        ids = np.asarray(ids, dtype=np.intp)
        targets = np.array([dataset.labels.labels[g] for g in ids])
        if ids.size and (targets == 1).any():
            result[f"{name}_auprc"] = tr.auprc(probs[ids], targets)
        else:
            result[f"{name}_auprc"] = None
    _echo_config(cfg, outdir)
    _write_json(outdir / "evaluation.json", result)
    logger.info("evaluation: %s", result)
    return EXIT_OK


def _resolve_genes(dataset, raw_names):
    from .errors import DataError

    ids = []
    for name in raw_names:
        if name in dataset.catalog:
            ids.append(dataset.catalog.index[name])
        else:
            close = difflib.get_close_matches(name, dataset.catalog.names, n=3)
            hint = f"; closest matches: {', '.join(close)}" if close else ""
            raise DataError(f"unknown gene {name!r}{hint}")
    return ids


def _explain_filename(gene: str) -> str:
    """``explain_<gene>.json``, with only '%' and '/' percent-encoded so that
    every gene name maps to its own file inside the output directory."""
    return "explain_" + gene.replace("%", "%25").replace("/", "%2F") + ".json"


def cmd_explain(cfg, checkpoint, genes) -> int:
    from . import analysis as an
    from . import explain as ex
    from .gnn import prepare

    outdir = _outdir(cfg)
    _setup_logging(cfg.get("log_level", "info"), outdir)
    dataset = _load_dataset(cfg)
    params, model_cfg, _ = _load_checkpoint_for(cfg, checkpoint, dataset)
    gene_ids = _resolve_genes(dataset, genes)
    steps = cfg["explain"]["steps"]
    scope = cfg["explain"]["edge_ig_scope"]
    prep = prepare(model_cfg, dataset)
    _echo_config(cfg, outdir)
    meta_attrs = {}
    for name, gid in zip(genes, gene_ids):
        attr = ex.ig_node_features(params, model_cfg, dataset, gid, steps=steps, prep=prep)
        medge = ex.ig_meta_edges(params, model_cfg, dataset, gid, steps=steps,
                                 scope=scope, prep=prep)
        meta_attrs[gid] = medge
        report = ex.attribution_report(dataset, attr, medge)
        _write_json(outdir / _explain_filename(name), report)
        logger.info("explained %s (%d steps, %s edge scope)", name, steps, scope)

    # companion tables across the explained genes: positive-neighbor
    # fractions per layer and their covariation with meta-edge importance
    fractions = an.neighbor_fraction_table(dataset, gene_ids)
    an.write_neighbor_fractions_csv(fractions, dataset, outdir / "neighbor_fractions.csv")
    records = an.meta_edge_variability(meta_attrs, fractions)
    an.write_variability_csv(records, dataset, outdir / "meta_edge_variability.csv")
    return EXIT_OK


def cmd_discover(cfg, checkpoint, threshold=None, precision_target=0.95) -> int:
    from . import analysis as an

    outdir = _outdir(cfg)
    _setup_logging(cfg.get("log_level", "info"), outdir)
    dataset = _load_dataset(cfg)
    params, model_cfg, _ = _load_checkpoint_for(cfg, checkpoint, dataset)
    result = an.discover_candidates(params, model_cfg, dataset, threshold, precision_target)
    if threshold is None:
        note = f"precision_target={precision_target}"
    else:
        note = "threshold_override=true"
    an.write_candidates_csv(result, outdir / "candidates.csv", header_note=note)
    an.write_ranking_csv(result.full_ranking, outdir / "unlabeled_ranking.csv")
    _echo_config(cfg, outdir)
    logger.info("threshold %.6f -> %d candidate(s) of %d unlabeled",
                result.threshold, len(result.candidates), len(result.full_ranking))
    return EXIT_OK


def _ranked_from_file(path):
    from . import analysis as an
    from .errors import DataError

    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        entries = payload.get("top_neighbors")
        if not entries:
            raise DataError("explain JSON has no top_neighbors section", path=str(path))
        return an.RankedGeneList((e["gene"], e["importance"]) for e in entries)
    return an.load_ranking_csv(path)


def cmd_gsea(ranked_path, gene_sets_path, permutations, seed, outdir, log_level="info") -> int:
    from . import analysis as an
    from .data import load_gene_sets

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _setup_logging(log_level, outdir)
    ranked = _ranked_from_file(ranked_path)
    sets = load_gene_sets(gene_sets_path)
    results = an.gsea_prerank(ranked, sets, permutations=permutations, seed=seed)
    an.write_enrichment_csv(results, outdir / "enrichment.csv", permutations=permutations)
    logger.info("enrichment over %d sets, %d permutations", len(results), permutations)
    return EXIT_OK


_ABLATION_MODES = ("none", "random_features", "all_one", "edge_removal")


def cmd_ablate(cfg, mode, fraction, seeds) -> int:
    import numpy as np

    from . import training as tr
    from .data import perturb_features, remove_edges
    from .errors import ConfigError

    if mode not in _ABLATION_MODES:
        raise ConfigError(f"ablate.mode: must be one of {_ABLATION_MODES}")
    outdir = _outdir(cfg)
    _setup_logging(cfg.get("log_level", "info"), outdir)
    base = _load_dataset(cfg)
    model_cfg = _gnn_config(cfg)
    t = cfg["training"]

    scores = []
    for seed in seeds:
        if mode == "random_features":
            dataset = perturb_features(base, "random", seed)
        elif mode == "all_one":
            dataset = perturb_features(base, "all_one", seed)
        elif mode == "edge_removal":
            dataset = remove_edges(base, fraction, seed)
        else:
            dataset = base
        split = tr.stratified_split(
            dataset.labels, dataset, t["test_layer"],
            test_frac=t["test_frac"], val_frac_of_rest=t["val_frac"], seed=seed,
        )
        _, report = tr.train(
            model_cfg, dataset, split, epochs=t["epochs"], lr=t["lr"],
            seed=seed, pos_weight=t["pos_weight"],
        )
        scores.append(report.test_auprc)
        logger.info("ablate %s seed %d: test AUPRC %.4f", mode, seed, scores[-1])

    payload = {
        "mode": mode,
        "fraction": fraction if mode == "edge_removal" else None,
        "seeds": list(seeds),
        "test_auprc": scores,
        "mean": float(np.mean(scores)),
        "std": float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0,
    }
    _echo_config(cfg, outdir)
    _write_json(outdir / f"ablation_{mode}.json", payload)
    return EXIT_OK


def cmd_synth(outdir, n_genes, n_layers, n_features, seed, variant, signal, log_level="info") -> int:
    from . import synth

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _setup_logging(log_level, outdir)
    dataset, truth = synth.planted_dataset(
        n_genes=n_genes, n_layers=n_layers, n_features=n_features,
        seed=seed, variant=variant, signal_strength=signal,
    )
    sets = synth.planted_gene_sets(truth, seed=seed)
    paths = synth.write_planted(outdir, dataset, truth, sets)
    config = {
        "paths": {
            "layers": paths["layers"],
            "features": paths["features"],
            "labels": paths["labels"],
            "gene_sets": paths["gene_sets"],
        },
        "model": _model_defaults(),
        "training": {**_TRAINING_DEFAULTS, "seed": seed,
                     "test_layer": dataset.layers[0].layer_name},
        "explain": dict(_EXPLAIN_DEFAULTS),
        "ablation": dict(_ABLATION_DEFAULTS),
        "output_dir": str(outdir / "run"),
    }
    _write_json(outdir / "config.json", config)
    logger.info("wrote planted dataset (%d genes, %d layers) under %s",
                n_genes, n_layers, outdir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser():
    parser = _Parser(prog="mgnn",
                     description="Multilayer GNN training, explanation, and analysis")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread cap (1 guarantees bit-reproducibility)")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="override training.seed")
        p.add_argument("--out", default=None, help="override output_dir")
        return p

    with_config(sub.add_parser("ingest", help="load and validate a dataset"))
    with_config(sub.add_parser("train", help="split, train, checkpoint"))

    p = with_config(sub.add_parser("evaluate", help="AUPRC of a checkpoint"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default=None, help="split.json from a train run")

    p = with_config(sub.add_parser("explain", help="attributions per gene"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--genes", default=None, help="comma-separated gene names")
    p.add_argument("--genes-file", default=None, help="file with one gene name per line")

    p = with_config(sub.add_parser("discover", help="threshold and rank unlabeled genes"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="skip threshold selection and use this value")
    p.add_argument("--precision-target", type=float, default=0.95)

    p = sub.add_parser("gsea", help="preranked enrichment of a gene list")
    p.add_argument("--ranked", required=True,
                   help="ranking CSV (gene,score) or an explain output JSON")
    p.add_argument("--gene-sets", required=True, help="GMT file")
    p.add_argument("--permutations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")

    p = with_config(sub.add_parser("ablate", help="train under input perturbations"))
    p.add_argument("--mode", default=None, choices=_ABLATION_MODES,
                   help="overrides the config's ablation.mode")
    p.add_argument("--fraction", type=float, default=None, help="edge_removal fraction")
    p.add_argument("--seeds", default=None, help="comma-separated run seeds")

    p = sub.add_parser("synth", help="generate a planted dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-genes", type=int, default=200)
    p.add_argument("--n-layers", type=int, default=2)
    p.add_argument("--n-features", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", default="complementary", choices=["complementary", "single"])
    p.add_argument("--signal", type=float, default=1.0)
    return parser


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _apply_threads(n, allow_reexec):
    if n is None:
        return
    if all(os.environ.get(var) == str(n) for var in _THREAD_VARS):
        return
    for var in _THREAD_VARS:
        os.environ[var] = str(n)
    # BLAS pools size themselves when numpy loads, which happened at package
    # import; restart the process so the cap actually takes effect
    if allow_reexec:
        os.execv(sys.executable,
                 [sys.executable, "-m", "multilayer_gnn.cli"] + sys.argv[1:])


def main(argv=None) -> int:
    from .errors import CheckpointError, ConfigError, DataError, NumericError

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_threads(args.threads, allow_reexec=argv is None)

        if args.command == "gsea":
            return cmd_gsea(args.ranked, args.gene_sets, args.permutations,
                            args.seed, args.out, args.log_level)
        if args.command == "synth":
            return cmd_synth(args.out, args.n_genes, args.n_layers, args.n_features,
                             args.seed, args.variant, args.signal, args.log_level)

        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        cfg["log_level"] = args.log_level
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.checkpoint, args.split)
        if args.command == "explain":
            genes = []
            if args.genes:
                genes += [g.strip() for g in args.genes.split(",") if g.strip()]
            if args.genes_file:
                genes += [
                    line.strip()
                    for line in Path(args.genes_file).read_text(encoding="utf-8").splitlines()
                    if line.strip()
                ]
            if not genes:
                raise _UsageError("explain needs --genes or --genes-file")
            return cmd_explain(cfg, args.checkpoint, genes)
        if args.command == "discover":
            return cmd_discover(cfg, args.checkpoint, args.threshold, args.precision_target)
        if args.command == "ablate":
            abl = cfg["ablation"]
            mode = args.mode if args.mode is not None else abl["mode"]
            fraction = args.fraction if args.fraction is not None else abl["fraction"]
            if args.seeds is not None:
                seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
            else:
                seeds = list(abl["seeds"])
            if not seeds:
                raise _UsageError("ablate needs at least one seed")
            return cmd_ablate(cfg, mode, fraction, seeds)
        raise _UsageError(f"unknown command {args.command!r}")
    except (_UsageError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
