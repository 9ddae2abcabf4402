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
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis as an
from . import explain as ex
from . import synth
from . import training as tr
from .config import LOG_LEVELS, GnnConfig, RunConfig, check_section
from .data import load_dataset, load_gene_sets, perturb_features, remove_edges, utf8_error
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .gnn import forward, prepare

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

# named, not __name__: under ``python -m`` (as --threads re-executes) that is __main__
logger = logging.getLogger("multilayer_gnn.cli")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _read_json(path, error):
    """The parsed JSON file at ``path``; an ``error`` naming it if it does not parse."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, or nested too deep
        raise error(f"{path}: not valid JSON ({err})") from err


def load_config(path, overrides=None) -> dict:
    """Parse, default-fill, and check a run configuration.

    ``overrides`` maps a section name, or ``""`` for the top level, to the
    fields that command-line flags set; those that are not None replace the
    file's values before the check.
    """
    raw = _read_json(path, ConfigError)
    for where, flags in (overrides or {}).items():
        section = raw.setdefault(where, {}) if where and isinstance(raw, dict) else raw
        if isinstance(section, dict):  # anything else fails the check below
            section.update((key, value) for key, value in flags.items() if value is not None)
    # the activation is fixed: only checkpoint headers carry it
    cfg = check_section(RunConfig, raw, "", omit=("activation",))
    names = [entry["name"] for entry in cfg["paths"]["layers"]]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"'paths.layers[{i}].name' repeats layer name {name!r}")
    if cfg["training"]["test_layer"] not in names:
        raise ConfigError(f"'training.test_layer' must name one of 'paths.layers' {names}, "
                          f"got {cfg['training']['test_layer']!r}")
    return cfg


def _outdir(path, level: str) -> Path:
    """Make the output directory ``path`` and log to stderr and its ``run.log``."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    root = logging.getLogger()
    for h in list(root.handlers):
        root.removeHandler(h)
        h.close()
    root.setLevel(getattr(logging, level.upper(), logging.INFO))
    console = logging.StreamHandler(sys.stderr)
    console.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    sidecar = logging.FileHandler(out / "run.log", mode="w", encoding="utf-8")
    sidecar.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s"))
    root.addHandler(console)
    root.addHandler(sidecar)
    return out


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _start(cfg):
    """What every config command does first: make the output directory and
    log to it, load the dataset, then echo the config as
    ``effective_config.json``, so that a run failing later keeps it."""
    outdir = _outdir(cfg["output_dir"], cfg["log_level"])
    dataset = load_dataset([(e["name"], e["path"]) for e in cfg["paths"]["layers"]],
                           cfg["paths"]["features"], cfg["paths"]["labels"])
    _write_json(outdir / "effective_config.json", cfg)
    return outdir, dataset


def _split(cfg, dataset, seed):
    t = cfg["training"]
    return tr.stratified_split(dataset.labels, dataset, t["test_layer"], test_frac=t["test_frac"],
                               val_frac_of_rest=t["val_frac"], seed=seed)


def _train(cfg, dataset, split, seed):
    t = cfg["training"]
    return tr.train(GnnConfig(**cfg["model"]), dataset, split, epochs=t["epochs"], lr=t["lr"],
                    seed=seed, pos_weight=t["pos_weight"])


def _load_checkpoint_for(checkpoint_path, dataset):
    params, model_cfg, _ = tr.load_checkpoint(checkpoint_path)
    if params.d_in != dataset.features.n_features:
        raise ConfigError(
            f"checkpoint expects {params.d_in} features, dataset has "
            f"{dataset.features.n_features}"
        )
    return params, model_cfg


# ---------------------------------------------------------------------------
# commands: cmd_x(cfg, args) for config commands, cmd_x(args) for the others
# ---------------------------------------------------------------------------

def cmd_ingest(cfg, args) -> int:
    outdir, dataset = _start(cfg)
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
    _write_json(outdir / "dataset_summary.json", summary)
    logger.info("ingested %d genes across %d layers", dataset.n_genes, dataset.n_layers)
    return EXIT_OK


def cmd_train(cfg, args) -> int:
    outdir, dataset = _start(cfg)
    seed = cfg["training"]["seed"]
    split = _split(cfg, dataset, seed)
    params, report = _train(cfg, dataset, split, seed)
    tr.save_checkpoint(params, GnnConfig(**cfg["model"]), seed, outdir / "checkpoint.bin")
    _write_json(outdir / "report.json", report.as_dict(include_timing=False))
    _write_json(outdir / "split.json", split.as_dict())
    logger.info(
        "trained %d epochs in %.1fs (best epoch %d, val %.4f): test AUPRC %.4f",
        report.epochs, report.wall_clock_sec, report.best_epoch,
        report.best_val_auprc, report.test_auprc,
    )
    return EXIT_OK


def cmd_evaluate(cfg, args) -> int:
    outdir, dataset = _start(cfg)
    params, model_cfg = _load_checkpoint_for(args.checkpoint, dataset)
    if args.split:
        try:
            split = tr.SplitSpec.from_dict(_read_json(args.split, DataError))
        except ConfigError as err:
            raise DataError(f"{args.split}: {err}") from err
        unlabeled = {*split.test_ids, *split.train_ids, *split.val_ids} - set(dataset.labels.labels)
        if unlabeled:
            raise DataError(f"{args.split}: gene id {min(unlabeled)} is not a labeled gene")
    else:
        split = _split(cfg, dataset, cfg["training"]["seed"])
    probs = forward(params, model_cfg, dataset)
    result = {}
    for name, ids in (("test", split.test_ids), ("val", split.val_ids), ("train", split.train_ids)):
        ids = np.asarray(ids, dtype=np.intp)
        targets = np.array([dataset.labels.labels[g] for g in ids])
        if ids.size and (targets == 1).any():
            result[f"{name}_auprc"] = tr.auprc(probs[ids], targets)
        else:
            result[f"{name}_auprc"] = None
    _write_json(outdir / "evaluation.json", result)
    logger.info("evaluation: %s", result)
    return EXIT_OK


def _resolve_genes(dataset, raw_names):
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


def cmd_explain(cfg, args) -> int:
    """Explain each gene named by ``--genes`` and ``--genes-file`` once, in
    the order first named.

    ``run.log`` gets each gene's wall time and its feature-IG completeness
    gap ``|sum of attributions - (F(x) - F(0))|``.
    """
    genes = (args.genes or "").split(",")
    if args.genes_file:
        try:
            genes += Path(args.genes_file).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError:
            raise utf8_error(args.genes_file) from None
    genes = [g.strip() for g in genes if g.strip()]
    if not genes:
        raise _UsageError("explain needs --genes or --genes-file")
    outdir, dataset = _start(cfg)
    repeats = [name for name, count in Counter(genes).items() if count > 1]
    if repeats:
        logger.warning("explaining once each gene named more than once: %s", ", ".join(repeats))
        genes = list(dict.fromkeys(genes))
    params, model_cfg = _load_checkpoint_for(args.checkpoint, dataset)
    gene_ids = _resolve_genes(dataset, genes)
    steps = cfg["explain"]["steps"]
    scope = cfg["explain"]["edge_ig_scope"]
    prep = prepare(model_cfg, dataset)
    spans = ex.logit_spans(params, model_cfg, prep)
    meta_attrs = {}
    for name, gid in zip(genes, gene_ids):
        start = time.perf_counter()
        attr = ex.ig_node_features(params, model_cfg, dataset, gid, steps=steps, prep=prep)
        medge = ex.ig_meta_edges(params, model_cfg, dataset, gid, steps=steps,
                                 scope=scope, prep=prep)
        meta_attrs[gid] = medge
        report = ex.attribution_report(dataset, attr, medge)
        _write_json(outdir / _explain_filename(name), report)
        logger.info("explained %s in %.3fs (%d steps, %s edge scope): "
                    "feature IG completeness gap %.3e", name, time.perf_counter() - start,
                    steps, scope, abs(attr.matrix.sum() - spans[gid]))

    # companion tables across the explained genes: positive-neighbor
    # fractions per layer and their covariation with meta-edge importance
    fractions = an.neighbor_fraction_table(dataset, gene_ids)
    an.write_neighbor_fractions_csv(fractions, dataset, outdir / "neighbor_fractions.csv")
    records = an.meta_edge_variability(meta_attrs, fractions)
    an.write_variability_csv(records, dataset, outdir / "meta_edge_variability.csv")
    return EXIT_OK


def cmd_discover(cfg, args) -> int:
    outdir, dataset = _start(cfg)
    params, model_cfg = _load_checkpoint_for(args.checkpoint, dataset)
    result = an.discover_candidates(params, model_cfg, dataset, args.threshold,
                                    args.precision_target)
    if args.threshold is None:
        note = f"precision_target={args.precision_target}"
    else:
        note = "threshold_override=true"
    an.write_candidates_csv(result, outdir / "candidates.csv", header_note=note)
    an.write_ranking_csv(result.full_ranking, outdir / "unlabeled_ranking.csv")
    logger.info("threshold %.6f -> %d candidate(s) of %d unlabeled",
                result.threshold, len(result.candidates), len(result.full_ranking))
    return EXIT_OK


@dataclass(frozen=True)
class _Neighbor:
    """One entry of an explain JSON's ``top_neighbors`` list."""

    gene: str
    importance: float


def _ranked_from_file(path):
    path = Path(path)
    if path.suffix == ".json":
        payload = _read_json(path, DataError)
        entries = payload.get("top_neighbors") if isinstance(payload, dict) else None
        if not isinstance(entries, list) or not entries:
            raise DataError("explain JSON has no top_neighbors section", path=str(path))
        scores = {}
        for i, entry in enumerate(entries):
            try:
                entry = check_section(_Neighbor, entry, f"top_neighbors[{i}]")
            except ConfigError as err:
                raise DataError(f"field {err}", path=str(path)) from err
            if entry["gene"] in scores:
                raise DataError(f"duplicate gene {entry['gene']!r} in 'top_neighbors[{i}].gene'",
                                path=str(path))
            scores[entry["gene"]] = entry["importance"]
        return an.RankedGeneList(scores.items())
    return an.load_ranking_csv(path)


def cmd_gsea(args) -> int:
    outdir = _outdir(args.out, args.log_level or "info")
    ranked = _ranked_from_file(args.ranked)
    sets = load_gene_sets(args.gene_sets)
    results = an.gsea_prerank(ranked, sets, permutations=args.permutations, seed=args.seed)
    an.write_enrichment_csv(results, outdir / "enrichment.csv", permutations=args.permutations)
    logger.info("enrichment over %d sets, %d permutations", len(results), args.permutations)
    return EXIT_OK


def cmd_ablate(cfg, args) -> int:
    outdir, base = _start(cfg)
    mode, fraction, seeds = (cfg["ablation"][key] for key in ("mode", "fraction", "seeds"))

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
        _, report = _train(cfg, dataset, _split(cfg, dataset, seed), seed)
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
    _write_json(outdir / f"ablation_{mode}.json", payload)
    return EXIT_OK


def cmd_synth(args) -> int:
    outdir = _outdir(args.out, args.log_level or "info")
    dataset, truth = synth.planted_dataset(
        n_genes=args.n_genes, n_layers=args.n_layers, n_features=args.n_features,
        seed=args.seed, variant=args.variant, signal_strength=args.signal,
    )
    sets = synth.planted_gene_sets(truth, seed=args.seed)
    paths = synth.write_planted(outdir, dataset, truth, sets)
    config = check_section(RunConfig, {
        "paths": {key: paths[key] for key in ("layers", "features", "labels", "gene_sets")},
        "training": {"seed": args.seed, "test_layer": dataset.layers[0].layer_name},
        "output_dir": str(outdir / "run"),
    }, "", omit=("activation", "log_level"))  # the log level is left to the flag
    _write_json(outdir / "config.json", config)
    logger.info("wrote planted dataset (%d genes, %d layers) under %s",
                args.n_genes, args.n_layers, outdir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser():
    def at_least(lo):
        def integer(text):
            if int(text) < lo:
                raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {text}")
            return int(text)
        return integer

    def integers(text):
        return [int(s) for s in text.split(",") if s.strip()]

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
        return value

    def fraction(text):
        value = finite(text)
        if not 0 < value <= 1:
            raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
        return value

    parser = _Parser(prog="mgnn",
                     description="Multilayer GNN training, explanation, and analysis")
    parser.add_argument("--log-level", default=None, choices=LOG_LEVELS,
                        help="overrides log_level (default info)")
    parser.add_argument("--threads", type=at_least(1), default=None,
                        help="BLAS thread cap (1 guarantees bit-reproducibility)")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="override training.seed")
        p.add_argument("--out", default=None, help="override output_dir")
        return p

    with_config("ingest", cmd_ingest, "load and validate a dataset")
    with_config("train", cmd_train, "split, train, checkpoint")

    p = with_config("evaluate", cmd_evaluate, "AUPRC of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default=None, help="split.json from a train run")

    p = with_config("explain", cmd_explain, "attributions per gene")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--genes", default=None, help="comma-separated gene names")
    p.add_argument("--genes-file", default=None, help="file with one gene name per line")

    p = with_config("discover", cmd_discover, "threshold and rank unlabeled genes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--threshold", type=finite, default=None,
                   help="skip threshold selection and use this value")
    p.add_argument("--precision-target", type=fraction, default=0.95)

    p = sub.add_parser("gsea", help="preranked enrichment of a gene list")
    p.set_defaults(run=cmd_gsea)
    p.add_argument("--ranked", required=True,
                   help="ranking CSV (gene,score) or an explain output JSON")
    p.add_argument("--gene-sets", required=True, help="GMT file")
    p.add_argument("--permutations", type=at_least(0), default=1000)
    p.add_argument("--seed", type=at_least(0), default=0)
    p.add_argument("--out", default="out")

    p = with_config("ablate", cmd_ablate, "train under input perturbations")
    p.add_argument("--mode", default=None, help="overrides ablation.mode")
    p.add_argument("--fraction", type=float, default=None, help="overrides ablation.fraction")
    p.add_argument("--seeds", type=integers, default=None,
                   help="comma-separated run seeds; overrides ablation.seeds")

    p = sub.add_parser("synth", help="generate a planted dataset")
    p.set_defaults(run=cmd_synth)
    p.add_argument("--out", required=True)
    # the smallest planted task synth.planted_dataset builds
    p.add_argument("--n-genes", type=at_least(8), default=200)
    p.add_argument("--n-layers", type=at_least(1), default=2)
    p.add_argument("--n-features", type=at_least(4), default=16)
    p.add_argument("--seed", type=at_least(0), default=0)
    p.add_argument("--variant", default="complementary", choices=["complementary", "single"])
    p.add_argument("--signal", type=finite, default=1.0)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_threads(args.threads, allow_reexec=argv is None)
        if "config" not in args:  # gsea and synth
            return args.run(args)
        overrides = {"": {"output_dir": args.out, "log_level": args.log_level},
                     "training": {"seed": args.seed}}
        if args.command == "ablate":
            overrides["ablation"] = {"mode": args.mode, "fraction": args.fraction,
                                     "seeds": args.seeds}
        return args.run(load_config(args.config, overrides), args)
    except (_UsageError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileNotFoundError, IsADirectoryError) as err:  # a path given by a flag
        what = "file not found" if isinstance(err, FileNotFoundError) else "is a directory"
        print(f"error: {err.filename}: {what}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
