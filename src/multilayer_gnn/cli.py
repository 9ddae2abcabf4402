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

def _read_json(path, error):
    """The parsed JSON file at ``path``; an ``error`` naming it if it does not parse."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:  # not UTF-8, or not JSON
        raise error(f"{path}: not valid JSON ({err})") from err


def load_config(path, overrides=None) -> dict:
    """Parse, default-fill, and check a run configuration.

    ``overrides`` maps a section name, or ``""`` for the top level, to the
    fields that command-line flags set; those that are not None replace the
    file's values before the check.
    """
    from .config import RunConfig, check_section
    from .errors import ConfigError

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
    _setup_logging(cfg["log_level"], outdir)
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
    from .config import GnnConfig

    outdir = _outdir(cfg)
    _setup_logging(cfg["log_level"], outdir)
    dataset = _load_dataset(cfg)
    model_cfg = GnnConfig(**cfg["model"])
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


def _load_checkpoint_for(checkpoint_path, dataset):
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
    from .errors import ConfigError, DataError
    from .gnn import forward

    outdir = _outdir(cfg)
    _setup_logging(cfg["log_level"], outdir)
    dataset = _load_dataset(cfg)
    params, model_cfg, _ = _load_checkpoint_for(checkpoint, dataset)
    t = cfg["training"]
    if split_path:
        try:
            split = tr.SplitSpec.from_dict(_read_json(split_path, DataError))
        except ConfigError as err:
            raise DataError(f"{split_path}: {err}") from err
        unlabeled = {*split.test_ids, *split.train_ids, *split.val_ids} - set(dataset.labels.labels)
        if unlabeled:
            raise DataError(f"{split_path}: gene id {min(unlabeled)} is not a labeled gene")
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


def _read_genes_file(path):
    """The lines of a ``--genes-file``; a byte that is not UTF-8 is a DataError."""
    from .data import utf8_error

    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise utf8_error(path) from None


def _explain_filename(gene: str) -> str:
    """``explain_<gene>.json``, with only '%' and '/' percent-encoded so that
    every gene name maps to its own file inside the output directory."""
    return "explain_" + gene.replace("%", "%25").replace("/", "%2F") + ".json"


def cmd_explain(cfg, checkpoint, genes) -> int:
    """Explain each named gene once, in the order first named.

    ``run.log`` gets each gene's wall time and its feature-IG completeness
    gap ``|sum of attributions - (F(x) - F(0))|``.
    """
    from . import analysis as an
    from . import explain as ex
    from .gnn import prepare

    outdir = _outdir(cfg)
    _setup_logging(cfg["log_level"], outdir)
    repeats = [name for name, count in Counter(genes).items() if count > 1]
    if repeats:
        logger.warning("explaining once each gene named more than once: %s", ", ".join(repeats))
        genes = list(dict.fromkeys(genes))
    dataset = _load_dataset(cfg)
    params, model_cfg, _ = _load_checkpoint_for(checkpoint, dataset)
    gene_ids = _resolve_genes(dataset, genes)
    steps = cfg["explain"]["steps"]
    scope = cfg["explain"]["edge_ig_scope"]
    prep = prepare(model_cfg, dataset)
    _echo_config(cfg, outdir)
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


def cmd_discover(cfg, checkpoint, threshold=None, precision_target=0.95) -> int:
    from . import analysis as an

    outdir = _outdir(cfg)
    _setup_logging(cfg["log_level"], outdir)
    dataset = _load_dataset(cfg)
    params, model_cfg, _ = _load_checkpoint_for(checkpoint, dataset)
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


@dataclass(frozen=True)
class _Neighbor:
    """One entry of an explain JSON's ``top_neighbors`` list."""

    gene: str
    importance: float


def _ranked_from_file(path):
    from . import analysis as an
    from .config import check_section
    from .errors import ConfigError, DataError

    path = Path(path)
    if path.suffix == ".json":
        payload = _read_json(path, DataError)
        entries = payload.get("top_neighbors") if isinstance(payload, dict) else None
        if not isinstance(entries, list) or not entries:
            raise DataError("explain JSON has no top_neighbors section", path=str(path))
        try:
            entries = [check_section(_Neighbor, entry, f"top_neighbors[{i}]")
                       for i, entry in enumerate(entries)]
        except ConfigError as err:
            raise DataError(f"field {err}", path=str(path)) from err
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


def cmd_ablate(cfg) -> int:
    import numpy as np

    from . import training as tr
    from .config import GnnConfig
    from .data import perturb_features, remove_edges

    outdir = _outdir(cfg)
    _setup_logging(cfg["log_level"], outdir)
    base = _load_dataset(cfg)
    model_cfg = GnnConfig(**cfg["model"])
    t = cfg["training"]
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
    from .config import RunConfig, check_section

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _setup_logging(log_level, outdir)
    dataset, truth = synth.planted_dataset(
        n_genes=n_genes, n_layers=n_layers, n_features=n_features,
        seed=seed, variant=variant, signal_strength=signal,
    )
    sets = synth.planted_gene_sets(truth, seed=seed)
    paths = synth.write_planted(outdir, dataset, truth, sets)
    config = check_section(RunConfig, {
        "paths": {key: paths[key] for key in ("layers", "features", "labels", "gene_sets")},
        "training": {"seed": seed, "test_layer": dataset.layers[0].layer_name},
        "output_dir": str(outdir / "run"),
    }, "", omit=("activation", "log_level"))  # the log level is left to the flag
    _write_json(outdir / "config.json", config)
    logger.info("wrote planted dataset (%d genes, %d layers) under %s",
                n_genes, n_layers, outdir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser():
    from .config import LOG_LEVELS

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
    p.add_argument("--threshold", type=finite, default=None,
                   help="skip threshold selection and use this value")
    p.add_argument("--precision-target", type=fraction, default=0.95)

    p = sub.add_parser("gsea", help="preranked enrichment of a gene list")
    p.add_argument("--ranked", required=True,
                   help="ranking CSV (gene,score) or an explain output JSON")
    p.add_argument("--gene-sets", required=True, help="GMT file")
    p.add_argument("--permutations", type=at_least(0), default=1000)
    p.add_argument("--seed", type=at_least(0), default=0)
    p.add_argument("--out", default="out")

    p = with_config(sub.add_parser("ablate", help="train under input perturbations"))
    p.add_argument("--mode", default=None, help="overrides ablation.mode")
    p.add_argument("--fraction", type=float, default=None, help="overrides ablation.fraction")
    p.add_argument("--seeds", type=integers, default=None,
                   help="comma-separated run seeds; overrides ablation.seeds")

    p = sub.add_parser("synth", help="generate a planted dataset")
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
    from .errors import CheckpointError, ConfigError, DataError, NumericError

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_threads(args.threads, allow_reexec=argv is None)

        if args.command == "gsea":
            return cmd_gsea(args.ranked, args.gene_sets, args.permutations,
                            args.seed, args.out, args.log_level or "info")
        if args.command == "synth":
            return cmd_synth(args.out, args.n_genes, args.n_layers, args.n_features,
                             args.seed, args.variant, args.signal, args.log_level or "info")

        overrides = {"": {"output_dir": args.out, "log_level": args.log_level},
                     "training": {"seed": args.seed}}
        if args.command == "ablate":
            overrides["ablation"] = {"mode": args.mode, "fraction": args.fraction,
                                     "seeds": args.seeds}
        cfg = load_config(args.config, overrides)
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
                genes += [line.strip() for line in _read_genes_file(args.genes_file)
                          if line.strip()]
            if not genes:
                raise _UsageError("explain needs --genes or --genes-file")
            return cmd_explain(cfg, args.checkpoint, genes)
        if args.command == "discover":
            return cmd_discover(cfg, args.checkpoint, args.threshold, args.precision_target)
        if args.command == "ablate":
            return cmd_ablate(cfg)
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
    except (FileNotFoundError, IsADirectoryError) as err:  # a path given by a flag
        what = "file not found" if isinstance(err, FileNotFoundError) else "is a directory"
        print(f"error: {err.filename}: {what}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
