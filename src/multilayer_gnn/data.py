"""Aligned multilayer dataset: gene catalog, layer graphs, features, labels.

Input formats (all UTF-8; a line ends at LF, CRLF or a lone CR; an error
names the file and the physical line; a byte that is not UTF-8 is reported
before any other defect, wherever it is):
  edge list    whitespace-separated gene pairs, one per line, '#' comments
  features     CSV with header row ``gene,<name>,...``; an optional second
               record whose first cell is ``group`` tags each feature with
               an omic group. The first bad row or cell in file order is
               the error
  labels       ``gene<TAB>0|1``
  gene sets    GMT (set name, description, members, tab-separated)

Edge lists, labels and features are read in blocks of whole lines
(``BLOCK_CHARS``). A block of plain lines is parsed with a few string and
numpy calls; any other block is read line by line, and only that route
raises errors, so the two routes give the same result.

Self-loops are never stored on a layer graph; degree-based normalization
adds them later. Edge lists are undirected and deduplicated to a canonical
(min, max) sorted form.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import logging
import math
import re
from itertools import chain, compress, repeat

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

POSITIVE, NEGATIVE = 1, 0

# text loaders read whole lines in blocks of about this many characters
BLOCK_CHARS = 1 << 16


class GeneCatalog:
    """Ordered set of unique gene names with stable integer ids.

    Mutable while inputs are being loaded (loaders append unseen genes);
    treated as frozen once a dataset is assembled.
    """

    def __init__(self, names=()):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        got = self.index.get(name)
        if got is not None:
            return got
        gid = len(self.names)
        self.names.append(name)
        self.index[name] = gid
        return gid

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self.index


def _sorted_unique(values):
    """``np.unique`` of a 1-D integer array, by one sort."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class LayerGraph:
    """One undirected gene-gene interaction network over catalog ids.

    ``node_ids`` is the sorted set of catalog ids present in this layer
    (isolated nodes are allowed); ``edges`` is the canonical deduplicated
    (min, max) pair list. A CSR adjacency over layer-local ids is built on
    construction.
    """

    def __init__(self, layer_name: str, node_ids, edges):
        self.layer_name = layer_name
        self.node_ids = _sorted_unique(np.asarray(node_ids, dtype=np.intp).ravel())
        n = self.node_ids.size
        edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        if edges.size:
            if (edges[:, 0] == edges[:, 1]).any():
                raise DataError(f"layer {layer_name!r}: self-loops are not storable")
            # one int64 key per (min, max) pair: sorting the keys sorts the pairs
            lo = np.minimum(edges[:, 0], edges[:, 1]).astype(np.int64)
            hi = np.maximum(edges[:, 0], edges[:, 1]).astype(np.int64)
            base = int(lo.min())
            span = int(hi.max()) - base + 1
            key = _sorted_unique((lo - base) * span + (hi - base))
            edges = np.stack([key // span, key % span], axis=1).astype(np.intp) + base
            local = np.searchsorted(self.node_ids, edges)
            found = local < n
            found[found] = self.node_ids[local[found]] == edges[found]
            if not found.all():
                raise DataError(
                    f"layer {layer_name!r}: edge endpoint {edges[~found].min()} not in node set"
                )
        self.edges = edges

        # layer-local CSR over both edge directions, rows and columns ascending
        if self.edges.size:
            u, v = local[:, 0], local[:, 1]
            key = np.sort(np.concatenate([u * n + v, v * n + u]))
            dst, src = key // n, key % n
        else:
            dst = src = np.empty(0, dtype=np.intp)
        self.csr_indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(dst, minlength=n), out=self.csr_indptr[1:])
        self.csr_indices = src

    @property
    def n_nodes(self):
        return int(self.node_ids.size)

    @property
    def n_edges(self):
        return int(self.edges.shape[0])

    def contains(self, gene_id: int) -> bool:
        i = np.searchsorted(self.node_ids, gene_id)
        return i < self.node_ids.size and self.node_ids[i] == gene_id

    def local_id(self, gene_id: int) -> int:
        i = int(np.searchsorted(self.node_ids, gene_id))
        if i >= self.node_ids.size or self.node_ids[i] != gene_id:
            raise KeyError(f"gene {gene_id} not in layer {self.layer_name!r}")
        return i

    def degrees(self) -> np.ndarray:
        return np.diff(self.csr_indptr)

    def neighbors(self, gene_id: int) -> np.ndarray:
        """Catalog ids of the one-hop neighbors of ``gene_id`` in this layer."""
        i = self.local_id(gene_id)
        loc = self.csr_indices[self.csr_indptr[i]:self.csr_indptr[i + 1]]
        return self.node_ids[loc]


class FeatureMatrix:
    def __init__(self, values, feature_names, omic_group=None, missing=()):
        self.values = np.asarray(values, dtype=np.float64)
        self.feature_names = list(feature_names)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.feature_names):
            raise DataError("feature matrix shape does not match feature names")
        if not np.isfinite(self.values).all():
            raise DataError("feature matrix contains non-finite values")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError("duplicate feature names")
        self.omic_group = list(omic_group) if omic_group is not None else ["default"] * len(self.feature_names)
        if len(self.omic_group) != len(self.feature_names):
            raise DataError("omic group row length does not match feature names")
        self.missing = tuple(missing)  # catalog genes absent from the file

    @property
    def n_features(self):
        return len(self.feature_names)


class LabelSet:
    """Partial gene id -> {0, 1} map; unlabeled genes are simply absent."""

    def __init__(self, labels: dict[int, int]):
        bad = [v for v in labels.values() if v not in (POSITIVE, NEGATIVE)]
        if bad:
            raise DataError(f"labels must be 0 or 1, got {bad[0]!r}")
        self.labels = dict(labels)

    def labeled_ids(self):
        return np.array(sorted(self.labels), dtype=np.intp)

    def positive_ids(self):
        return np.array(sorted(g for g, y in self.labels.items() if y == POSITIVE), dtype=np.intp)

    def negative_ids(self):
        return np.array(sorted(g for g, y in self.labels.items() if y == NEGATIVE), dtype=np.intp)

    def __len__(self):
        return len(self.labels)

    def get(self, gene_id, default=None):
        return self.labels.get(gene_id, default)


class MultilayerDataset:
    """K layer graphs over one catalog, plus one feature matrix and labels."""

    def __init__(self, catalog: GeneCatalog, layers, features: FeatureMatrix, labels: LabelSet):
        layers = tuple(layers)
        if not layers:
            raise DataError("a dataset needs at least one layer graph")
        names = [lg.layer_name for lg in layers]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate layer names: {names}")
        n = len(catalog)
        for lg in layers:
            if lg.node_ids.size and lg.node_ids.max() >= n:
                raise DataError(f"layer {lg.layer_name!r} references id outside catalog")
        if features.values.shape[0] != n:
            raise DataError(
                f"feature rows ({features.values.shape[0]}) != catalog size ({n})"
            )
        for g in labels.labels:
            if not 0 <= g < n:
                raise DataError(f"label references id {g} outside catalog")
        self.catalog = catalog
        self.layers = layers
        self.features = features
        self.labels = labels

    @property
    def n_genes(self):
        return len(self.catalog)

    @property
    def n_layers(self):
        return len(self.layers)

    def layer_by_name(self, name: str) -> LayerGraph:
        for lg in self.layers:
            if lg.layer_name == name:
                return lg
        raise DataError(f"no layer named {name!r}")

    def subset_layers(self, names) -> "MultilayerDataset":
        """Same catalog/features/labels restricted to the named layers."""
        keep = [self.layer_by_name(n) for n in names]
        return MultilayerDataset(self.catalog, keep, self.features, self.labels)


class GeneSetCollection:
    def __init__(self, sets: dict[str, list[str]], description: dict[str, str]):
        for name, members in sets.items():
            if not members:
                raise DataError(f"gene set {name!r} is empty")
        self.sets = dict(sets)
        self.description = dict(description)

    def __len__(self):
        return len(self.sets)


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------

def utf8_error(path) -> DataError | None:
    """A DataError naming the line of the first byte of ``path`` that is not
    UTF-8, or None if every byte is.

    Text readers decode in blocks, so the error they raise cannot say which
    line failed; this decodes the whole file again to find it. Lines end at
    LF, CR or CRLF, as in a text reader opened with ``newline=""``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as err:
        head = raw[:err.start].decode("utf-8")
        line = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
        return DataError(f"not valid UTF-8 (byte 0x{raw[err.start]:02x})", path=path, line=line)
    return None


def _data_lines(lines, first=1):
    """(line number, line) of every line of ``lines``, the first numbered
    ``first``, that is neither blank nor a '#' comment; both may be indented."""
    for lineno, raw in enumerate(lines, start=first):
        line = raw.rstrip("\r\n")
        head = line.lstrip()
        if head and head[0] != "#":
            yield lineno, line


@contextlib.contextmanager
def utf8_first(path):
    """Turn any DataError or decoding error into one naming the first byte of
    ``path`` that is not UTF-8, if there is one, wherever it is."""
    try:
        yield
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    except DataError as err:
        raise utf8_error(path) or err from None


def _two_columns(line, path, lineno):
    """Split on the tab if the line has exactly one, else on whitespace. A
    field that is empty or only whitespace is an error; other spaces stay."""
    fields = line.split("\t")
    if len(fields) != 2:
        fields = line.split()
    if len(fields) != 2:
        raise DataError(f"expected 2 columns, got {len(fields)}", path=path, line=lineno)
    for col, field in enumerate(fields, start=1):
        if not field.strip():
            raise DataError(f"empty field {field!r} (column {col})", path=path, line=lineno)
    return fields


# lines that are each 'name<TAB>name', with no other whitespace and no leading '#'
_NAME_PAIRS = re.compile(r"(?:[^\s#]\S*\t\S+\n)*(?:[^\s#]\S*\t\S+)?")


def _pairs_in_bulk(lines):
    """Both names of every line, flat in file order, if ``_NAME_PAIRS``
    matches the lines; else None."""
    text = "".join(lines)
    return text.split() if _NAME_PAIRS.fullmatch(text) else None


def _two_column_blocks(path):
    """(line numbers, fields) per block of a two-column file: the numbers of
    its data lines and both fields of each, flat in file order. A block that
    ``_pairs_in_bulk`` refuses is read line by line; a bad line's error is
    raised after the lines before it are yielded."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = 1
        while lines := fh.readlines(BLOCK_CHARS):
            fields = _pairs_in_bulk(lines)
            if fields is not None:
                yield range(first, first + len(lines)), fields
            else:
                linenos, fields = [], []
                try:
                    for lineno, line in _data_lines(lines, first):
                        fields += _two_columns(line, path, lineno)
                        linenos.append(lineno)
                except DataError:
                    yield linenos, fields  # the lines before the bad one come first
                    raise
                yield linenos, fields
            first += len(lines)


def load_layer_graph(path, catalog: GeneCatalog, layer_name: str) -> LayerGraph:
    """Parse an edge list; unseen gene names are appended to the catalog in
    the order they first appear.

    Undirected duplicates (including reversed pairs) collapse to one edge;
    self-loop lines register the node but store no edge.
    """
    names = []  # both endpoints of every data line, in file order
    with utf8_first(path):
        for _, fields in _two_column_blocks(path):
            names += fields
    if not names:
        raise DataError("edge file contains no edges", path=path)
    for name in dict.fromkeys(names):
        catalog.add(name)
    pairs = np.fromiter(map(catalog.index.__getitem__, names), dtype=np.intp,
                        count=len(names)).reshape(-1, 2)
    return LayerGraph(layer_name, pairs.ravel(), pairs[pairs[:, 0] != pairs[:, 1]])


def _cell_error(row, lineno, path):
    """DataError naming the first cell of ``row`` that is not a finite float;
    ``row`` must have one."""
    for col, cell in enumerate(row[1:], start=2):
        try:
            val = float(cell)
        except ValueError:
            return DataError(f"non-numeric cell {cell!r} (column {col})", path=path, line=lineno)
        if not math.isfinite(val):
            return DataError(f"non-finite cell {cell!r} (column {col})", path=path, line=lineno)


def _check_names(cells, what, path, lineno):
    """Raise a DataError naming the first of ``cells`` (CSV columns 2 on)
    that is empty or only whitespace."""
    for col, cell in enumerate(cells, start=2):
        if not cell.strip():
            raise DataError(f"empty {what} {cell!r} (column {col})", path=path, line=lineno)


def csv_records(lines, path, base):
    """(row, physical line it ends on) of each CSV record of ``lines``, whose
    first line is ``base + 1``; a csv.Error is a DataError naming its line."""
    rows = csv.reader(lines)
    try:
        for row in rows:
            yield row, base + rows.line_num
    except csv.Error as err:
        raise DataError(str(err), path=path, line=base + rows.line_num) from None


def _features_in_bulk(lines, d, index, seen):
    """(catalog ids, values) of a block of feature rows if every line is a
    plain record (``d`` commas, a closing LF, no quote, no CR, no field over
    the CSV field limit) of a catalog gene not seen before with ``d`` finite
    cells; else None."""
    text = "".join(lines)
    if ('"' in text or "\r" in text or text.count("\n") != len(lines)
            or set(map(str.count, lines, repeat(","))) != {d}):
        return None
    cells = text.replace("\n", ",").split(",")
    cells.pop()  # the empty string after the last LF
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, cells)) > limit:  # no field outgrows its block
        return None
    gids = list(map(index.get, map(str.strip, cells[::d + 1])))
    if None in gids or len(set(gids)) != len(gids):
        return None
    gids = np.array(gids, dtype=np.intp)
    if seen[gids].any():
        return None
    del cells[::d + 1]
    try:
        values = np.array(cells, dtype=np.float64).reshape(-1, d)
    except ValueError:
        return None
    return (gids, values) if np.isfinite(values).all() else None


def load_feature_matrix(path, catalog: GeneCatalog) -> FeatureMatrix:
    """Parse a feature CSV and reorder rows to catalog order.

    Catalog genes missing from the file receive all-zero rows (counted on
    ``FeatureMatrix.missing``); genes in the file but not in the catalog are
    an error. The error raised is the first bad row or cell in file order,
    naming the physical line the row ends on, unless some byte of the file
    is not UTF-8: that is reported first, wherever it is.

    The header and the second record are read with ``csv``; the rest in
    blocks of lines. A block ``_features_in_bulk`` takes is parsed with a few
    string and numpy calls; any other block is read record by record with
    ``csv``, and that route raises every error.
    """
    n = len(catalog)
    index = catalog.index
    seen = np.zeros(n, dtype=bool)
    omic_group = None
    with open(path, "r", encoding="utf-8", newline="") as fh, utf8_first(path):
        head = csv_records(fh, path, 0)
        header, line = next(head, (None, 0))
        if header is None:
            raise DataError("feature file is empty", path=path)
        if len(header) < 2:
            raise DataError("feature header needs a gene column and at least one feature",
                            path=path)
        _check_names(header[1:], "feature name", path, line)
        feature_names = [c.strip() for c in header[1:]]
        d = len(feature_names)
        if len(set(feature_names)) != d:
            raise DataError("duplicate feature names", path=path, line=line)
        values = np.zeros((n, d))

        def add_row(row, lineno):
            if not row or (len(row) == 1 and not row[0].strip()):
                return
            if len(row) != d + 1:
                raise DataError(f"expected {d + 1} fields, got {len(row)}", path=path, line=lineno)
            gene = row[0].strip()
            gid = index.get(gene)
            if gid is None:
                raise DataError(f"gene {gene!r} not in catalog", path=path, line=lineno)
            if seen[gid]:
                raise DataError(f"duplicate feature row for gene {gene!r}", path=path, line=lineno)
            seen[gid] = True
            try:
                values[gid] = [float(cell) for cell in row[1:]]
            except ValueError:
                raise _cell_error(row, lineno, path) from None
            if not np.isfinite(values[gid]).all():
                raise _cell_error(row, lineno, path)

        row, line = next(head, ([], line))  # a group row only as the second record
        if row and row[0].strip().lower() == "group":
            if len(row) != d + 1:
                raise DataError("group row length does not match feature count",
                                path=path, line=line)
            _check_names(row[1:], "group tag", path, line)
            omic_group = [c.strip() for c in row[1:]]
        else:
            add_row(row, line)
        while lines := fh.readlines(BLOCK_CHARS):
            bulk = _features_in_bulk(lines, d, index, seen)
            if bulk is not None:
                values[bulk[0]] = bulk[1]
                seen[bulk[0]] = True
                line += len(lines)
                continue
            end = line + len(lines)  # a record may run on past the block
            for row, line in csv_records(chain(lines, fh), path, line):
                add_row(row, line)
                if line >= end:
                    break

    missing = tuple(compress(catalog.names, (~seen).tolist()))
    if missing:
        logger.warning(
            "%d catalog gene(s) missing from %s; zero rows substituted", len(missing), path
        )
    return FeatureMatrix(values, feature_names, omic_group, missing=missing)


def load_labels(path, catalog: GeneCatalog) -> LabelSet:
    labels: dict[int, int] = {}
    with utf8_first(path):
        for linenos, fields in _two_column_blocks(path):
            for lineno, gene, tag in zip(linenos, fields[0::2], fields[1::2]):
                gid = catalog.index.get(gene)
                if gid is None:
                    raise DataError(f"label for unknown gene {gene!r}", path=path, line=lineno)
                if tag not in ("0", "1"):
                    raise DataError(f"label must be 0 or 1, got {tag!r}", path=path, line=lineno)
                val = int(tag)
                if gid in labels and labels[gid] != val:
                    raise DataError(f"conflicting labels for gene {gene!r}", path=path, line=lineno)
                labels[gid] = val
    return LabelSet(labels)


def load_gene_sets(path) -> GeneSetCollection:
    sets: dict[str, list[str]] = {}
    description: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh, utf8_first(path):
        for lineno, line in _data_lines(fh):
            fields = line.split("\t")
            if len(fields) < 3:
                raise DataError(f"GMT line needs set name, description and >=1 member, "
                                f"got {len(fields)} fields", path=path, line=lineno)
            name, desc, *members = fields
            members = [m for m in members if m.strip()]
            if not members:
                raise DataError(f"gene set {name!r} has no members", path=path, line=lineno)
            if name in sets:
                raise DataError(f"duplicate gene set {name!r}", path=path, line=lineno)
            sets[name] = members
            description[name] = desc
    return GeneSetCollection(sets, description)


def load_dataset(layer_specs, features_path, labels_path) -> MultilayerDataset:
    """Load ``[(name, path), ...]`` edge lists, then features, then labels."""
    catalog = GeneCatalog()
    layers = [load_layer_graph(path, catalog, name) for name, path in layer_specs]
    features = load_feature_matrix(features_path, catalog)
    labels = load_labels(labels_path, catalog)
    return MultilayerDataset(catalog, layers, features, labels)


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def subseed(seed: int, tag: str) -> int:
    """Stable seed for the work tagged ``tag`` (a layer or gene set name),
    independent of the order in which the tagged items are visited."""
    digest = hashlib.sha256(f"{seed}\x1f{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def perturb_features(dataset: MultilayerDataset, mode: str, seed: int) -> MultilayerDataset:
    """Replace the feature matrix: 'random' -> seeded standard normals,
    'all_one' -> constant ones. Labels, edges and catalog are untouched."""
    shape = dataset.features.values.shape
    if mode == "random":
        values = np.random.default_rng(seed).standard_normal(shape)
    elif mode == "all_one":
        values = np.ones(shape)
    else:
        raise ValueError(f"unknown perturbation mode {mode!r}")
    features = FeatureMatrix(
        values, dataset.features.feature_names, dataset.features.omic_group
    )
    return MultilayerDataset(dataset.catalog, dataset.layers, features, dataset.labels)


def remove_edges(dataset: MultilayerDataset, fraction: float, seed: int) -> MultilayerDataset:
    """Remove floor(fraction * |E|) edges per layer, sampled without
    replacement from a per-layer subseeded generator. Node sets persist."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    new_layers = []
    for lg in dataset.layers:
        k = int(math.floor(fraction * lg.n_edges + 1e-9))
        if k == 0:
            new_layers.append(lg)
            continue
        rng = np.random.default_rng(subseed(seed, lg.layer_name))
        drop = rng.choice(lg.n_edges, size=k, replace=False)
        keep = np.setdiff1d(np.arange(lg.n_edges), drop)
        new_layers.append(LayerGraph(lg.layer_name, lg.node_ids, lg.edges[keep]))
    return MultilayerDataset(dataset.catalog, new_layers, dataset.features, dataset.labels)


# ---------------------------------------------------------------------------
# writers (round-trip of the canonical forms)
# ---------------------------------------------------------------------------

def write_edge_list(layer: LayerGraph, catalog: GeneCatalog, path):
    names = catalog.names
    covered = np.zeros(len(names), dtype=bool)
    covered[layer.edges] = True
    isolated = layer.node_ids[~covered[layer.node_ids]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{names[u]}\t{names[v]}\n" for u, v in layer.edges.tolist())
        # an isolated node's self-loop line keeps it present
        fh.writelines(f"{names[g]}\t{names[g]}\n" for g in isolated.tolist())


def write_features_csv(features: FeatureMatrix, catalog: GeneCatalog, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gene"] + features.feature_names)
        writer.writerow(["group"] + features.omic_group)
        for gid, name in enumerate(catalog.names):
            writer.writerow([name] + [repr(float(v)) for v in features.values[gid]])


def write_labels_tsv(labels: LabelSet, catalog: GeneCatalog, path):
    with open(path, "w", encoding="utf-8") as fh:
        for gid in sorted(labels.labels):
            fh.write(f"{catalog.names[gid]}\t{labels.labels[gid]}\n")


def write_gene_sets_gmt(collection: GeneSetCollection, path):
    with open(path, "w", encoding="utf-8") as fh:
        for name, members in collection.sets.items():
            desc = collection.description.get(name, "")
            fh.write("\t".join([name, desc] + list(members)) + "\n")
