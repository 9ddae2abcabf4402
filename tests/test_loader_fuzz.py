"""Fuzzed input to the text readers: the feature matrix and ranking CSVs, the
tab-separated layer edge lists, labels and GMT gene sets, and the explain
JSON that ``mgnn gsea --ranked`` reads.

Any bytes either load or raise a DataError naming the file (through the
command line: exit 0 or 2, never a traceback); a features file with
injected defects reports the first one in file order.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilayer_gnn import analysis as an
from multilayer_gnn import cli
from multilayer_gnn import data as dm
from multilayer_gnn import synth
from multilayer_gnn.errors import DataError

GENES = ["A", "B", "C", "group"]
TOKENS = ["A", "B", "C", "Z", "gene", "score", "group", "f1", ",", ",", "\n", "\r\n", "\r", '"',
          " ", "", "#", "1", "-2.5", "1_0", "0x1", "inf", "nan", "1e999", "oops", "\xe9", "\x00"]

csv_like = st.lists(st.sampled_from(TOKENS), max_size=40).map(lambda t: "".join(t).encode())
any_bytes = st.binary(max_size=80) | csv_like | st.tuples(csv_like, st.binary(max_size=3),
                                                          csv_like).map(b"".join)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_fuzz")


def loads_or_names_the_file(load, path, raw):
    path.write_bytes(raw)
    try:
        load(str(path))
    except DataError as err:
        assert err.path == str(path)


@settings(max_examples=500, deadline=None)
@given(raw=any_bytes)
def test_any_feature_bytes_load_or_name_the_file(fuzz_dir, raw):
    loads_or_names_the_file(lambda p: dm.load_feature_matrix(p, dm.GeneCatalog(GENES)),
                            fuzz_dir / "features.csv", raw)


@settings(max_examples=500, deadline=None)
@given(raw=any_bytes)
def test_any_ranking_bytes_load_or_name_the_file(fuzz_dir, raw):
    loads_or_names_the_file(an.load_ranking_csv, fuzz_dir / "ranking.csv", raw)


@pytest.mark.parametrize("load", [lambda p: dm.load_feature_matrix(p, dm.GeneCatalog(["A"])),
                                  an.load_ranking_csv], ids=["features", "ranking"])
def test_field_over_the_csv_limit_names_the_file_and_line(tmp_path, load):
    path = tmp_path / "big.csv"
    path.write_text("gene,score\nA," + "1" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(DataError, match=r"big\.csv:2: field larger than field limit"):
        load(str(path))


def test_ranking_duplicate_gene_names_its_line(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("gene,score\nA,1\nB,2\nA,3\n")
    with pytest.raises(DataError, match=r"r\.csv:4: duplicate gene 'A'"):
        an.load_ranking_csv(str(path))


# each defect kind and the start of the message it must raise
DEFECTS = {
    "fields": "expected",
    "unknown": "gene 'ZZ' not in catalog",
    "duplicate": "duplicate feature row",
    "non-numeric": "non-numeric cell",
    "non-finite": "non-finite cell",
}


@st.composite
def defective_features(draw):
    """(CSV text, catalog genes, line and message start of the first defect)."""
    d = draw(st.integers(1, 3))
    genes = [f"G{i}" for i in range(draw(st.integers(0, 5)))]
    records = [["gene"] + [f"f{j}" for j in range(d)]]
    if draw(st.booleans()):
        records.append(["group"] + draw(st.lists(st.sampled_from("ab"), min_size=d, max_size=d)))
    head = len(records)  # the header and group rows
    cell = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    for gene in genes:
        if draw(st.booleans()):
            records.append([])
        records.append([gene] + draw(st.lists(cell, min_size=d, max_size=d)))

    defects = []  # (line, kind), first in file order first
    spare = iter(f"X{i}" for i in range(2))  # catalog genes that no other row names
    start = head
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(start, len(records)))
        kind = draw(st.sampled_from(sorted(DEFECTS)))
        named = [r[0] for r in records[head:at] if r]
        if kind == "duplicate" and not named:
            kind = "unknown"
        good = draw(st.lists(cell, min_size=d, max_size=d))
        if kind == "fields":
            row = [next(spare)] + (good + ["1"] if draw(st.booleans()) else good[:-1])
        elif kind == "unknown":
            row = ["ZZ"] + good
        elif kind == "duplicate":
            row = [draw(st.sampled_from(named))] + good
        else:
            bad = draw(st.sampled_from(["oops", "", "1,5"] if kind == "non-numeric"
                                       else ["inf", "-inf", "nan", "1e999"]))
            good[draw(st.integers(0, d - 1))] = bad
            row = [next(spare)] + good
        records.insert(at, row)
        defects.append((at + 1, kind))
        start = at + 1

    out = io.StringIO(newline="")
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    csv.writer(out, quoting=quoting, lineterminator=newline).writerows(records)
    line, kind = defects[0]
    return out.getvalue(), genes + ["X0", "X1"], line, DEFECTS[kind]


@settings(max_examples=400, deadline=None)
@given(case=defective_features())
def test_first_defect_in_file_order_is_reported(fuzz_dir, case):
    text, genes, line, message = case
    path = fuzz_dir / "defective.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(DataError) as err:
        dm.load_feature_matrix(str(path), dm.GeneCatalog(genes))
    assert err.value.line == line
    assert str(err.value).startswith(f"{path}:{line}: {message}")


TSV_TOKENS = ["A", "B", "C", "Z", "set1", "desc", "\t", "\t", "\t", " ", "\n", "\r\n", "\r", "#",
              "", "0", "1", "2", "-1", "yes", "\xe9", "\x00", "\ufeff"]
JSON_TOKENS = ["{", "}", "[", "]", ":", ",", '"top_neighbors"', '"gene"', '"importance"', '"A"',
               '"B"', '""', "0", "1", "-2.5", "1e999", "NaN", "Infinity", "null", "true", " ",
               '"\\ud800"', "\xe9", "\x00"]


def token_bytes(tokens):
    return st.lists(st.sampled_from(tokens), max_size=40).map(lambda t: "".join(t).encode())


def with_noise(text_like):
    return st.binary(max_size=80) | text_like | st.tuples(
        text_like, st.binary(max_size=3), text_like).map(b"".join)


tsv_bytes = with_noise(token_bytes(TSV_TOKENS))

json_leaf = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
             | st.sampled_from(["A", "B", "C", "", " ", "\x00"]))
json_value = st.recursive(json_leaf, lambda inner: (
    st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["gene", "importance", "top_neighbors", "x"]), inner,
                      max_size=3)), max_leaves=10)
good_neighbor = st.fixed_dictionaries(
    {"gene": st.sampled_from(["A", "B", "C", "Z"]), "importance": st.floats(-2, 2)})
neighbor = good_neighbor | st.dictionaries(st.sampled_from(["gene", "importance", "x"]),
                                           st.sampled_from(["A", "B", "C", ""]) | json_value,
                                           max_size=3)
explain_json = st.fixed_dictionaries(
    {"top_neighbors": st.lists(good_neighbor, min_size=1, max_size=3)
     | st.lists(neighbor, max_size=4) | json_value},
    optional={"gene": json_value}).map(lambda d: json.dumps(d).encode())
json_bytes = with_noise(token_bytes(JSON_TOKENS)) | explain_json


@settings(max_examples=400, deadline=None)
@given(raw=tsv_bytes)
def test_any_layer_bytes_load_or_name_the_file(fuzz_dir, raw):
    loads_or_names_the_file(lambda p: dm.load_layer_graph(p, dm.GeneCatalog(["A", "B", "C"]), "L"),
                            fuzz_dir / "layer.tsv", raw)


@settings(max_examples=400, deadline=None)
@given(raw=tsv_bytes)
def test_any_label_bytes_load_or_name_the_file(fuzz_dir, raw):
    loads_or_names_the_file(lambda p: dm.load_labels(p, dm.GeneCatalog(["A", "B", "C"])),
                            fuzz_dir / "labels.tsv", raw)


@settings(max_examples=400, deadline=None)
@given(raw=tsv_bytes)
def test_any_gene_set_bytes_load_or_name_the_file(fuzz_dir, raw):
    loads_or_names_the_file(dm.load_gene_sets, fuzz_dir / "sets.gmt", raw)


@pytest.fixture(scope="module")
def gene_sets(fuzz_dir):
    path = fuzz_dir / "gsea_sets.gmt"
    path.write_text("S1\tdesc\tA\tB\tC\tZ\nS2\tdesc\tC\n")  # S1 meets every ranking
    return path


@settings(max_examples=300, deadline=None)
@given(raw=json_bytes)
def test_any_explain_json_bytes_exit_0_or_2_naming_the_file(fuzz_dir, gene_sets, raw):
    path = fuzz_dir / "explain_A.json"
    path.write_bytes(raw)
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = cli.main(["gsea", "--ranked", str(path), "--gene-sets", str(gene_sets),
                         "--permutations", "2", "--out", str(fuzz_dir / "gsea")])
    err = stderr.getvalue()
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert f"error: {path}: " in err


@pytest.mark.parametrize("command", ["gsea", "train"])
def test_json_nested_too_deep_names_the_file(tmp_path, gene_sets, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    if command == "gsea":
        argv, code = ["gsea", "--ranked", path, "--gene-sets", gene_sets], 2
    else:
        argv, code = ["train", "--config", path], 1
    assert cli.main([str(a) for a in argv + ["--out", tmp_path / "out"]]) == code
    err = capsys.readouterr().err
    assert f"error: {path}: not valid JSON" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the bulk route and the line-by-line route agree
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def planted_files(tmp_path_factory):
    """Text files of three small planted datasets and the gene names of each."""
    out = []
    for seed, (n_genes, n_layers) in enumerate([(12, 1), (40, 2), (90, 3)]):
        dataset, truth = synth.planted_dataset(n_genes=n_genes, n_layers=n_layers, n_features=5,
                                               community_size=6, seed=seed)
        paths = synth.write_planted(tmp_path_factory.mktemp(f"planted{seed}"), dataset, truth)
        files = {"features": paths["features"], "labels": paths["labels"],
                 "layers": [e["path"] for e in paths["layers"]]}
        out.append(({k: [Path(p).read_text() for p in v] if k == "layers"
                     else Path(v).read_text() for k, v in files.items()},
                    dataset.catalog.names))
    return out


def outcome(load):
    """What ``load()`` returns, or the message of the DataError it raises."""
    try:
        return load()
    except DataError as err:
        return str(err)


def both_routes(load, block):
    """``outcome(load)`` with every block on its bulk route if it qualifies,
    then with every block read line by line, blocks of ``block`` characters."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dm, "BLOCK_CHARS", block)
        bulk = outcome(load)
        mp.setattr(dm, "_pairs_in_bulk", lambda lines: None)
        mp.setattr(dm, "_labels_in_bulk", lambda labels, gids, tags: False)
        mp.setattr(dm, "_features_in_bulk", lambda lines, d, index, seen: None)
        return bulk, outcome(load)


def edited(text, sep, tokens, data):
    """The bytes of ``text`` with up to three edits, each a field of a line
    (split at ``sep``) set to a token, a token put in anywhere or as a line
    of its own, or a copy of a nearby line put in; maybe cut short."""
    lines = text.splitlines(keepends=True)
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        token = data.draw(st.sampled_from(tokens))
        how = data.draw(st.sampled_from(["field", "insert", "line", "copy"]))
        if how == "field":
            fields = lines[i].rstrip("\n").split(sep)
            fields[data.draw(st.integers(0, len(fields) - 1))] = token
            lines[i] = sep.join(fields) + "\n"
        elif how == "insert":
            at = data.draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + token + lines[i][at:]
        elif how == "line":
            lines.insert(i, token + "\n")
        else:
            near = st.integers(max(i - 3, 0), min(i + 3, len(lines) - 1))
            lines.insert(i, lines[data.draw(near)])
    text = "".join(lines)
    if data.draw(st.integers(0, 3)) == 0:
        text = text[:data.draw(st.integers(0, len(text)))]
    return text.encode()


# fields and lines that a bulk route must turn down, or read as the
# line-by-line route does, in the planted files (5 features, genes G0000...)
CELLS = ["inf", "1e999", "oops", "", " 1 ", "1_0", "\xa02", '"3"', '"4\n5"', "6\r", "G0001",
         " G0002 ", "\n", "G0001,1,2,3,4,5", "G0002,1,2,3,4"]
NAMES = ["G0001", " G0002", "#G0003", "G 1", "", "\t", "\n", "\r", "G0002\tG0003",
         "#G0002\tG0003"]
LABELS = ["G0001", "Z", "", "0", "1", " 1", "G0001\t0", "G0001\t1", "#G0001\t1"]


blocks = st.sampled_from([1, 64, 300, 2000, 1 << 16])


@settings(max_examples=400, deadline=None)
@given(data=st.data(), block=blocks)
def test_feature_routes_agree(fuzz_dir, planted_files, data, block):
    source = data.draw(st.sampled_from(["bytes", "defective", "planted", "planted"]))
    if source == "bytes":
        raw, genes = data.draw(any_bytes), GENES
    elif source == "defective":
        text, genes, _, _ = data.draw(defective_features())
        raw = text.encode("utf-8")
    else:
        files, genes = data.draw(st.sampled_from(planted_files))
        raw = edited(files["features"], ",", CELLS, data)
    path = fuzz_dir / "routes.csv"
    path.write_bytes(raw)

    def load():
        catalog = dm.GeneCatalog(genes)
        fm = dm.load_feature_matrix(str(path), catalog)
        return (catalog.names, fm.values.tobytes(), fm.feature_names, fm.omic_group,
                fm.missing)

    bulk, by_line = both_routes(load, block)
    assert bulk == by_line


@settings(max_examples=600, deadline=None)
@given(data=st.data(), block=blocks)
def test_layer_and_label_routes_agree(fuzz_dir, planted_files, data, block):
    if data.draw(st.integers(0, 2)) == 0:
        layer, labels, genes = data.draw(tsv_bytes), data.draw(tsv_bytes), ["A", "B", "C"]
    else:
        files, genes = data.draw(st.sampled_from(planted_files))
        layer = edited(data.draw(st.sampled_from(files["layers"])), "\t", NAMES, data)
        labels = edited(files["labels"], "\t", LABELS, data)
    layer_path, label_path = fuzz_dir / "routes.tsv", fuzz_dir / "routes_labels.tsv"
    layer_path.write_bytes(layer)
    label_path.write_bytes(labels)
    known = data.draw(st.integers(0, len(genes)))  # catalog genes before the layer loads

    def load_layer():
        catalog = dm.GeneCatalog(genes[:known])
        lg = dm.load_layer_graph(str(layer_path), catalog, "L")
        return (catalog.names, lg.node_ids.tobytes(), lg.edges.tobytes(),
                lg.csr_indptr.tobytes(), lg.csr_indices.tobytes())

    def load_labels():
        return list(dm.load_labels(str(label_path), dm.GeneCatalog(genes)).labels.items())

    for load in (load_layer, load_labels):
        bulk, by_line = both_routes(load, block)
        assert bulk == by_line
