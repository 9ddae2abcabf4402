"""Edge cases of the text loaders: separators, comments, line endings,
catalog order, CSV quoting, rejected cells and exact round trips."""

import csv

import numpy as np
import pytest

from multilayer_gnn import data as dm
from multilayer_gnn.errors import DataError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_bytes(text.encode("utf-8"))
    return p


def edge_names(lg, catalog):
    return [(catalog.names[u], catalog.names[v]) for u, v in lg.edges]


class TestEdgeListSyntax:
    def test_mixed_tab_and_space_separators(self, tmp_path):
        path = write(tmp_path, "e.tsv", "A\tB\nB C\nC    D\nD\t\tE\n")
        catalog = dm.GeneCatalog()
        lg = dm.load_layer_graph(path, catalog, "L")
        assert catalog.names == ["A", "B", "C", "D", "E"]
        assert edge_names(lg, catalog) == [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")]

    def test_tab_line_keeps_inner_spaces(self, tmp_path):
        path = write(tmp_path, "e.tsv", "gene one\tgene two\ngene two\tG3\n")
        catalog = dm.GeneCatalog()
        lg = dm.load_layer_graph(path, catalog, "L")
        assert catalog.names == ["gene one", "gene two", "G3"]
        assert lg.n_edges == 2

    def test_three_space_separated_names_rejected(self, tmp_path):
        path = write(tmp_path, "e.tsv", "A\tB\ngene one two\n")
        with pytest.raises(DataError, match=r"e\.tsv:2: expected 2 columns, got 3"):
            dm.load_layer_graph(path, dm.GeneCatalog(), "L")

    def test_indented_comments_and_blank_lines(self, tmp_path):
        text = "  # indented\n\t# tab-indented\nA\tB\n   \n\t\n\nB\tC\n#A\tC\n"
        catalog = dm.GeneCatalog()
        lg = dm.load_layer_graph(write(tmp_path, "e.tsv", text), catalog, "L")
        assert catalog.names == ["A", "B", "C"]
        assert edge_names(lg, catalog) == [("A", "B"), ("B", "C")]

    def test_crlf_line_endings(self, tmp_path):
        path = write(tmp_path, "e.tsv", "# c\r\nA B\r\nB\tC\r\n\r\nC\tA")
        catalog = dm.GeneCatalog()
        lg = dm.load_layer_graph(path, catalog, "L")
        assert catalog.names == ["A", "B", "C"]
        assert lg.n_edges == 3

    def test_error_line_counts_skipped_lines(self, tmp_path):
        text = "# c\n\nA\tB\r\n  # x\n\t\nA B C\n"
        with pytest.raises(DataError, match=r"e\.tsv:6: expected 2 columns, got 3"):
            dm.load_layer_graph(write(tmp_path, "e.tsv", text), dm.GeneCatalog(), "L")

    def test_only_comments_is_empty(self, tmp_path):
        path = write(tmp_path, "e.tsv", "  # a\n\n\t\r\n")
        with pytest.raises(DataError, match="no edges"):
            dm.load_layer_graph(path, dm.GeneCatalog(), "L")


class TestEmptyNames:
    """A two-column line whose field is empty or only whitespace names the
    file, the line and the column; other spaces in a name stay."""

    CASES = [("A\t", "''", 2), ("A\t ", "' '", 2), ("\tB", "''", 1), (" \tB", "' '", 1)]

    @pytest.mark.parametrize("line, shown, col", CASES)
    def test_edge_list(self, tmp_path, line, shown, col):
        path = write(tmp_path, "e.tsv", f"X\tY\n# c\n{line}\r\nY\tZ\n")
        catalog = dm.GeneCatalog()
        with pytest.raises(DataError) as err:
            dm.load_layer_graph(path, catalog, "L")
        assert str(err.value) == f"{path}:3: empty field {shown} (column {col})"
        assert catalog.names == []

    @pytest.mark.parametrize("line, shown, col", [("A\t", "''", 2), ("\t1", "''", 1),
                                                  ("A\t ", "' '", 2)])
    def test_labels(self, tmp_path, line, shown, col):
        path = write(tmp_path, "l.tsv", f"B\t0\n{line}\n")
        with pytest.raises(DataError) as err:
            dm.load_labels(path, dm.GeneCatalog(["A", "B"]))
        assert str(err.value) == f"{path}:2: empty field {shown} (column {col})"

    def test_edge_spaces_in_names_stay_legal(self, tmp_path):
        path = write(tmp_path, "e.tsv", "A \t B\n a b\tA \n")
        catalog = dm.GeneCatalog()
        lg = dm.load_layer_graph(path, catalog, "L")
        assert catalog.names == ["A ", " B", " a b"]
        assert lg.n_edges == 2


class TestEdgeListStructure:
    def test_reversed_and_duplicate_pairs(self, tmp_path):
        text = "B\tA\nA\tB\nC\tA\nA\tC\nB\tA\nC\tB\n"
        catalog = dm.GeneCatalog()
        lg = dm.load_layer_graph(write(tmp_path, "e.tsv", text), catalog, "L")
        assert catalog.names == ["B", "A", "C"]
        np.testing.assert_array_equal(lg.edges, [[0, 1], [0, 2], [1, 2]])
        np.testing.assert_array_equal(lg.csr_indptr, [0, 2, 4, 6])
        np.testing.assert_array_equal(lg.csr_indices, [1, 2, 0, 2, 0, 1])

    def test_self_loop_only_nodes(self, tmp_path):
        text = "A\tB\nC\tC\nB\tD\nE E\nC\tC\n"
        catalog = dm.GeneCatalog()
        lg = dm.load_layer_graph(write(tmp_path, "e.tsv", text), catalog, "L")
        assert catalog.names == ["A", "B", "C", "D", "E"]
        np.testing.assert_array_equal(lg.node_ids, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(lg.edges, [[0, 1], [1, 3]])
        np.testing.assert_array_equal(lg.degrees(), [1, 2, 0, 1, 0])

    def test_nodes_are_the_file_genes_only(self, tmp_path):
        catalog = dm.GeneCatalog(["X", "A", "Y", "B"])
        lg = dm.load_layer_graph(write(tmp_path, "e.tsv", "B\tA\n"), catalog, "L")
        assert catalog.names == ["X", "A", "Y", "B"]
        np.testing.assert_array_equal(lg.node_ids, [1, 3])
        np.testing.assert_array_equal(lg.edges, [[1, 3]])

    def test_catalog_first_seen_order_across_layers(self, tmp_path):
        specs = [
            ("L0", write(tmp_path, "a.tsv", "B\tA\nC\tB\n")),
            ("L1", write(tmp_path, "b.tsv", "D\tA\nE\tE\nB\tF\nG H\n")),
        ]
        feats = "gene,f1\n" + "".join(f"{g},1\n" for g in "ABCDEFGH")
        ds = dm.load_dataset(specs, write(tmp_path, "f.csv", feats),
                             write(tmp_path, "l.tsv", "A\t1\n"))
        assert ds.catalog.names == ["B", "A", "C", "D", "E", "F", "G", "H"]
        assert edge_names(ds.layers[1], ds.catalog) == [
            ("B", "F"), ("A", "D"), ("G", "H")
        ]
        np.testing.assert_array_equal(ds.layers[1].node_ids, [0, 1, 3, 4, 5, 6, 7])

    def test_layer_graph_dedups_any_pair_order(self):
        edges = np.array([[5, 2], [2, 5], [0, 7], [7, 0], [2, 5], [3, 4]])
        lg = dm.LayerGraph("L", range(8), edges)
        np.testing.assert_array_equal(lg.edges, [[0, 7], [2, 5], [3, 4]])
        assert lg.edges.dtype == np.intp
        lg = dm.LayerGraph("L", [2, -3, -1], np.array([[2, -3], [-1, -3], [-3, 2]]))
        np.testing.assert_array_equal(lg.edges, [[-3, -1], [-3, 2]])
        np.testing.assert_array_equal(lg.degrees(), [2, 1, 1])


class TestFeatureCells:
    def test_quoted_cells(self, tmp_path):
        text = 'gene,"f,1","f ""2"""\n"A","1.5","-2e3"\nB,"0",7\n'
        catalog = dm.GeneCatalog(["B", "A"])
        fm = dm.load_feature_matrix(write(tmp_path, "f.csv", text), catalog)
        assert fm.feature_names == ["f,1", 'f "2"']
        np.testing.assert_array_equal(fm.values, [[0.0, 7.0], [1.5, -2000.0]])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "-1e999", "nan", "NaN"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = write(tmp_path, "f.csv", f"gene,f1,f2\nA,1,{cell}\n")
        with pytest.raises(DataError) as err:
            dm.load_feature_matrix(path, dm.GeneCatalog(["A"]))
        assert str(err.value) == f"{path}:2: non-finite cell {cell!r} (column 3)"

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = write(tmp_path, "f.csv", "gene,f1,f2\nA,1,2\nB,oops,3\n")
        with pytest.raises(DataError) as err:
            dm.load_feature_matrix(path, dm.GeneCatalog(["A", "B"]))
        assert str(err.value) == f"{path}:3: non-numeric cell 'oops' (column 2)"

    def test_first_bad_cell_in_file_order_wins(self, tmp_path):
        path = write(tmp_path, "f.csv", "gene,f1,f2\nA,inf,oops\nB,oops,1\n")
        with pytest.raises(DataError, match=r"f\.csv:2: non-finite cell 'inf' \(column 2\)"):
            dm.load_feature_matrix(path, dm.GeneCatalog(["A", "B"]))

    def test_cell_error_before_row_error(self, tmp_path):
        path = write(tmp_path, "f.csv", "gene,f1\nA,oops\nZ,1\n")
        with pytest.raises(DataError, match=r"f\.csv:2: non-numeric cell 'oops'"):
            dm.load_feature_matrix(path, dm.GeneCatalog(["A"]))

    def test_row_error_before_later_cell_error(self, tmp_path):
        path = write(tmp_path, "f.csv", "gene,f1\nA,1\nB,2,3\nC,oops\n")
        with pytest.raises(DataError, match=r"f\.csv:3: expected 2 fields, got 3"):
            dm.load_feature_matrix(path, dm.GeneCatalog(["A", "B", "C"]))

    def test_error_line_counts_skipped_rows(self, tmp_path):
        path = write(tmp_path, "f.csv", "gene,f1\ngroup,x\n\nA,1\n \n\nB,1e999\n")
        with pytest.raises(DataError, match=r"f\.csv:7: non-finite cell '1e999'"):
            dm.load_feature_matrix(path, dm.GeneCatalog(["A", "B"]))

    def test_duplicate_row_after_blank_rows(self, tmp_path):
        path = write(tmp_path, "f.csv", "gene,f1\r\nA,1\r\n\r\nA,2\r\n")
        with pytest.raises(DataError, match=r"f\.csv:4: duplicate feature row"):
            dm.load_feature_matrix(path, dm.GeneCatalog(["A"]))

    def test_cells_parse_like_python_floats(self, tmp_path):
        path = write(tmp_path, "f.csv", "gene,a,b,c,d\nA, 1.25 ,-0,1_000,0x1\n")
        with pytest.raises(DataError, match=r"non-numeric cell '0x1' \(column 5\)"):
            dm.load_feature_matrix(path, dm.GeneCatalog(["A"]))
        path = write(tmp_path, "g.csv", "gene,a,b,c\nA, 1.25 ,-0,1_000\n")
        fm = dm.load_feature_matrix(path, dm.GeneCatalog(["A"]))
        assert fm.values.tobytes() == np.array([[1.25, -0.0, 1000.0]]).tobytes()


class TestFeatureRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, size=(7, 5))
        values[0, :] = [0.0, -0.0, 5e-324, -1.7976931348623157e308, 0.1]
        values[1, 0] = 1.0 / 3.0
        names = ["plain", "with,comma", 'with "quote"', "sp ace", "ünï"]
        catalog = dm.GeneCatalog([f"G{i}" for i in range(7)])
        fm = dm.FeatureMatrix(values, names, ["a", "b", "a", "c", "b"])
        path = tmp_path / "f.csv"
        dm.write_features_csv(fm, catalog, path)
        back = dm.load_feature_matrix(path, catalog)
        assert back.values.tobytes() == values.tobytes()
        assert back.feature_names == names
        assert back.omic_group == ["a", "b", "a", "c", "b"]
        assert back.missing == ()


class TestNotUtf8:
    """A byte that is not UTF-8 is a DataError naming the file and its line,
    wherever in the file it sits."""

    def write_bytes(self, tmp_path, name, good_lines, bad_line, newline=b"\n"):
        p = tmp_path / name
        p.write_bytes(newline.join(good_lines + [bad_line]) + newline)
        return p

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("reader", ["layer", "labels", "gene_sets"])
    def test_data_lines_readers(self, tmp_path, reader, newline):
        catalog = dm.GeneCatalog(["A", "B"])
        good, bad, load = {
            "layer": (b"A\tB", b"A\tB\xff", lambda p: dm.load_layer_graph(p, catalog, "L")),
            "labels": (b"A\t1", b"B\xff\t0", lambda p: dm.load_labels(p, catalog)),
            "gene_sets": (b"S%d\tdesc\tA", b"T\td\xffesc\tB", dm.load_gene_sets),
        }[reader]
        # far past the first block a text reader decodes
        lines = [b"# c"] + [good.replace(b"%d", b"%d" % i) for i in range(3000)]
        path = self.write_bytes(tmp_path, "in.txt", lines, bad, newline)
        with pytest.raises(DataError) as err:
            load(path)
        assert str(err.value) == f"{path}:3002: not valid UTF-8 (byte 0xff)"

    def test_feature_matrix(self, tmp_path):
        path = self.write_bytes(tmp_path, "f.csv", [b"gene,f1", b"A,1"], b"B,\xff2")
        with pytest.raises(DataError, match=r"f\.csv:3: not valid UTF-8 \(byte 0xff\)"):
            dm.load_feature_matrix(path, dm.GeneCatalog(["A", "B"]))

    def test_ranking_csv(self, tmp_path):
        from multilayer_gnn import analysis as an

        path = self.write_bytes(tmp_path, "r.csv", [b"gene,score", b"A,1"], b"\xffB,0.5")
        with pytest.raises(DataError, match=r"r\.csv:3: not valid UTF-8 \(byte 0xff\)"):
            an.load_ranking_csv(path)


class TestPhysicalLines:
    """An error names the physical line its record ends on, also after a
    quoted cell that holds a newline."""

    def test_quoted_newline_in_the_header(self, tmp_path):
        path = write(tmp_path, "f.csv", 'gene,"f\n1",f2\nA,1,2\nB,x,3\n')
        with pytest.raises(DataError) as err:
            dm.load_feature_matrix(path, dm.GeneCatalog(["A", "B"]))
        assert str(err.value) == f"{path}:4: non-numeric cell 'x' (column 2)"

    def test_quoted_newline_in_a_row(self, tmp_path):
        path = write(tmp_path, "f.csv", 'gene,f1\nA,"1\r\n"\nA,2\n')
        with pytest.raises(DataError) as err:
            dm.load_feature_matrix(path, dm.GeneCatalog(["A"]))
        assert str(err.value) == f"{path}:4: duplicate feature row for gene 'A'"

    def test_group_row_after_a_two_line_header(self, tmp_path):
        path = write(tmp_path, "f.csv", 'gene,"f\n1"\ngroup,x,y\n')
        with pytest.raises(DataError) as err:
            dm.load_feature_matrix(path, dm.GeneCatalog(["A"]))
        assert str(err.value) == f"{path}:3: group row length does not match feature count"


class TestEmptyFeatureNames:
    """A feature name or group tag that is empty or only whitespace names the
    file, the line and the column."""

    @pytest.mark.parametrize("header, shown, col", [
        ("gene,,f2", "''", 2), ("gene,f1, ", "' '", 3), ('gene,f1,"\t"', "'\\t'", 3),
        ("gene,,", "''", 2)])
    def test_header(self, tmp_path, header, shown, col):
        path = write(tmp_path, "f.csv", f"{header}\nA,1,2\n")
        with pytest.raises(DataError) as err:
            dm.load_feature_matrix(path, dm.GeneCatalog(["A"]))
        assert str(err.value) == f"{path}:1: empty feature name {shown} (column {col})"

    @pytest.mark.parametrize("group, shown, col", [("group,,b", "''", 2),
                                                   ("Group,a, ", "' '", 3)])
    def test_group_row(self, tmp_path, group, shown, col):
        path = write(tmp_path, "f.csv", f"gene,f1,f2\r\n{group}\r\nA,1,2\r\n")
        with pytest.raises(DataError) as err:
            dm.load_feature_matrix(path, dm.GeneCatalog(["A"]))
        assert str(err.value) == f"{path}:2: empty group tag {shown} (column {col})"

    def test_inner_spaces_stay_legal(self, tmp_path):
        path = write(tmp_path, "f.csv", "gene, f 1 ,f2\ngroup, a b ,c\nA,1,2\n")
        fm = dm.load_feature_matrix(path, dm.GeneCatalog(["A"]))
        assert fm.feature_names == ["f 1", "f2"]
        assert fm.omic_group == ["a b", "c"]


class TestBlocks:
    """Files are read in blocks of lines; what a block edge splits reads the
    same as a whole file, and a byte that is not UTF-8 in a later block is
    still reported before an earlier defect."""

    @pytest.mark.parametrize("block", [1, 7, 20, 1 << 16])
    def test_quoted_record_across_block_edges(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(dm, "BLOCK_CHARS", block)
        rows = "".join(f"G{i},{i}.5,-{i}\n" for i in range(40))
        text = f'gene,f1,f2\ngroup,a,b\n{rows}"G40","1\n",2\n{rows.replace("G", "H")}'
        genes = [f"G{i}" for i in range(41)] + [f"H{i}" for i in range(40)] + ["Z"]
        fm = dm.load_feature_matrix(write(tmp_path, "f.csv", text), dm.GeneCatalog(genes))
        expected = [[i + 0.5, -float(i)] for i in range(40)] + [[1.0, 2.0]] + [
            [i + 0.5, -float(i)] for i in range(40)] + [[0.0, 0.0]]
        assert fm.values.tobytes() == np.array(expected).tobytes()
        assert fm.missing == ("Z",)
        assert fm.omic_group == ["a", "b"]
        path = write(tmp_path, "g.csv", text + "H3,1,1\n")
        with pytest.raises(DataError, match=r"g\.csv:85: duplicate feature row for gene 'H3'"):
            dm.load_feature_matrix(path, dm.GeneCatalog(genes))

    @pytest.mark.parametrize("block", [1, 5, 1 << 16])
    def test_edge_list_and_labels_across_block_edges(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(dm, "BLOCK_CHARS", block)
        text = "".join(f"G{i}\tG{i + 1}\n" for i in range(30)) + "# c\nG3 G7\r\nG9\tG9"
        catalog = dm.GeneCatalog()
        lg = dm.load_layer_graph(write(tmp_path, "e.tsv", text), catalog, "L")
        assert catalog.names == [f"G{i}" for i in range(31)]
        assert lg.n_edges == 31
        labels = "".join(f"G{i}\t{i % 2}\n" for i in range(31)) + "\nG4\t0\nG4\t1\n"
        with pytest.raises(DataError, match=r"l\.tsv:34: conflicting labels for gene 'G4'"):
            dm.load_labels(write(tmp_path, "l.tsv", labels), catalog)

    @pytest.mark.parametrize("block", [1, 1 << 16])
    def test_conflicting_labels_in_plain_lines(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(dm, "BLOCK_CHARS", block)
        path = write(tmp_path, "l.tsv", "A\t0\nB\t1\nA\t0\nA\t1\n")
        with pytest.raises(DataError) as err:
            dm.load_labels(path, dm.GeneCatalog(["A", "B"]))
        assert str(err.value) == f"{path}:4: conflicting labels for gene 'A'"

    @pytest.mark.parametrize("body, rows", [
        ('"G",1\nH,2\n', {"G": 1.0, "H": 2.0}),  # csv unquotes, so '"G"' stays absent
        (" G ,1\nH,2\n", {"G": 1.0, "H": 2.0}),  # names are stripped
        ('H"",2\n', {'H""': 2.0}),  # quotes inside a cell stay
        ("G,1\nH,2", {"G": 1.0, "H": 2.0}),  # no LF at the end
        ("G,1\r\nH, 2\r\n", {"G": 1.0, "H": 2.0}),
    ])
    def test_plain_looking_rows_read_as_csv_reads_them(self, tmp_path, body, rows):
        genes = ["X", "G", '"G"', "H", 'H""', " G "]
        path = write(tmp_path, "f.csv", "gene,f1\nX,0\n" + body)  # past the second record
        fm = dm.load_feature_matrix(path, dm.GeneCatalog(genes))
        assert fm.values.ravel().tolist() == [rows.get(g, 0.0) for g in genes]

    @pytest.mark.parametrize("block", [1, 1 << 16])
    @pytest.mark.parametrize("body, error", [
        ("G,1\nG,2\n", ":4: duplicate feature row for gene 'G'"),
        ("G,1\nX,2\n", ":4: duplicate feature row for gene 'X'"),
        ("G,1\nH,inf\n", ":4: non-finite cell 'inf' (column 2)"),
        ("G,-1e999\n", ":3: non-finite cell '-1e999' (column 2)"),
        ("G,1\nH,0x1\n", ":4: non-numeric cell '0x1' (column 2)"),
        ("G,1\nZ,2\n", ":4: gene 'Z' not in catalog"),
        ("G,1,2\n", ":3: expected 2 fields, got 3"),
    ])
    def test_defects_in_plain_rows(self, tmp_path, monkeypatch, block, body, error):
        monkeypatch.setattr(dm, "BLOCK_CHARS", block)
        path = write(tmp_path, "f.csv", "gene,f1\nX,0\n" + body)  # past the second record
        with pytest.raises(DataError) as err:
            dm.load_feature_matrix(path, dm.GeneCatalog(["X", "G", "H"]))
        assert str(err.value) == f"{path}{error}"

    def test_field_limit_holds_for_fields_not_lines(self, tmp_path, monkeypatch):
        taken = []
        bulk = dm._features_in_bulk
        monkeypatch.setattr(dm, "_features_in_bulk",
                            lambda *args: taken.append(bulk(*args)) or taken[-1])
        d = 40
        head = "gene," + ",".join(f"f{j}" for j in range(d)) + "\nA" + ",1.5" * d
        path = write(tmp_path, "f.csv", f"{head}\nB{',2' * d}\n")
        path_long = write(tmp_path, "g.csv", f"{head}\nB,{'2' * 51}{',2' * (d - 1)}\n")
        old = csv.field_size_limit(50)
        try:
            fm = dm.load_feature_matrix(path, dm.GeneCatalog(["A", "B"]))
            with pytest.raises(DataError, match=r"g\.csv:3: field larger than field limit \(50\)"):
                dm.load_feature_matrix(path_long, dm.GeneCatalog(["A", "B"]))
        finally:
            csv.field_size_limit(old)
        assert fm.values.tolist() == [[1.5] * d, [2.0] * d]
        assert taken[0] is not None and taken[1] is None

    @pytest.mark.parametrize("reader", ["features", "layer", "labels", "gene_sets"])
    def test_bad_byte_in_a_later_block_wins(self, tmp_path, reader):
        catalog = dm.GeneCatalog(["A", "B"])
        head, bad_line, load = {
            "features": (b"gene,f1\nA,oops\n", b"B,1", lambda p: dm.load_feature_matrix(p, catalog)),
            "layer": (b"A B C\n", b"A\tB", lambda p: dm.load_layer_graph(p, catalog, "L")),
            "labels": (b"Z\t1\n", b"A\t1", lambda p: dm.load_labels(p, catalog)),
            "gene_sets": (b"S\td\n", b"T\tdesc\tA", dm.load_gene_sets),
        }[reader]
        n = 20_000  # blank lines, so the bad byte is blocks after the first defect
        body = head + (b" " * 20 + b"\n") * n + bad_line + b"\xff\n"
        path = tmp_path / "in.txt"
        path.write_bytes(body)
        with pytest.raises(DataError) as err:
            load(path)
        line = head.count(b"\n") + n + 1
        assert str(err.value) == f"{path}:{line}: not valid UTF-8 (byte 0xff)"
