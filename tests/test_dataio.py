import pytest

from moldesign.dataio import (
    AllRowsInvalid,
    DataError,
    HeaderMismatch,
    IoError,
    ingest_dataset,
    read_smiles_corpus,
)
from moldesign.molgraph import canonical_smiles

from graph_helpers import deeper_than_recursion_limit, recursion_limit


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestIngest:
    def test_typical_row(self, tmp_path):
        path = write(tmp_path, "smiles,ron,mon,dcn\nCOC(C)(C)C,118,101,\n")
        data = ingest_dataset(path)
        assert len(data) == 1
        row = data.rows[0]
        assert row.ron == 118.0
        assert row.mon == 101.0
        assert row.dcn is None
        assert row.labels() == {"ron": 118.0, "mon": 101.0, "dcn": None}

    def test_row_deeper_than_the_recursion_limit_kept(self, tmp_path):
        # every row is canonicalised, whatever its depth
        with recursion_limit(400):
            smiles = deeper_than_recursion_limit("C")
            data = ingest_dataset(write(tmp_path, "smiles,ron,mon,dcn\n"
                                        "%s,100,,\nCC,90,,\n" % smiles))
        assert [row.smiles for row in data.rows] == [smiles, "CC"]

    def test_header_mismatch(self, tmp_path):
        path = write(tmp_path, "name,ron,mon,dcn\nCC,1,2,3\n")
        with pytest.raises(HeaderMismatch):
            ingest_dataset(path)

    def test_header_case_and_space_tolerant(self, tmp_path):
        path = write(tmp_path, "SMILES, RON ,mon,DCN\nCC,100,,\n")
        assert len(ingest_dataset(path)) == 1

    def test_bad_smiles_becomes_issue(self, tmp_path):
        path = write(tmp_path, "smiles,ron,mon,dcn\nC((C,1,,\nCC,100,,\n")
        data = ingest_dataset(path)
        assert len(data) == 1
        assert any("line 2" in m for m in data.issues)

    def test_bad_number_becomes_issue(self, tmp_path):
        path = write(tmp_path, "smiles,ron,mon,dcn\nCC,abc,,\nCCO,90,,\n")
        data = ingest_dataset(path)
        assert len(data) == 1
        assert any("ron" in m for m in data.issues)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_label_becomes_issue(self, tmp_path, cell):
        path = write(tmp_path, "smiles,ron,mon,dcn\nCC,100,,\n"
                               "CCO,%s,90,\nCCC,95,,\n" % cell)
        data = ingest_dataset(path)
        assert [row.canonical for row in data.rows] == ["CC", "CCC"]
        assert data.issues == ["line 3: bad ron value %r" % cell]

    def test_duplicate_canonical_rejected_with_warning(self, tmp_path):
        # OCC and CCO are the same molecule
        path = write(tmp_path, "smiles,ron,mon,dcn\nCCO,100,,\nOCC,90,,\n")
        data = ingest_dataset(path)
        assert len(data) == 1
        assert data.rows[0].ron == 100.0
        assert data.issues == ["line 3: duplicate molecule CCO (first on "
                               "line 2)"]

    def test_unlabeled_row_skipped(self, tmp_path):
        path = write(tmp_path, "smiles,ron,mon,dcn\nCC,,,\nCCO,90,,\n")
        data = ingest_dataset(path)
        assert len(data) == 1
        assert any("no labels" in m for m in data.issues)

    def test_all_rows_invalid(self, tmp_path):
        path = write(tmp_path, "smiles,ron,mon,dcn\nnope,1,,\n")
        with pytest.raises(AllRowsInvalid):
            ingest_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            ingest_dataset(str(tmp_path / "absent.csv"))

    def test_blank_lines_ignored(self, tmp_path):
        path = write(tmp_path, "smiles,ron,mon,dcn\n\nCC,100,,\n\n")
        data = ingest_dataset(path)
        assert len(data) == 1
        assert data.issues == []


class TestCorpus:
    def test_comments_and_blank_lines(self, tmp_path):
        path = write(tmp_path,
                     "# header comment\nCC  # ethane\n\nCCO\n",
                     name="corpus.smi")
        graphs = read_smiles_corpus(path)
        assert [canonical_smiles(g) for g in graphs] == ["CC", "CCO"]

    def test_bad_line_raises_with_number(self, tmp_path):
        path = write(tmp_path, "CC\nX(\n", name="corpus.smi")
        with pytest.raises(DataError, match="line 2"):
            read_smiles_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_smiles_corpus(str(tmp_path / "absent.smi"))
