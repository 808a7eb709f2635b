"""Dataset and corpus file ingestion.

Property datasets are CSV with header "smiles,ron,mon,dcn"; empty cells
are missing labels; a row with an unparsable or non-finite label is
skipped as an issue. Corpus files hold one SMILES per line with optional
"#" comments.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .checks import is_real, read_text
from .molgraph import MolGraphError, canonical_smiles, parse_smiles

EXPECTED_HEADER = ["smiles", "ron", "mon", "dcn"]


class DataError(Exception):
    pass


class IoError(DataError):
    pass


class HeaderMismatch(DataError):
    pass


class AllRowsInvalid(DataError):
    pass


@dataclass
class DatasetRow:
    smiles: str
    canonical: str
    ron: float = None
    mon: float = None
    dcn: float = None

    def labels(self):
        return {"ron": self.ron, "mon": self.mon, "dcn": self.dcn}


@dataclass
class PropertyDataset:
    rows: list
    issues: list = field(default_factory=list)

    def __len__(self):
        return len(self.rows)


def _read(path):
    """The text of the file at path; a file that cannot be opened raises
    IoError."""
    try:
        return read_text(path)
    except OSError as e:
        raise IoError(str(e))


def _parse_cell(cell, name):
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        value = None
    if not is_real(value):   # unparsable, nan, inf or past the float range
        raise DataError("bad %s value %r" % (name, cell))
    return value


def ingest_dataset(path):
    """Load and validate a property dataset CSV."""
    reader = csv.reader(io.StringIO(_read(path)))
    try:
        header = next(reader)
    except StopIteration:
        raise HeaderMismatch("empty file")
    if [h.strip().lower() for h in header] != EXPECTED_HEADER:
        raise HeaderMismatch("expected header %s, got %s"
                             % (",".join(EXPECTED_HEADER), ",".join(header)))
    rows, issues, seen = [], [], {}
    for line_no, cells in enumerate(reader, start=2):
        if not cells or all(not c.strip() for c in cells):
            continue
        if len(cells) != 4:
            issues.append("line %d: expected 4 columns, got %d"
                          % (line_no, len(cells)))
            continue
        smiles = cells[0].strip()
        try:
            g = parse_smiles(smiles)
            canon = canonical_smiles(g)
            labels = {name: _parse_cell(cells[i + 1], name)
                      for i, name in enumerate(("ron", "mon", "dcn"))}
        except (MolGraphError, DataError) as e:
            issues.append("line %d: %s" % (line_no, e))
            continue
        if all(v is None for v in labels.values()):
            issues.append("line %d: no labels" % line_no)
            continue
        if canon in seen:
            issues.append("line %d: duplicate molecule %s (first on "
                          "line %d)" % (line_no, canon, seen[canon]))
            continue
        seen[canon] = line_no
        rows.append(DatasetRow(smiles=smiles, canonical=canon, **labels))
    if not rows:
        raise AllRowsInvalid("no valid rows in %s" % path)
    return PropertyDataset(rows=rows, issues=issues)


def read_smiles_corpus(path):
    """One SMILES per line; '#' starts a comment."""
    graphs = []
    for line_no, line in enumerate(_read(path).split("\n"), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            graphs.append(parse_smiles(text))
        except MolGraphError as e:
            raise DataError("line %d: %s" % (line_no, e))
    return graphs
