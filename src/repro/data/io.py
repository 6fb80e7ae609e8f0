"""Reading and writing transaction databases and expression matrices.

Two on-disk formats are supported:

* **FIMI format** — the plain-text format of the FIMI workshop
  repository that the paper benchmarks against: one transaction per
  line, items separated by whitespace.  Items may be arbitrary tokens;
  purely numeric files round-trip as integers.
* **Expression matrices** — tab-separated numeric matrices with a
  header row of condition names and a leading column of gene names, the
  shape of the Hughes et al. compendium the paper mines.
"""

from __future__ import annotations

import io as _io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from ..runtime.errors import CorruptInputError
from .database import TransactionDatabase

__all__ = [
    "read_fimi",
    "write_fimi",
    "parse_fimi",
    "format_fimi",
    "read_expression_matrix",
    "write_expression_matrix",
    "LoadReport",
]

PathOrFile = Union[str, Path, TextIO]


@dataclass
class LoadReport:
    """What a loader did with a file — filled in when passed to a reader.

    With ``errors="skip"`` the corrupt lines are dropped instead of
    raising; this report says how many and which, so callers can decide
    whether the surviving data is still worth mining.
    """

    source: str = ""
    lines_read: int = 0
    lines_skipped: int = 0
    skipped_line_numbers: List[int] = field(default_factory=list)


def _source_name(source: PathOrFile) -> str:
    if isinstance(source, (str, Path)):
        return str(source)
    return getattr(source, "name", "<stream>") or "<stream>"


def _open_for_read(source: PathOrFile):
    if isinstance(source, (str, Path)):
        # surrogateescape keeps undecodable bytes visible as lone
        # surrogates instead of crashing in the codec, so corruption is
        # reported with a file name and line number below.
        return open(source, "r", encoding="utf-8", errors="surrogateescape"), True
    return source, False


def _corrupt_token(token: str) -> bool:
    """True for tokens carrying control bytes or undecodable garbage."""
    return not token.isprintable()


def _open_for_write(target: PathOrFile):
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="utf-8"), True
    return target, False


def parse_fimi(
    text: str,
    errors: str = "raise",
    report: Optional[LoadReport] = None,
) -> TransactionDatabase:
    """Parse FIMI-format text into a database.

    Blank lines are empty transactions (kept: the miners must cope with
    them).  Tokens that all look like integers are converted to ``int``
    labels so numeric files round-trip.

    >>> db = parse_fimi("1 2 3\\n2 3\\n")
    >>> db.n_transactions
    2
    """
    return read_fimi(_io.StringIO(text), errors=errors, report=report)


def read_fimi(
    source: PathOrFile,
    errors: str = "raise",
    report: Optional[LoadReport] = None,
) -> TransactionDatabase:
    """Read a FIMI-format transaction file.

    Lines containing control bytes or undecodable garbage raise
    :class:`~repro.runtime.CorruptInputError` naming the file and line
    (``errors="raise"``, the default), or are dropped and counted in
    ``report`` (``errors="skip"``).
    """
    if errors not in ("raise", "skip"):
        raise ValueError(f"errors must be 'raise' or 'skip', got {errors!r}")
    name = _source_name(source)
    if report is not None:
        report.source = name
    handle, should_close = _open_for_read(source)
    try:
        rows: List[List[str]] = []
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            tokens = stripped.split() if stripped else []
            bad = next((t for t in tokens if _corrupt_token(t)), None)
            if bad is not None:
                if errors == "raise":
                    raise CorruptInputError(
                        f"{name}, line {line_number}: corrupt token "
                        f"{bad!r:.40} (control or undecodable bytes)",
                        source=name,
                        line_number=line_number,
                    )
                if report is not None:
                    report.lines_skipped += 1
                    report.skipped_line_numbers.append(line_number)
                continue
            rows.append(tokens)
            if report is not None:
                report.lines_read += 1
    finally:
        if should_close:
            handle.close()
    all_numeric = all(token.lstrip("-").isdigit() for row in rows for token in row)
    if all_numeric:
        typed_rows: List[List[Hashable]] = [[int(token) for token in row] for row in rows]
        order = sorted({token for row in typed_rows for token in row})
    else:
        typed_rows = [list(row) for row in rows]
        order = sorted({token for row in typed_rows for token in row}, key=str)
    # Deduplicate within a transaction while keeping the bag semantics
    # across transactions (a FIMI line is a set).
    return TransactionDatabase.from_iterable(typed_rows, item_order=order)


def format_fimi(db: TransactionDatabase) -> str:
    """Serialise a database to FIMI text (items in code order per line).

    Raises :class:`ValueError` naming the first label whose ``str()``
    is empty or contains whitespace: FIMI separates items by
    whitespace, so such a label would not read back as one item.
    """
    for label in db.item_labels:
        text = str(label)
        if text.split() != [text]:
            raise ValueError(
                f"item label {label!r} cannot be written as a FIMI item: "
                f"its text {text!r} is empty or contains whitespace"
            )
    lines = []
    for transaction in db.transactions:
        labels = db.decode(transaction)
        lines.append(" ".join(str(label) for label in labels))
    return "\n".join(lines) + ("\n" if lines else "")


def write_fimi(db: TransactionDatabase, target: PathOrFile) -> None:
    """Write a database in FIMI format."""
    handle, should_close = _open_for_write(target)
    try:
        handle.write(format_fimi(db))
    finally:
        if should_close:
            handle.close()


def read_expression_matrix(
    source: PathOrFile,
) -> Tuple[np.ndarray, List[str], List[str]]:
    """Read a tab-separated expression matrix.

    Returns ``(values, gene_names, condition_names)`` where ``values``
    has shape ``(n_genes, n_conditions)``.
    """
    name = _source_name(source)
    handle, should_close = _open_for_read(source)
    try:
        header = handle.readline().rstrip("\n")
        if not header:
            raise CorruptInputError(
                f"{name}: expression matrix file is empty", source=name
            )
        condition_names = header.split("\t")[1:]
        gene_names: List[str] = []
        rows: List[List[float]] = []
        for line_number, line in enumerate(handle, start=2):
            stripped = line.rstrip("\n")
            if not stripped:
                continue
            fields = stripped.split("\t")
            if len(fields) != len(condition_names) + 1:
                raise CorruptInputError(
                    f"{name}, line {line_number}: expected "
                    f"{len(condition_names) + 1} fields, got {len(fields)}",
                    source=name,
                    line_number=line_number,
                )
            gene_names.append(fields[0])
            try:
                rows.append([float(field) for field in fields[1:]])
            except ValueError as exc:
                raise CorruptInputError(
                    f"{name}, line {line_number}: non-numeric value ({exc})",
                    source=name,
                    line_number=line_number,
                ) from exc
    finally:
        if should_close:
            handle.close()
    values = np.array(rows, dtype=float) if rows else np.empty((0, len(condition_names)))
    return values, gene_names, condition_names


def write_expression_matrix(
    values: np.ndarray,
    gene_names: Sequence[str],
    condition_names: Sequence[str],
    target: PathOrFile,
) -> None:
    """Write an expression matrix in the format of :func:`read_expression_matrix`."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(gene_names), len(condition_names)):
        raise ValueError(
            f"matrix shape {values.shape} does not match "
            f"{len(gene_names)} genes x {len(condition_names)} conditions"
        )
    handle, should_close = _open_for_write(target)
    try:
        handle.write("gene\t" + "\t".join(condition_names) + "\n")
        for name, row in zip(gene_names, values):
            handle.write(name + "\t" + "\t".join(f"{v:.6g}" for v in row) + "\n")
    finally:
        if should_close:
            handle.close()
