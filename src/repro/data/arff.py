"""ARFF import/export for transaction databases.

The original Carpenter implementation shipped as a Weka module (the
GEMini package the paper tried to benchmark against), so Weka's ARFF is
the natural interchange format for this problem domain.  Two common
encodings of transaction data are supported:

* **binary/nominal attributes** — one attribute per item with values
  ``{0, 1}`` (or ``{false, true}``); a transaction contains the items
  whose value is 1/true;
* **sparse instances** — ``{index value, ...}`` rows, the usual choice
  for large item bases.

Only the subset of ARFF needed for these encodings is implemented;
numeric non-binary attributes are rejected with a clear error rather
than silently discretised (use :mod:`repro.data.transforms` for
thresholding real-valued matrices).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, TextIO, Tuple, Union

from ..runtime.errors import CorruptInputError
from .database import TransactionDatabase
from .io import LoadReport

__all__ = ["read_arff", "write_arff", "parse_arff", "format_arff"]

PathOrFile = Union[str, Path, TextIO]

_TRUE_VALUES = {"1", "true", "t", "yes", "y"}
_FALSE_VALUES = {"0", "false", "f", "no", "n", "?"}


def parse_arff(
    text: str,
    errors: str = "raise",
    report: Optional[LoadReport] = None,
    source: str = "<string>",
) -> TransactionDatabase:
    """Parse ARFF text into a transaction database.

    Malformed content raises :class:`~repro.runtime.CorruptInputError`
    naming the source and line.  ``errors="skip"`` drops malformed
    *data* rows instead (counted in ``report``); header errors always
    raise — a broken header leaves nothing trustworthy to mine.
    """
    if errors not in ("raise", "skip"):
        raise ValueError(f"errors must be 'raise' or 'skip', got {errors!r}")
    if report is not None:
        report.source = source
    attribute_names: List[str] = []
    transactions: List[List[str]] = []
    in_data = False
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        lowered = line.lower()
        if not in_data:
            if lowered.startswith("@relation"):
                continue
            if lowered.startswith("@attribute"):
                attribute_names.append(_parse_attribute(line, line_number, source))
                continue
            if lowered.startswith("@data"):
                if not attribute_names:
                    raise CorruptInputError(
                        f"{source}: @data before any @attribute",
                        source=source,
                        line_number=line_number,
                    )
                in_data = True
                continue
            raise CorruptInputError(
                f"{source}, line {line_number}: unexpected header line {line!r}",
                source=source,
                line_number=line_number,
            )
        else:
            try:
                transactions.append(
                    _parse_instance(line, attribute_names, line_number, source)
                )
            except CorruptInputError:
                if errors == "raise":
                    raise
                if report is not None:
                    report.lines_skipped += 1
                    report.skipped_line_numbers.append(line_number)
                continue
            if report is not None:
                report.lines_read += 1
    if not in_data:
        raise CorruptInputError(
            f"{source}: no @data section found", source=source
        )
    return TransactionDatabase.from_iterable(transactions, item_order=attribute_names)


def _parse_attribute(line: str, line_number: int, source: str) -> str:
    """Extract the name of a binary/nominal attribute declaration."""
    body = line[len("@attribute"):].strip()
    if body[:1] in ("'", '"'):
        name, rest = _unquote(body, line_number, source)
    else:
        parts = body.split(None, 1)
        if len(parts) != 2:
            raise CorruptInputError(
                f"{source}, line {line_number}: malformed @attribute",
                source=source,
                line_number=line_number,
            )
        name, rest = parts
    rest_lower = rest.lower()
    if rest_lower.startswith("{"):
        values = {value.strip().strip("'\"").lower() for value in rest.strip("{}").split(",")}
        if not values <= (_TRUE_VALUES | _FALSE_VALUES):
            raise CorruptInputError(
                f"{source}, line {line_number}: attribute {name!r} is not binary "
                f"(values {sorted(values)}); threshold real data first",
                source=source,
                line_number=line_number,
            )
    elif rest_lower not in ("numeric", "integer", "real"):
        raise CorruptInputError(
            f"{source}, line {line_number}: unsupported attribute type {rest!r}",
            source=source,
            line_number=line_number,
        )
    return name


def _unquote(body: str, line_number: int, source: str) -> Tuple[str, str]:
    """Split a quoted name off ``body``: ``(name, rest)``.

    As in Weka's quoted names, a backslash escapes a following
    backslash or quote (what :func:`_quote` writes).  Before any other
    character it is kept, so names written without escapes still read
    back.
    """
    quote = body[0]
    chars: List[str] = []
    index = 1
    while index < len(body):
        char = body[index]
        if char == quote:
            return "".join(chars), body[index + 1 :].strip()
        if char == "\\" and body[index + 1 : index + 2] in ("\\", "'", '"'):
            index += 1
            char = body[index]
        chars.append(char)
        index += 1
    raise CorruptInputError(
        f"{source}, line {line_number}: unterminated quoted attribute name",
        source=source,
        line_number=line_number,
    )


def _quote(label) -> str:
    """Single-quote a label for an ``@attribute`` line (see :func:`_unquote`)."""
    text = str(label).replace("\\", "\\\\").replace("'", "\\'")
    return f"'{text}'"


def _parse_instance(
    line: str, attribute_names: List[str], line_number: int, source: str
) -> List[str]:
    """One @data row -> list of contained item names."""
    if line.startswith("{"):
        if not line.endswith("}"):
            raise CorruptInputError(
                f"{source}, line {line_number}: unterminated sparse instance",
                source=source,
                line_number=line_number,
            )
        body = line[1:-1].strip()
        items = []
        if body:
            for entry in body.split(","):
                parts = entry.split()
                if len(parts) != 2:
                    raise CorruptInputError(
                        f"{source}, line {line_number}: malformed sparse "
                        f"entry {entry!r}",
                        source=source,
                        line_number=line_number,
                    )
                try:
                    index = int(parts[0])
                except ValueError:
                    raise CorruptInputError(
                        f"{source}, line {line_number}: malformed sparse "
                        f"entry {entry!r}",
                        source=source,
                        line_number=line_number,
                    ) from None
                if not 0 <= index < len(attribute_names):
                    raise CorruptInputError(
                        f"{source}, line {line_number}: attribute index "
                        f"{index} out of range",
                        source=source,
                        line_number=line_number,
                    )
                if parts[1].lower() in _TRUE_VALUES:
                    items.append(attribute_names[index])
        return items
    values = [value.strip() for value in line.split(",")]
    if len(values) != len(attribute_names):
        raise CorruptInputError(
            f"{source}, line {line_number}: expected {len(attribute_names)} "
            f"values, got {len(values)}",
            source=source,
            line_number=line_number,
        )
    items = []
    for name, value in zip(attribute_names, values):
        lowered = value.lower().strip("'\"")
        if lowered in _TRUE_VALUES:
            items.append(name)
        elif lowered not in _FALSE_VALUES:
            raise CorruptInputError(
                f"{source}, line {line_number}: non-binary value {value!r} "
                f"for {name!r}",
                source=source,
                line_number=line_number,
            )
    return items


def read_arff(
    source: PathOrFile,
    errors: str = "raise",
    report: Optional[LoadReport] = None,
) -> TransactionDatabase:
    """Read an ARFF file (binary nominal or sparse encoding)."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as handle:
            return parse_arff(
                handle.read(), errors=errors, report=report, source=str(source)
            )
    name = getattr(source, "name", "<stream>") or "<stream>"
    return parse_arff(source.read(), errors=errors, report=report, source=name)


def format_arff(
    db: TransactionDatabase,
    relation: str = "transactions",
    sparse: bool = True,
) -> str:
    """Serialise a database to ARFF text.

    ``sparse=True`` (default) writes ``{index 1, ...}`` instances —
    appropriate for the wide item bases this package targets.
    """
    lines = [f"@relation {relation}", ""]
    for label in db.item_labels:
        lines.append(f"@attribute {_quote(label)} {{0, 1}}")
    lines.append("")
    lines.append("@data")
    for mask in db.transactions:
        if sparse:
            entries = []
            remaining = mask
            while remaining:
                low = remaining & -remaining
                entries.append(f"{low.bit_length() - 1} 1")
                remaining ^= low
            lines.append("{" + ", ".join(entries) + "}")
        else:
            lines.append(
                ",".join("1" if mask >> i & 1 else "0" for i in range(db.n_items))
            )
    return "\n".join(lines) + "\n"


def write_arff(
    db: TransactionDatabase,
    target: PathOrFile,
    relation: str = "transactions",
    sparse: bool = True,
) -> None:
    """Write a database in ARFF format."""
    text = format_arff(db, relation, sparse)
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        target.write(text)
