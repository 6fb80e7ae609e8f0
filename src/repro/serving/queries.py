"""The canonical query-verb surface shared by ``query`` and ``serve``.

The serving layer answers the same four verbs from two entry points:
the one-shot ``repro-mine query`` command and the long-lived
``repro-mine serve`` daemon (:mod:`repro.serving.server`).  Their
answers must be *byte-identical* — the differential suite in
``tests/serving/test_server.py`` pins exactly that — so the parsing
and rendering live here, once, and both callers delegate:

* :func:`parse_items` — coerce a comma-separated CLI/URL item spec to
  the miner's label universe (string tokens fall back to their ``int``
  reading when that matches a label; unknown items pass through,
  ``support_of`` legitimately answers 0 for them);
* :func:`query_lines` — evaluate one verb and render the answer in the
  one-set-per-line ``item item (support)`` convention of the original
  fim tools, deterministically ordered (descending support, then the
  textual form of the labels).  The answers come from the miner's
  generation-scoped query memo, and the daemon keeps each encoded
  family answer per generation, so it renders a family answer once.

``QUERY_VERBS`` names the four verbs; it is the single registry the
server's routing table and the differential suite iterate.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["QUERY_VERBS", "parse_items", "query_lines"]

#: The four query verbs of the serving surface, in documentation order.
QUERY_VERBS: Tuple[str, ...] = (
    "closed_sets",
    "top_k",
    "supersets_of",
    "support_of",
)


def parse_items(spec: str, miner) -> List[object]:
    """Split a comma-separated item spec, coercing tokens to known labels.

    Command-line and URL tokens are strings, but FIMI-derived labels are
    ints; a token that is not itself a label falls back to its int
    reading when that matches one.  Unknown items pass through
    unchanged — ``support_of`` legitimately answers 0 for them.
    """
    labels = miner.label_codes
    items: List[object] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in labels:
            try:
                as_int = int(token)
            except ValueError:
                pass
            else:
                if as_int in labels:
                    items.append(as_int)
                    continue
        items.append(token)
    return items


def _ranked_lines(ranked) -> List[str]:
    """Render ``(labels, support)`` pairs, keeping their order."""
    return [
        " ".join(str(label) for label in labels) + f" ({supp})"
        for labels, supp in ranked
    ]


def _family_lines(family) -> List[str]:
    """Render a ``labels -> support`` mapping in the canonical order."""
    return _ranked_lines(
        sorted(
            family.items(),
            key=lambda e: (-e[1], [str(label) for label in e[0]]),
        )
    )


def query_lines(
    miner,
    verb: str,
    *,
    smin: int = 1,
    k: Optional[int] = None,
    items: Optional[Iterable[object]] = None,
) -> List[str]:
    """Answer one query verb as its canonical text lines.

    ``verb`` is one of :data:`QUERY_VERBS`.  ``k`` is required for
    ``top_k``; ``items`` is required for ``supersets_of`` and
    ``support_of`` (a sequence of labels, e.g. from
    :func:`parse_items`).  Raises :class:`ValueError` for an unknown
    verb or a missing parameter — the callers map that to exit code 2
    (CLI) or HTTP 400 (server).

    A family answer renders only the sets it contains.
    """
    if verb == "support_of":
        if items is None:
            raise ValueError("support_of needs an item list")
        return [str(miner.support_of(items))]
    if verb == "top_k":
        if k is None:
            raise ValueError("top_k needs k")
        return _ranked_lines(miner.top_k(k, smin=smin))
    if verb == "supersets_of":
        if items is None:
            raise ValueError("supersets_of needs an item list")
        return _family_lines(miner.supersets_of(items, smin=smin))
    if verb == "closed_sets":
        return _family_lines(miner.closed_sets(smin))
    raise ValueError(
        f"unknown query verb {verb!r}; expected one of {', '.join(QUERY_VERBS)}"
    )
