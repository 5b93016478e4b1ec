"""Frozen span lists of traced runs (``tests/golden/trace_spans.json``).

A traced run (``trace=True``) records every span the stack opens.  The
golden pins those span lists for the cells of
``test_fault_recovery.SPAN_GOLDEN_CELLS`` -- the bench3 golden cells,
the multi-stripe read and write cells of
``test_kernel_perf_safety.TestSteppedPathInvariance`` and the
fault-recovery cells -- each traced under fifo and under lifo, so a
change in which spans a layer opens, when, with which attributes or
under which parent shows up as a diff
(``test_fault_recovery.TestTraceSpanGoldens``).

Each span becomes a canonical row: ``(kind, node_id, start, end, sorted
attrs, ancestor chain)``, the chain as ``(kind, node_id, start)`` from
the parent up to the root.  Span ids and the ART's ``request_id``
attribute appear nowhere, so the order in which spans are opened does
not matter.  The golden keeps, per cell and tie-break, the span count
per kind, a sha256 over the sorted rows, and the hashes of 64 buckets
the rows are spread over by their own hash; on a mismatch the rows of
the buckets that differ are printed, and they hold every row the golden
does not.

Regenerate (after a deliberate change, recorded in CHANGES.md) with::

    PYTHONPATH=src python -m tests.span_golden
"""

import collections
import hashlib
import json
import pathlib
from typing import Dict, List, Optional, Tuple

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_spans.json"
BUCKETS = 64
#: Span attributes the rows leave out: the ART's request ids (each ART
#: pool numbers its own requests; the golden was frozen without them).
PROCESS_IDS = frozenset({"request_id"})


def canonical_rows(tracer) -> List[str]:
    """Every recorded span as a canonical JSON row, in span order."""
    index = {span.span_id: span for span in tracer.spans}
    rows = []
    for span in tracer.spans:
        chain = []
        parent = index.get(span.parent_id)
        while parent is not None:
            chain.append((parent.kind, parent.node_id, parent.start))
            parent = index.get(parent.parent_id)
        attrs = [item for item in sorted((span.attrs or {}).items()) if item[0] not in PROCESS_IDS]
        row = (span.kind, span.node_id, span.start, span.end, attrs, chain)
        rows.append(json.dumps(row, default=repr))
    return rows


def _bucket(row: str) -> int:
    return int(hashlib.sha256(row.encode()).hexdigest()[:8], 16) % BUCKETS


def _digest(rows) -> str:
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


def summary(tracer) -> Tuple[Dict, List[str]]:
    """``(golden entry, canonical rows)`` of one traced run."""
    rows = canonical_rows(tracer)
    buckets: List[List[str]] = [[] for _ in range(BUCKETS)]
    for row in rows:
        buckets[_bucket(row)].append(row)
    kinds = collections.Counter(span.kind for span in tracer.spans)
    entry = {
        "spans": len(rows),
        "kinds": dict(sorted(kinds.items())),
        "sha256": _digest(rows),
        "buckets": " ".join(_digest(bucket)[:10] for bucket in buckets),
    }
    return entry, rows


def mismatch(entry: Dict, rows: List[str], expected: Dict) -> Optional[str]:
    """None when *entry* equals *expected*; otherwise a report naming the
    counts and listing the rows of the buckets that differ."""
    if entry == expected:
        return None
    pairs = zip(entry["buckets"].split(), expected["buckets"].split())
    differing = {i for i, (a, b) in enumerate(pairs) if a != b}
    shown = sorted(row for row in rows if _bucket(row) in differing)
    return (
        f"{entry['spans']} spans (golden {expected['spans']}), kinds {entry['kinds']} "
        f"(golden {expected['kinds']}); rows of the {len(differing)} differing "
        "buckets:\n" + "\n".join(shown[:200])
    )


def load() -> Dict:
    with open(GOLDEN) as fh:
        return json.load(fh)["cells"]


def capture() -> None:
    from tests.test_fault_recovery import SPAN_GOLDEN_CELLS

    cells = {}
    for key, run in SPAN_GOLDEN_CELLS.items():
        cells[key] = {tb: summary(run(tb).obs.tracer)[0] for tb in ("fifo", "lifo")}
        print(key, {tb: entry["spans"] for tb, entry in cells[key].items()})
    payload = {
        "_comment": (
            "Span lists of traced runs: per cell and tie-break, the span "
            "count per kind, a sha256 over the sorted canonical rows and "
            "the hashes of its 64 row buckets (see tests/span_golden.py)."
        ),
        "cells": cells,
    }
    with open(GOLDEN, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    capture()
