"""The canonical sweep results document.

One document shape is produced by three paths that must agree byte for
byte: ``repro sweep --out``, the service's result cache (what ``repro
fetch`` returns), and the CI determinism diffs.  Centralizing the
builder and the renderer here is what makes "a cached service result
is byte-identical to a direct CLI run" a structural property instead
of a test hope: both sides call the same two functions.

Everything in the document is a pure function of the sweep's inputs --
no timestamps, hostnames, worker counts, or completion-order artifacts.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.parallel.executor import SweepReport

RESULTS_DOCUMENT_VERSION = 1


def build_results_document(
    meta: dict, points: Iterable, report: SweepReport
) -> dict:
    """Assemble the results document for one completed sweep.

    ``points`` fixes the result order (the grid expansion order), so
    the document is identical no matter how the sweep was executed
    (serial, ``--jobs N``, or via the service).
    """
    results: List[dict] = []
    for point in points:
        if point.key in report.results:
            results.append(
                {
                    "scheme": point.label,
                    "workload": point.workload,
                    "result": report.results[point.key].to_dict(),
                }
            )
    return {
        "meta": dict(meta),
        "results": results,
        "failures": [
            {
                "scheme": failure.scheme,
                "workload": failure.workload,
                "error": failure.error,
                "attempts": failure.attempts,
            }
            for failure in report.failures
        ],
    }


def render_results_document(document: dict) -> str:
    """The document's one canonical text form (sorted keys, 2-space
    indent, trailing newline) -- the exact bytes ``--out`` writes and
    the cache stores."""
    import json

    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_results_document(path: str, document: dict) -> None:
    """Write the canonical rendering of ``document`` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_results_document(document))
