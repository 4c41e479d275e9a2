"""Unprotected baseline: identity mapping, no tracker, no mitigation.

Used as the normalisation point for every slowdown figure, and as the
control in security experiments (attacks *should* succeed against it).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.mitigations.base import AccessResult, MitigationScheme


class NoMitigation(MitigationScheme):
    """A scheme that routes every access straight through."""

    name = "baseline"

    def __init__(
        self, total_rows: int = 2 * 1024 * 1024, telemetry=None
    ) -> None:
        super().__init__(telemetry)
        self.total_rows = total_rows

    @property
    def visible_rows(self) -> int:
        return self.total_rows

    def _translate(self, logical_row: int) -> Tuple[int, float, Optional[object]]:
        if not 0 <= logical_row < self.total_rows:
            raise ValueError(f"row {logical_row} outside memory")
        return logical_row, 0.0, None

    def _observe(self, physical_row: int) -> bool:
        return False

    def _observe_batch(self, physical_row: int, n: int) -> int:
        return 0

    def _mitigate(
        self, logical_row: int, physical_row: int, now_ns: float
    ) -> AccessResult:  # pragma: no cover - never reached
        raise AssertionError("NoMitigation never mitigates")

    def access_epoch(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        start_ns: float,
        dt_ns: float,
    ) -> None:
        """With no tracker and identity translation, an epoch is pure
        bulk arithmetic: the access counter and the final timestamp."""
        if self.telemetry.enabled or not self._epoch_fast_path_ok(
            rows, counts
        ):
            return self._scalar_epoch(rows, counts, start_ns, dt_ns)
        total = int(counts.sum())
        last_now = start_ns + dt_ns * (total - int(counts[-1]))
        epoch_of = self.refresh.epoch_of
        if epoch_of(start_ns) != epoch_of(last_now):
            return self._scalar_epoch(rows, counts, start_ns, dt_ns)
        self._sync_epoch(start_ns)
        self.stats.accesses += total
        self.now_ns = last_now
