"""Mapping between flat rank-local row ids and decoded DRAM coordinates.

The simulator names rows with a *rank-local row id* in
``[0, rows_per_rank)``; this module converts between that flat namespace,
full physical byte addresses, and decoded ``RowAddress`` tuples.

Three interleavings are supported:

* ``"interleaved"`` (default) -- consecutive row ids round-robin across
  banks, the common open-page mapping which maximises bank-level
  parallelism for streaming workloads.
* ``"blocked"`` -- a bank holds a contiguous range of row ids.
* ``"scrambled"`` -- like interleaved, but the *physical array order*
  of rows within a bank is a vendor-proprietary permutation of the
  logical row number (real DRAMs remap rows internally for repair and
  layout reasons).  ``bank_row_of`` still returns the logical in-bank
  index the memory controller sees; :meth:`AddressMapper.neighbors`
  returns *true physical* adjacency, which under scrambling differs
  from what a controller assuming linear order would refresh.

The scrambled policy makes Table IV's third row executable: a
victim-refresh defense that guesses adjacency from controller-visible
addresses refreshes the wrong rows, while AQUA never needs adjacency
at all.
"""

from __future__ import annotations

import numpy as np

from repro.dram.geometry import DramGeometry, RowAddress


_VALID_POLICIES = ("interleaved", "blocked", "scrambled")

#: Fold width of the vendor scramble: physical array order interleaves
#: even logical rows first, then odd ones (a simple stand-in for real
#: vendors' proprietary remaps -- what matters is that logical
#: neighbours are not physical neighbours).
_SCRAMBLE_STRIDE = 2


class AddressMapper:
    """Translate between row ids, physical addresses and coordinates."""

    def __init__(
        self,
        geometry: DramGeometry,
        policy: str = "interleaved",
    ) -> None:
        if policy not in _VALID_POLICIES:
            raise ValueError(
                f"unknown mapping policy {policy!r}; expected one of "
                f"{_VALID_POLICIES}"
            )
        self.geometry = geometry
        self.policy = policy

    def bank_of(self, row_id):
        """Bank index (within the rank) that holds ``row_id``.

        An integer array of row ids maps elementwise, with one bounds
        check for the whole array: per-bank trackers partition an
        epoch's distinct rows this way in one call.
        """
        if isinstance(row_id, np.ndarray):
            if row_id.size:
                self.geometry.validate_row(int(row_id.min()))
                self.geometry.validate_row(int(row_id.max()))
        else:
            self.geometry.validate_row(row_id)
        if self.policy == "interleaved":
            return row_id % self.geometry.banks_per_rank
        return row_id // self.geometry.rows_per_bank

    def bank_row_of(self, row_id: int) -> int:
        """Row index within its bank for ``row_id``."""
        self.geometry.validate_row(row_id)
        if self.policy == "interleaved":
            return row_id // self.geometry.banks_per_rank
        return row_id % self.geometry.rows_per_bank

    def decode(self, row_id: int, channel: int = 0, rank: int = 0) -> RowAddress:
        """Decode a rank-local row id to a full ``RowAddress``."""
        return RowAddress(
            channel=channel,
            rank=rank,
            bank=self.bank_of(row_id),
            row=self.bank_row_of(row_id),
        )

    def encode(self, bank: int, bank_row: int) -> int:
        """Inverse of :meth:`decode` for the rank-local portion."""
        geo = self.geometry
        if not 0 <= bank < geo.banks_per_rank:
            raise ValueError(f"bank {bank} outside rank of {geo.banks_per_rank}")
        if not 0 <= bank_row < geo.rows_per_bank:
            raise ValueError(
                f"bank row {bank_row} outside bank of {geo.rows_per_bank}"
            )
        if self.policy == "interleaved":
            return bank_row * geo.banks_per_rank + bank
        return bank * geo.rows_per_bank + bank_row

    def row_of_byte_address(self, address: int) -> int:
        """Rank-local row id containing physical byte ``address``."""
        row_id = address // self.geometry.row_bytes
        self.geometry.validate_row(row_id)
        return row_id

    def byte_address_of_row(self, row_id: int) -> int:
        """First physical byte address of ``row_id``."""
        self.geometry.validate_row(row_id)
        return row_id * self.geometry.row_bytes

    def physical_order_of(self, bank_row: int) -> int:
        """Position of a logical in-bank row in the physical array.

        Identity for the linear policies; the vendor permutation for
        ``"scrambled"`` (even logical rows occupy the lower half of the
        array, odd rows the upper half).
        """
        rows = self.geometry.rows_per_bank
        if not 0 <= bank_row < rows:
            raise ValueError(f"bank row {bank_row} outside bank of {rows}")
        if self.policy != "scrambled":
            return bank_row
        half = rows // 2
        if bank_row % _SCRAMBLE_STRIDE == 0:
            return bank_row // _SCRAMBLE_STRIDE
        return half + bank_row // _SCRAMBLE_STRIDE

    def bank_row_at_physical(self, position: int) -> int:
        """Inverse of :meth:`physical_order_of`."""
        rows = self.geometry.rows_per_bank
        if not 0 <= position < rows:
            raise ValueError(f"position {position} outside bank of {rows}")
        if self.policy != "scrambled":
            return position
        half = rows // 2
        if position < half:
            return position * _SCRAMBLE_STRIDE
        return (position - half) * _SCRAMBLE_STRIDE + 1

    def neighbors(self, row_id: int, distance: int = 1) -> list:
        """Rows *physically* adjacent to ``row_id`` at the given distance.

        Adjacency is within the same bank, in the bank's physical array
        order (which under the ``"scrambled"`` policy differs from the
        controller-visible row numbering).  Used by the victim-refresh
        baseline and the disturbance oracle.
        """
        if distance < 1:
            raise ValueError("distance must be >= 1")
        bank = self.bank_of(row_id)
        position = self.physical_order_of(self.bank_row_of(row_id))
        result = []
        for offset in (-distance, distance):
            candidate = position + offset
            if 0 <= candidate < self.geometry.rows_per_bank:
                result.append(
                    self.encode(bank, self.bank_row_at_physical(candidate))
                )
        return result

    def assumed_neighbors(self, row_id: int, distance: int = 1) -> list:
        """Adjacency a controller would *guess* from visible addresses.

        A victim-refresh implementation without the vendor's mapping
        refreshes these rows; under ``"scrambled"`` they are not the
        true physical neighbours (Table IV's pitfall).
        """
        if distance < 1:
            raise ValueError("distance must be >= 1")
        bank = self.bank_of(row_id)
        bank_row = self.bank_row_of(row_id)
        result = []
        for offset in (-distance, distance):
            candidate = bank_row + offset
            if 0 <= candidate < self.geometry.rows_per_bank:
                result.append(self.encode(bank, candidate))
        return result
