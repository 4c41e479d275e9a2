"""Deterministic row-address hash shared by the table and tracker models.

The CAT's skewed indexing, the set-associative ablation table and the
counting bloom filters all hash row ids with :func:`mix`.  It lives
below both :mod:`repro.core` and :mod:`repro.trackers` so neither
package imports the other for it.
"""

from __future__ import annotations


def mix(value: int, seed: int) -> int:
    """Deterministic 64-bit hash mix (xorshift-multiply)."""
    value = (value ^ seed) & 0xFFFFFFFFFFFFFFFF
    value = (value * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 29
    value = (value * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 32
    return value
