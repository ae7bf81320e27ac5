"""The process-wide glibc heap policy, applied once when kronblock is imported.

A training step allocates and frees the same multi-MiB temporaries every
step. Under glibc's defaults they often land on fresh pages, each of which
costs a minor fault on first touch:

- glibc returns the freed top of the heap to the system once it exceeds
  ``M_TRIM_THRESHOLD`` (128 KiB by default), so the next step maps it again;
- glibc raises its mmap threshold each time a mapped block is freed, so
  whether a block comes from the heap or from a fresh mapping depends on
  what the process happened to free before.

The policy fixes ``M_MMAP_THRESHOLD`` at 32 MiB, glibc's maximum on 64-bit
hosts, and sets ``M_TRIM_THRESHOLD`` far above what one step frees. Blocks
up to 32 MiB then come from the heap, whose freed pages stay mapped for the
next step; larger blocks are still mapped and unmapped one by one. Where
libc has no ``mallopt`` (any libc but glibc's), nothing changes.
"""

from __future__ import annotations

import ctypes

M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter numbers
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 256 * 2**20


def apply_policy() -> bool:
    """Set both thresholds through ``mallopt``; True when both took."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    return mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1 and mmap_set


# what run_info.json records
POLICY = {"applied": apply_policy(), "mmap_threshold": MMAP_THRESHOLD,
          "trim_threshold": TRIM_THRESHOLD}
