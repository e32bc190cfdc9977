"""Carrier subsets as arbitrary-size int bitmasks (bit i = carrier index i),
and the first-minimizer scan over unions of such masks."""

from concurrent.futures import ThreadPoolExecutor
from math import prod

import numpy as np


def mask_from_indices(n: int, indices) -> int:
    """Build a mask from an iterable/array of carrier indices."""
    buf = np.zeros(n, dtype=np.uint8)
    buf[np.asarray(indices, dtype=np.int64)] = 1
    return int.from_bytes(np.packbits(buf, bitorder="little").tobytes(), "little")


def indices_from_mask(mask: int) -> list[int]:
    out = []
    idx = 0
    while mask:
        tz = (mask & -mask).bit_length() - 1
        idx += tz
        out.append(idx)
        mask >>= tz + 1
        idx += 1
    return out


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def lowest_bit(mask: int) -> int:
    if mask == 0:
        raise ValueError("empty mask")
    return (mask & -mask).bit_length() - 1


def min_union_scan(base: int, choices, workers: int = 1) -> tuple[int, tuple[int, ...]]:
    """First minimizer of popcount(base | choices[0][i_0] | choices[1][i_1] | ...).

    Index tuples are ranked mixed-radix with position 0 varying fastest and
    scanned in rank order; the lowest-ranked tuple reaching the minimum
    wins.  With several workers each thread scans one contiguous rank range
    and the ranges are merged in order, so the result never depends on the
    worker count.  Returns the minimum and the minimizing indices.
    """
    sizes = [len(c) for c in choices]
    total = prod(sizes)

    def scan(lo: int, hi: int) -> tuple[int | None, int]:
        best_val = None
        best_rank = -1
        for rank in range(lo, hi):
            t = rank
            mask = base
            for j, size in enumerate(sizes):
                mask |= choices[j][t % size]
                t //= size
            val = mask.bit_count()
            if best_val is None or val < best_val:
                best_val = val
                best_rank = rank
        return best_val, best_rank

    if workers <= 1 or total < 4:
        best_val, best_rank = scan(0, total)
    else:
        chunk = -(-total // workers)
        bounds = [(i * chunk, min((i + 1) * chunk, total)) for i in range(workers)]
        bounds = [(lo, hi) for lo, hi in bounds if lo < hi]
        with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
            results = list(pool.map(lambda b: scan(*b), bounds))
        best_val, best_rank = None, -1
        for val, rank in results:  # chunks are rank-ordered; first minimum wins
            if val is not None and (best_val is None or val < best_val):
                best_val, best_rank = val, rank

    digits = []
    for size in sizes:
        digits.append(best_rank % size)
        best_rank //= size
    return best_val, tuple(digits)
