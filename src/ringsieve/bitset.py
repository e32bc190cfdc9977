"""Carrier subsets as arbitrary-size int bitmasks (bit i = carrier index i),
and the first-minimizer scan over unions of labelled carrier classes."""

from math import prod

import numpy as np


def mask_from_indices(n: int, indices) -> int:
    """Build a mask from an iterable/array of carrier indices."""
    buf = np.zeros(n, dtype=np.uint8)
    buf[np.asarray(indices, dtype=np.int64)] = 1
    return int.from_bytes(np.packbits(buf, bitorder="little").tobytes(), "little")


def flags_from_mask(n: int, mask: int) -> np.ndarray:
    """Boolean array over an n-element carrier, True at the indices in ``mask``."""
    buf = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(buf, count=n, bitorder="little").view(bool)


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def lowest_bit(mask: int) -> int:
    if mask == 0:
        raise ValueError("empty mask")
    return (mask & -mask).bit_length() - 1


SCAN_CHUNK = 8192  # ranks per numpy pass (divided by the mask width on the bitmask path)
HISTOGRAM_CELLS = 1 << 21  # cap on the histogram cells inclusion-exclusion keeps (8 MB)


def _by_histograms(count: int, sizes) -> bool:
    """Whether inclusion-exclusion scores a scan over ``count`` elements in
    fewer estimated steps than bitmasks do, within HISTOGRAM_CELLS."""
    m, total = len(sizes), prod(sizes)
    cells = prod(s + 1 for s in sizes) - total
    words = -(-count // 64)
    return cells <= HISTOGRAM_CELLS and 2**m * (count + total) + cells <= words * (m * total + sum(sizes))


def min_union_scan(base_flags, labels, sizes) -> tuple[int, tuple[int, ...]]:
    """First minimizer of |base | L_0(i_0) | L_1(i_1) | ...| over index tuples.

    ``base_flags`` marks ``base`` on an n-element carrier and ``labels[j]``
    numbers each element's class L_j(i), 0 <= i < ``sizes[j]``.  Tuples are
    ranked mixed-radix with position 0 varying fastest; the lowest-ranked
    tuple reaching the minimum wins.  Returns the minimum and its indices.

    The union misses the ``count`` elements outside ``base`` whose labels
    avoid every chosen index.  Each chunk of ranks counts them one of two
    exact ways, whichever :func:`_by_histograms` picks:

    * inclusion-exclusion, sum_S (-1)^|S| M_S(i_S) with M_S the joint
      histogram of the labels in S over those elements: proper subsets S
      keep whole histograms, prod(1 + s_j) cells in all, and the full one is
      read off the elements' own ranks, sorted once; about
      2^m (count + tuples) steps;
    * bitmasks: every class as packed 64-bit words over those elements,
      OR-ed along each rank and popcounted; about m * tuples * count/64
      steps, the work of a one-tuple-at-a-time big-int scan.
    """
    outside = ~np.asarray(base_flags, dtype=bool)
    n, m, total = len(outside), len(sizes), prod(sizes)
    count = int(np.count_nonzero(outside))
    if count == 0 or 1 in sizes:  # base or a class is the whole carrier
        return n, (0,) * m
    dtype = np.int32 if total <= np.iinfo(np.int32).max else np.int64
    free = [np.asarray(lab)[outside].astype(dtype) for lab in labels]

    def joint(cols, positions, length):
        """Mixed-radix key of ``cols`` over ``positions``."""
        key = np.zeros(length, dtype=dtype)
        weight = 1
        for j in positions:
            key += cols[j] * weight
            weight *= sizes[j]
        return key

    if _by_histograms(count, sizes):
        step = SCAN_CHUNK
        own_rank = np.sort(joint(free, range(m), count))
        partial = []  # (positions, signed histogram) of every proper subset
        for subset in range(2**m - 1):
            positions = [j for j in range(m) if subset >> j & 1]
            hist = np.bincount(joint(free, positions, count),
                               minlength=prod(sizes[j] for j in positions)).astype(np.int32)
            partial.append((positions, -hist if len(positions) % 2 else hist))

        def missed(lo, hi, digits):
            a, b = np.searchsorted(own_rank, (lo, hi))
            out = (-1) ** m * np.bincount(own_rank[a:b] - lo, minlength=hi - lo)
            for positions, hist in partial:
                out += hist[joint(digits, positions, hi - lo)]
            return out
    else:
        words = -(-count // 64)
        step = max(1, SCAN_CHUNK // words)
        bit = np.arange(count)
        ones = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
        classes = []
        for lab, size in zip(free, sizes):
            mask = np.zeros((size, words), dtype=np.uint64)
            np.bitwise_or.at(mask, (lab, bit // 64), ones)
            classes.append(mask)

        def missed(lo, hi, digits):
            covered = np.zeros((hi - lo, words), dtype=np.uint64)
            for mask, d in zip(classes, digits):
                covered |= mask[d]
            return count - np.bitwise_count(covered).sum(axis=1, dtype=np.int64)

    strides = [prod(sizes[:j]) for j in range(m)]
    best_val, best_rank = None, 0
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        ranks = np.arange(lo, hi, dtype=dtype)
        uncovered = missed(lo, hi, [ranks // stride % size for stride, size in zip(strides, sizes)])
        i = int(np.argmax(uncovered))  # first maximum: lowest rank in the chunk
        if best_val is None or n - uncovered[i] < best_val:  # earlier chunks win ties
            best_val, best_rank = n - int(uncovered[i]), lo + i
    return best_val, tuple(best_rank // stride % size for stride, size in zip(strides, sizes))
