"""Inputs and reference values the benchmark computes apart from entrokit.

- ``markov_walk``: the benchmark's own sampler for codec inputs, so the
  inputs do not depend on the program's samplers.
- ``header_bits``: the codeword's header width from the documented format.
- ``log2_type_class_size``: log2 of the number of sequences sharing a
  sequence's prefix and (m+1)-block counts, by the BEST theorem: a
  factorial prefactor (``lgamma`` sums) times the number of in-branchings
  rooted at the walk's end context (``numpy.linalg.slogdet`` of the count
  Laplacian minor).
- ``expected_index_bits``: ceil(log2 |T|), or None where log2 |T| lies too
  close to an integer for floating point to decide the ceiling.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

LN2 = math.log(2.0)
INTEGER_MARGIN = 1e-6


def markov_walk(transitions, order: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n symbols of an order-``order`` chain; the first ``order`` symbols are uniform."""
    rows = np.asarray(transitions, dtype=float)
    l = rows.shape[1]
    cum = [list(np.cumsum(row)[:-1]) for row in rows]
    low = l ** (order - 1) if order else 1
    u = rng.random(n)
    out = np.empty(n, dtype=np.int64)
    ctx = 0
    for t in range(n):
        x = int(u[t] * l) if t < order else bisect_right(cum[ctx], u[t])
        out[t] = x
        if order:
            ctx = (ctx % low) * l + x
    return out


def header_bits(l: int, m: int, n: int) -> int:
    """Version and alphabet bytes, gamma(m+1), gamma(n+1), prefix symbols, count table."""
    gamma = lambda v: 2 * v.bit_length() - 1  # noqa: E731
    symbol = max(1, (l - 1).bit_length())
    count = (n - m).bit_length() if n > m else 0
    return 16 + gamma(m + 1) + gamma(n + 1) + m * symbol + l ** (m + 1) * count


def log2_type_class_size(data: np.ndarray, l: int, m: int) -> float:
    """log2 |T| for the type class of ``data`` at block order m (BEST theorem)."""
    data = np.asarray(data, dtype=np.int64)
    n = data.size
    if n <= m:
        return 0.0
    k = l**m
    codes = np.zeros(n - m, dtype=np.int64)
    for j in range(m + 1):
        codes = codes * l + data[j : j + n - m]
    counts = np.bincount(codes, minlength=k * l).reshape(k, l)
    out_deg = counts.sum(axis=1)
    end = 0
    for s in data[n - m :]:
        end = end * l + int(s)
    # prod over left contexts of (out - 1)!, with out! at the end context, over prod of count!
    log_e = -sum(math.lgamma(c + 1) for c in counts.ravel() if c > 1)
    for c in np.nonzero(out_deg)[0]:
        log_e += math.lgamma(out_deg[c] + (1 if c == end else 0))
    nodes = [int(c) for c in np.nonzero(out_deg)[0] if c != end]
    if not nodes:
        return log_e / LN2
    pos = {c: i for i, c in enumerate(nodes)}
    lap = np.zeros((len(nodes), len(nodes)))
    low = l ** (m - 1) if m else 1
    for c in nodes:
        i = pos[c]
        lap[i, i] += out_deg[c]
        for x in range(l):
            succ = (c % low) * l + x if m else 0
            if counts[c, x] and succ in pos:
                lap[i, pos[succ]] -= counts[c, x]
    sign, logdet = np.linalg.slogdet(lap)
    if sign <= 0:
        raise ValueError("count Laplacian minor is singular: the counts admit no walk")
    return (log_e + logdet) / LN2


def expected_index_bits(log2_size: float) -> int | None:
    """ceil(log2 |T|), or None when log2 |T| is within INTEGER_MARGIN of an integer."""
    frac = log2_size - math.floor(log2_size)
    if min(frac, 1.0 - frac) < INTEGER_MARGIN:
        return None
    return math.ceil(log2_size)
