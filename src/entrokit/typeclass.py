"""Counting, ranking and unranking inside block-frequency type classes.

A type class is the set of sequences sharing a fixed m-symbol prefix and a
fixed table of (m+1)-block counts.  Such a sequence is exactly a walk on the
context graph (nodes = contexts in A**m, one edge per counted block), so

- the class size is the number of walks from the prefix context that consume
  every edge exactly its count: a factorial prefactor times the number of
  spanning in-branchings rooted at the walk's forced end context
  (BEST theorem: directed matrix-tree theorem applied to the count
  Laplacian, whose minor is taken over the contexts that still have edges);
- the lexicographic rank is the running sum, over positions, of the
  completion counts of all smaller-symbol branches.

Completion counts along a walk differ from the current count by one edge
decrement, so branch evaluations and steps are rank-one updates of the
Laplacian minor.  We keep its determinant and adjugate as exact integers and
update both per step (matrix determinant lemma plus the adjugate update
identity) instead of taking a fresh determinant per branch: O(alphabet +
k**2) operations per symbol on integers of about k * log2(n) bits.  The
completion count and the rank, integers of up to log2 |T| bits, are carried
through a chunk of up to CHUNK_STEPS symbols as small-integer fractions and
updated once per chunk, by two products and two exact divisions with a
divisor of about CHUNK_STEPS * log2(n) bits; unrank decides its branches on
their top bits and takes full products only when those cannot decide.

``type_class_size``, ``rank_in_type_class`` and ``unrank`` are exact; counts
overflow 64 bits almost immediately and are kept as Python ints.  Codelengths
need only the index-field width ceil(log2 |T|), which ``index_width`` takes
from floating point (``lgamma`` sums and ``slogdet`` of the minor) whenever an
a-priori error bound certifies the ceiling, and from the exact size otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRangeError, InfeasibleError, TooShortError, ValidationError
from .models import Alphabet, SymbolSequence


@dataclass(frozen=True)
class BlockFrequencyVector:
    """(m+1)-block count table of a sequence plus its m-symbol prefix.

    counts[j] is the number of windows equal to the j-th element of A**(m+1)
    (context digits most significant, next symbol least significant); they
    sum to n - m.
    """

    alphabet: Alphabet
    order: int
    prefix: tuple[int, ...]
    counts: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        l = self.alphabet.size
        if len(self.prefix) != self.order:
            raise ValidationError("descriptor: prefix length must equal order")
        if len(self.counts) != l ** (self.order + 1):
            raise ValidationError("descriptor: counts must have l**(m+1) entries")
        if any(c < 0 for c in self.counts):
            raise ValidationError("descriptor: counts must be non-negative")
        if sum(self.counts) != self.n - self.order:
            raise ValidationError("descriptor: counts must sum to n - m")

    @property
    def l(self) -> int:
        return self.alphabet.size

    def frequencies(self) -> np.ndarray:
        denom = max(self.n - self.order, 1)
        return np.asarray(self.counts, dtype=float) / denom


def block_frequencies(seq: SymbolSequence, m: int) -> BlockFrequencyVector:
    """Count all (m+1)-blocks of the sequence (positions m+1..n)."""
    if m < 0:
        raise ValidationError("m must be non-negative")
    n = len(seq)
    if n < m:
        raise TooShortError(f"sequence of length {n} is shorter than m = {m}")
    l = seq.alphabet.size
    data = seq.data
    n_windows = n - m
    if n_windows == 0:
        counts = np.zeros(l ** (m + 1), dtype=np.int64)
    else:
        codes = np.zeros(n_windows, dtype=np.int64)
        for j in range(m + 1):
            codes = codes * l + data[j : j + n_windows]
        counts = np.bincount(codes, minlength=l ** (m + 1)).astype(np.int64)
    return BlockFrequencyVector(
        alphabet=seq.alphabet,
        order=m,
        prefix=tuple(int(v) for v in data[:m]),
        counts=tuple(int(c) for c in counts),
        n=n,
    )


# -- integer linear algebra ---------------------------------------------------


def _det_bareiss(mat: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    k = len(mat)
    if k == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for r in range(k - 1):
        if a[r][r] == 0:
            for i in range(r + 1, k):
                if a[i][r] != 0:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                return 0
        arr = a[r]
        piv = arr[r]
        for i in range(r + 1, k):
            ai = a[i]
            f = ai[r]
            for j in range(r + 1, k):
                ai[j] = (piv * ai[j] - f * arr[j]) // prev
        prev = piv
    return sign * a[k - 1][k - 1]


def _adjugate(mat: list[list[int]], det: int) -> list[int]:
    """Adjugate adj = det * inv of a nonsingular integer matrix (exact, row-major flat list).

    Fraction-free Gauss-Jordan elimination of [mat | I]: after the step on
    column r every entry is an (r+1)-order minor, so each division by the
    previous pivot is exact.  The row operations E give E mat = p I with p the
    last pivot, hence E = p * inv(mat) and adj = (det / p) * E, det = +-p.
    """
    k = len(mat)
    aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(mat)]
    prev = 1
    for r in range(k):
        piv = next((i for i in range(r, k) if aug[i][r]), None)
        if piv is None:
            raise InfeasibleError("adjugate of singular matrix requested")
        aug[r], aug[piv] = aug[piv], aug[r]
        row_r = aug[r]
        p = row_r[r]
        for i in range(k):
            if i != r:
                row_i = aug[i]
                f = row_i[r]
                aug[i] = [(p * v - f * w) // prev for v, w in zip(row_i, row_r)]
        prev = p
    if prev not in (det, -det):
        raise InfeasibleError("adjugate elimination disagrees with the determinant")
    scale = det // prev
    return [scale * v for row in aug for v in row[k:]]


# -- walk counting ------------------------------------------------------------


@dataclass
class _WalkGraph:
    """Where a walk consuming every counted block starts and ends, and its out-degrees.

    ``active`` lists the contexts other than ``end`` that have out-edges.
    In the full minor (row and column ``end`` removed) every other context
    has an identity row, and no active row has an entry in its column, since
    every edge ends at the end or at an active context.  So the minor is
    taken over the active contexts alone; its determinant is the same.
    """

    start: int
    end: int
    out: list[int]
    active: list[int]


def _walk_graph(desc: BlockFrequencyVector) -> _WalkGraph | None:
    """Flow analysis of the count multigraph; None when no walk can consume it.

    Every context is left as often as it is entered, except that the start
    is left once more and the forced end entered once more (a closed walk
    ends where it starts).
    """
    l, m = desc.l, desc.order
    start = 0
    for s in desc.prefix:
        start = start * l + s
    table = np.asarray(desc.counts, dtype=np.int64).reshape(-1, l)
    out = table.sum(axis=1)
    # (c mod l**(m-1)) * l + x is entered from the l contexts c sharing their last m-1 symbols
    into = table.reshape(l, -1).sum(axis=0) if m else out
    if not out.any():
        return _WalkGraph(start, start, out.tolist(), [])
    diff = out - into
    moved = np.flatnonzero(diff)
    end = start
    if moved.size:
        ends = moved[diff[moved] == -1]
        if moved.size != 2 or diff[start] != 1 or ends.size != 1:
            return None
        end = int(ends[0])
    if out[start] == 0:
        return None
    return _WalkGraph(start, end, out.tolist(), [int(c) for c in np.flatnonzero(out) if c != end])


def _laplacian_minor(counts, l: int, m: int, walk: _WalkGraph) -> list[list[int]]:
    """Out-degree Laplacian of the count multigraph over the active contexts."""
    pos = {c: i for i, c in enumerate(walk.active)}
    n_ctx = l**m
    a = [[0] * len(pos) for _ in pos]
    for c, i in pos.items():
        row = a[i]
        row[i] += walk.out[c]
        for idx in range(c * l, (c + 1) * l):
            cnt = counts[idx]
            c2 = idx % n_ctx  # block (c, x) leads to context (c mod l**(m-1)) * l + x
            if cnt and c2 != walk.end:
                row[pos[c2]] -= cnt
    return a


def _prefactor(counts, l: int, walk: _WalkGraph) -> tuple[list[tuple[int, ...]], list[int]]:
    """(rows, degrees) with |T| = det(minor) * prod(multinomial(row)) / prod(degrees).

    ``rows`` are the count rows of the end and the active contexts and
    ``degrees`` the out-degrees of the active contexts: every active context
    of out-degree r contributes (r - 1)! / prod(count!), the end context r! /
    prod(count!).  The quotient alone need not be an integer.
    """
    rows = [tuple(counts[c * l : (c + 1) * l]) for c in (walk.end, *walk.active)]
    return rows, [walk.out[c] for c in walk.active]


def _multinomial(row: tuple[int, ...]) -> int:
    w = 1
    total = 0
    for cnt in row:
        total += cnt
        w *= math.comb(total, cnt)
    return w


class _WalkCounter:
    """Incremental branch evaluator over a block-count walk state.

    Tracks the remaining counts, the current context, and the
    determinant/adjugate of the count Laplacian minor at the forced end
    context (an empty minor for m = 0, where the class size is a
    multinomial).  ``size`` is the completion count at the start, |T|; the
    callers carry the completion count along the walk themselves.
    """

    def __init__(self, desc: BlockFrequencyVector, need_adjugate: bool) -> None:
        self.l = desc.l
        self.n_ctx = desc.l**desc.order  # block c * l + x leads to context (c * l + x) % n_ctx
        self.counts = list(desc.counts)
        self.size = 0
        walk = _walk_graph(desc)
        if walk is None:
            return
        self.ctx, self.end, self.r = walk.start, walk.end, walk.out
        self.pos = {c: i for i, c in enumerate(walk.active)}
        a = _laplacian_minor(self.counts, self.l, desc.order, walk)
        self.d = _det_bareiss(a)
        if self.d == 0:
            return
        self.adj = _adjugate(a, self.d) if need_adjugate else None
        rows, degrees = _prefactor(self.counts, self.l, walk)
        self.size = math.prod(map(_multinomial, rows)) * self.d // math.prod(degrees)

    # stepping -----------------------------------------------------------

    def _delta_row(self, c: int, c2: int) -> tuple[int, int]:
        """(diagonal, off-diagonal) change of Laplacian row c when edge (c, c2) is consumed."""
        if c2 == c:
            return 0, 0  # self-loop: out-degree and loop count cancel
        ddiag = -1 if self.r[c] >= 2 else 0  # at r == 1 the row turns into an identity row
        doff = 1 if c2 != self.end else 0
        return ddiag, doff

    def branches(self) -> tuple[list[int], int]:
        """(weights, degree) of the l branches at the current context.

        weights[x] is the block count times the determinant after consuming
        edge (ctx, x), 0 for a dead branch.  With W completions now, W *
        weights[x] / (degree * d) of them start with x, exactly, for every x.
        """
        c, l, d = self.ctx, self.l, self.d
        row = self.counts[c * l : (c + 1) * l]
        if c == self.end:
            # in-branchings ignore the root's out-edges: no branch moves the determinant
            return (row if d == 1 else [cnt * d for cnt in row]), self.r[c]
        adj, k, pc, end, n_ctx = self.adj, len(self.pos), self.pos[c], self.end, self.n_ctx
        r = self.r[c]
        # the determinant lemma on _delta_row's change: an edge into the end
        # context only lowers row c's diagonal, any other edge also raises column c2
        d_end = d - adj[pc * k + pc] if r >= 2 else d
        weights = []
        for idx, cnt in enumerate(row, c * l):
            if not cnt:
                weights.append(0)
                continue
            c2 = idx % n_ctx
            dd = d if c2 == c else d_end if c2 == end else d_end + adj[self.pos[c2] * k + pc]
            weights.append(cnt * dd if dd > 0 else 0)
        return weights, max(r - 1, 1)

    def advance(self, x: int, weight: int) -> int:
        """Consume symbol x, whose branch weight from ``branches`` is ``weight``.

        Returns the block's count before the step: the completion count
        moves by the factor count * d_after / (degree * d_before), where d is
        the determinant ``self.d`` around the step.
        """
        c = self.ctx
        idx = c * self.l + x
        cnt = self.counts[idx]
        if weight <= 0:
            raise InfeasibleError("advance through a dead branch")
        c2 = idx % self.n_ctx
        if c != self.end:
            ddiag, doff = self._delta_row(c, c2)
            if ddiag or doff:
                dd = weight // cnt
                adj, d, k, pc = self.adj, self.d, len(self.pos), self.pos[c]
                # roww = doff * adj[c2, :] + ddiag * adj[c, :], ddiag in {-1, 0}, doff in {0, 1}
                row_c = adj[pc * k : (pc + 1) * k]
                if doff:
                    p2 = self.pos[c2]
                    row_2 = adj[p2 * k : (p2 + 1) * k]
                    roww = [u - v for u, v in zip(row_2, row_c)] if ddiag else row_2
                else:
                    roww = [-v for v in row_c]
                # adj' = (dd * adj - adj[:, pc] (x) roww) / d, all in one flat pass
                col = [ci for ci in adj[pc::k] for _ in range(k)]
                self.adj = [(dd * a - ci * rj) // d for a, ci, rj in zip(adj, col, roww * k)]
                self.d = dd
        self.counts[idx] = cnt - 1
        self.r[c] -= 1
        self.ctx = c2
        return cnt


def type_class_size(desc: BlockFrequencyVector) -> int:
    """Exact number of sequences sharing the descriptor (0 if infeasible)."""
    return _WalkCounter(desc, need_adjugate=False).size


UNIT_ROUNDOFF = 2.0**-53
MIN_MARGIN = 1e-6
LN2 = math.log(2.0)


def index_width(desc: BlockFrequencyVector) -> int:
    """Index-field width ceil(log2 |T|): 0 when |T| <= 1, InfeasibleError when |T| = 0.

    Floating point gives L = (S + D) / ln 2, where S is the ``math.fsum`` of
    the prefactor's signed ``lgamma`` and ``log`` terms t and D the ``slogdet``
    log-determinant of the transposed k x k Laplacian minor.  ceil(L) is
    returned only when the determinant's sign is +1 and L lies farther than

        delta = max(1e-6, E / ln 2 + 4 u |L|),
        E = 16 u sum|t| + u |S| + k**2 u (8 kappa + 4 ln(2 r_max))

    from an integer, where u = 2**-53, kappa is the minor's 1-norm condition
    number and r_max the largest out-degree.  E bounds, in order: each term
    to 16 ulps (CPython's lgamma stays within 5 ulps on integers), the single
    rounding of fsum, and the LU factorization's first-order log-determinant
    error plus the rounding of its k pivot logarithms.  The transposed minor
    is column diagonally dominant, so partial pivoting exchanges no rows and
    the growth factor is at most 2.  Every other case, including |T| = 1 and
    every power-of-two class (L an integer), takes the exact size.
    """
    walk = _walk_graph(desc)
    if walk is not None:
        width = _certified_width(desc, walk)
        if width is not None:
            return width
    size = type_class_size(desc)
    if size == 0:
        raise InfeasibleError("descriptor is infeasible (empty type class)")
    return (size - 1).bit_length()


def _certified_width(desc: BlockFrequencyVector, walk: _WalkGraph) -> int | None:
    """ceil(log2 |T|) from floating point, or None when the bound in index_width cannot certify it."""
    rows, degrees = _prefactor(desc.counts, desc.l, walk)
    terms = [math.lgamma(sum(row) + 1) for row in rows]
    terms += [-math.lgamma(cnt + 1) for row in rows for cnt in row if cnt > 1]
    terms += [-math.log(r) for r in degrees if r > 1]
    s = math.fsum(terms)
    err = 16 * UNIT_ROUNDOFF * math.fsum(map(abs, terms)) + UNIT_ROUNDOFF * abs(s)
    logdet = 0.0
    k = len(walk.active)
    if k:
        minor = np.array(_laplacian_minor(desc.counts, desc.l, desc.order, walk), dtype=float).T
        sign, logdet = np.linalg.slogdet(minor)
        if sign != 1.0:
            return None
        kappa = np.linalg.cond(minor, 1)
        err += k * k * UNIT_ROUNDOFF * (8 * kappa + 4 * math.log(2 * max(walk.out)))
    if not err < 0.5 * LN2:  # also rejects a NaN or infinite condition number
        return None
    log2_size = (s + float(logdet)) / LN2
    margin = max(MIN_MARGIN, err / LN2 + 4 * UNIT_ROUNDOFF * abs(log2_size))
    floor = math.floor(log2_size)
    if min(log2_size - floor, floor + 1 - log2_size) <= margin:
        return None
    return floor + 1


# A chunk of walk steps is carried in small integers (t, p, q): with W
# completions and rank (or remaining index) R at the chunk start, the rank
# has grown to R + W * t / q and the completion count is W * p * d / q, d the
# walker's current determinant.  q starts at d and takes each step's degree,
# p each chosen block's count; the determinants in between cancel.  The big
# integers W and R are touched once per chunk, where both divisions by q are
# exact: every partial sum is a sum of completion counts.  A chunk closes
# after CHUNK_STEPS steps, or once it has consumed more than CHUNK_BITS index
# bits, log2(W / W_now) = log2(q / (p * d)) to within two bits.
CHUNK_STEPS = 32
CHUNK_BITS = 64
# unrank decides each branch test on the top UNRANK_PRECISION_BITS bits of W
# and R, and on the full integers only when those cannot decide it; the
# margin over CHUNK_BITS keeps that rare
UNRANK_PRECISION_BITS = 128


def rank_in_type_class(seq: SymbolSequence, m: int) -> int:
    """Lexicographic index of the sequence inside its own type class."""
    desc = block_frequencies(seq, m)
    walker = _WalkCounter(desc, need_adjugate=True)
    w = walker.size
    if w == 0:
        raise InfeasibleError("sequence descriptor is infeasible")
    rank = 0
    t, p, q, steps = 0, 1, walker.d, 0
    for z in seq.data[m:].tolist():
        weights, degree = walker.branches()
        # the smaller branches' completions, W * p * sum(weights[:z]) / (q * degree)
        t = t * degree + p * sum(weights[:z])
        q *= degree
        p *= walker.advance(z, weights[z])
        steps += 1
        consumed = q.bit_length() - p.bit_length() - walker.d.bit_length()
        if steps == CHUNK_STEPS or consumed > CHUNK_BITS:
            rank += w * t // q
            w = w * p * walker.d // q
            t, p, q, steps = 0, 1, walker.d, 0
    return rank + w * t // q


def unrank(desc: BlockFrequencyVector, index: int) -> SymbolSequence:
    """Inverse of rank_in_type_class for the same descriptor.

    Branch x is taken when the remaining index lies below the completions of
    branches 0..x.  In chunk terms that is R * A < W * B with A = q * degree
    and B = t * degree + p * (weights[0] + ... + weights[x]).  It is decided
    on Rh = R >> s and Wh = W >> s, which place R and W in [Rh, Rh + 1) * 2**s
    and [Wh, Wh + 1) * 2**s, and on the full products only when those
    intervals straddle the threshold.  The last live branch needs no test.
    """
    walker = _WalkCounter(desc, need_adjugate=True)
    w = walker.size
    if w == 0:
        raise InfeasibleError("descriptor is infeasible (empty type class)")
    if not 0 <= index < w:
        raise IndexOutOfRangeError(f"index {index} outside [0, {w})")
    out = list(desc.prefix)
    left = desc.n - desc.order
    rem = index
    while left:
        s = max(w.bit_length() - UNRANK_PRECISION_BITS, 0)
        wh, rh = w >> s, rem >> s
        t, p, q = 0, 1, walker.d
        for _ in range(min(left, CHUNK_STEPS)):
            weights, degree = walker.branches()
            last = len(weights) - 1
            while not weights[last]:
                last -= 1
                if last < 0:
                    raise InfeasibleError("unrank ran out of branches (corrupt descriptor)")
            a = q * degree
            ta = t * degree
            u = 0
            for x in range(last):
                wt = weights[x]
                if wt:
                    b = ta + p * (u + wt)
                    lo, hi = rh * a, wh * b
                    # below for sure, or undecided and below by the full products
                    if lo + a <= hi or (lo < hi + b and rem * a < w * b):
                        break
                    u += wt
            else:
                x = last
            out.append(x)
            t = ta + p * u
            q = a
            p *= walker.advance(x, weights[x])
            left -= 1
            if q.bit_length() - p.bit_length() - walker.d.bit_length() > CHUNK_BITS:
                break
        rem -= w * t // q
        w = w * p * walker.d // q
    return SymbolSequence(desc.alphabet, np.array(out, dtype=np.int64))


def enumerate_type_class(desc: BlockFrequencyVector, limit: int | None = None) -> list[tuple[int, ...]]:
    """Brute-force enumeration in lexicographic order (test oracle; small n only)."""
    l = desc.l
    out: list[tuple[int, ...]] = []

    counts = list(desc.counts)
    ctx0 = 0
    for s in desc.prefix:
        ctx0 = ctx0 * l + s

    def rec(ctx: int, acc: list[int], left: int) -> None:
        if limit is not None and len(out) >= limit:
            return
        if left == 0:
            out.append(tuple(desc.prefix) + tuple(acc))
            return
        base = ctx * l
        for x in range(l):
            if counts[base + x]:
                counts[base + x] -= 1
                acc.append(x)
                nxt = (ctx % (l ** (desc.order - 1))) * l + x if desc.order else 0
                rec(nxt, acc, left - 1)
                acc.pop()
                counts[base + x] += 1

    rec(ctx0, [], desc.n - desc.order)
    return out
