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

A context whose edges all lead to one successor leaves the walk no choice.
Its Laplacian row is a multiple of e_c - e_c2, so it is contracted out of
the minor exactly (a Schur complement), and the minor is kept over the k
*branching* contexts alone, those with two or more live blocks.  Completion
counts along a walk differ from the current count by one edge decrement, so
branch evaluations and steps at a branching context are rank-one updates of
that minor.  We keep its determinant and adjugate as exact integers and
update both per step (matrix determinant lemma plus the adjugate update
identity) instead of taking a fresh determinant per branch: O(alphabet +
k**2) operations per branching symbol on integers of about k * log2(n) bits,
and O(alphabet) with no work on the minor at a forced context or the end.  The
completion count and the rank, integers of up to log2 |T| bits, are carried
through a chunk of up to CHUNK_STEPS symbols as small-integer fractions and
updated once per chunk, by two products and two exact divisions with a
divisor of about CHUNK_STEPS * log2(n) bits; unrank decides its branches on
their top bits and takes full products only when those cannot decide.

``type_class_size``, ``rank_in_type_class`` and ``unrank`` are exact; counts
overflow 64 bits almost immediately and are kept as Python ints.  Codelengths
need only the index-field width ceil(log2 |T|), which ``index_widths`` takes
for a whole count table at once from floating point (``lgamma`` sums and one
``slogdet`` over the stacked minors) whenever an a-priori error bound
certifies the ceiling, and from the exact size otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRangeError, InfeasibleError, TooShortError, ValidationError
from .models import Alphabet, BlockCounter, SymbolSequence


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


def block_counts(seq: SymbolSequence, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, prefix) of ``block_frequencies(seq, m)`` as int64 arrays, one row of the walker's (counts, heads)."""
    if m < 0:
        raise ValidationError("m must be non-negative")
    if len(seq) < m:
        raise TooShortError(f"sequence of length {len(seq)} is shorter than m = {m}")
    counter = BlockCounter(seq.alphabet.size, m, 1, m)  # the walker's counter, fed one path
    counter.add_symbols(seq.data[:, None])
    counts, heads = counter.result()
    return counts[0], heads[0]


def block_frequencies(seq: SymbolSequence, m: int) -> BlockFrequencyVector:
    """Count all (m+1)-blocks of the sequence (positions m+1..n)."""
    counts, prefix = block_counts(seq, m)
    return BlockFrequencyVector(seq.alphabet, m, tuple(prefix.tolist()), tuple(counts.tolist()), len(seq))


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
class _Flow:
    """Flow analysis of a batch of count multigraphs, one row per descriptor.

    A walk consuming every counted block leaves each context as often as it
    enters it, except that the start is left once more and the end entered
    once more (a closed walk ends where it starts). A context other than the
    end is *branching* when at least two of its blocks are counted and
    *forced* when one is: r copies of one edge. Row c of a forced context in
    the Laplacian minor is r * (e_c - e_c2), so a Schur complement on that
    pivot gives det = r * det(L / c), where L / c sends every edge that
    entered c on to c2. Contracting every forced context leaves a minor over
    the branching contexts alone, in which an edge into context s leads to
    ``target[s]``: the first branching context or the end along the forced
    chain from s (s itself when s is not forced). The forced factors r
    cancel against the forced contexts' prefactors, r * (r - 1)! / r! = 1,
    so only the end and the branching contexts enter ``_prefactor``. A
    context other than the end without out-edges has an identity row and no
    entry in its column, since no edge enters it, so it drops out as well.

    A row is infeasible when its flow is broken, when the start has no
    out-edge although blocks are counted, or when a forced chain closes on
    itself without reaching a branching context or the end, so that the
    walk could never leave it.
    """

    table: np.ndarray  # (rows, l**m, l) counts
    start: np.ndarray  # (rows,) context codes
    end: np.ndarray
    out: np.ndarray  # (rows, l**m) out-degrees
    branching: np.ndarray  # (rows, l**m) bool
    whole: np.ndarray  # (rows, l**m) bool: the branching contexts and the end
    target: np.ndarray  # (rows, l**m) context codes
    feasible: np.ndarray  # (rows,) bool

    def minors(self, rows: np.ndarray, size: int) -> np.ndarray:
        """The transposed contracted minors of ``rows``, each padded with an identity block to size x size.

        Row g's minor is taken over its branching contexts in code order: each
        counted block from a branching context c into t adds its count at
        [c, c] and subtracts it at [t, c]; the end's entries go to a row past
        the minor, which is dropped.
        """
        n_ctx, l = self.table.shape[1:]
        branching, table = self.branching[rows], self.table[rows]
        pos = np.where(branching, branching.cumsum(axis=1) - 1, size)
        g, c, x = (branching[:, :, None] & (table > 0)).nonzero()
        count = table[g, c, x]
        column = g * (size + 1) * size + pos[g, c]
        t = pos[g, self.target[rows][g, (c * l + x) % n_ctx]]
        stack = np.bincount(
            np.concatenate([column + pos[g, c] * size, column + t * size]),
            np.concatenate([count, -count]),
            minlength=len(rows) * (size + 1) * size,
        ).reshape(len(rows), (size + 1) * size)
        stack[:, : size * size : size + 1] += np.arange(size) >= branching.sum(axis=1)[:, None]  # the padding
        return stack.reshape(len(rows), size + 1, size)[:, :size]


def _flow(l: int, m: int, counts: np.ndarray, heads: np.ndarray) -> _Flow:
    """Flow analysis of the (rows, l**(m+1)) count table whose prefixes are heads[:, :m]."""
    n_ctx = l**m
    rows = np.arange(len(counts))
    table = counts.reshape(-1, n_ctx, l)
    live = table > 0
    start = heads[:, :m] @ l ** np.arange(m - 1, -1, -1)
    out = table.sum(axis=2)
    # (c mod l**(m-1)) * l + x is entered from the l contexts c sharing their
    # last m-1 symbols, so flux = out - in - e_start sums to -1, and a walk
    # needs it to be -e_end: no entry above 0
    flux = out - counts.reshape(-1, l, n_ctx).sum(axis=1)
    flux[rows, start] -= 1
    end = flux.argmin(axis=1)
    feasible = (flux.max(axis=1) <= 0) & ((out[rows, start] > 0) == out.any(axis=1))
    n_live = live.sum(axis=2)
    branching = n_live > 1
    branching[rows, end] = False
    whole = branching.copy()
    whole[rows, end] = True
    forced = n_live == 1
    forced[rows, end] = False
    target = np.zeros_like(out) + np.arange(n_ctx)
    if forced.any():
        # flat codes r * n_ctx + c: forced contexts point at their one
        # successor and the rest at themselves; after s doublings each points
        # 2**s steps on, so n_ctx.bit_length() doublings pass any forced chain
        base = rows[:, None] * n_ctx
        target = np.where(forced, (target * l + live.argmax(axis=2)) % n_ctx, target) + base
        for _ in range(n_ctx.bit_length()):
            target = target.ravel()[target]
        feasible &= ~forced.ravel()[target].any(axis=1)
        target -= base
    return _Flow(table, start, end, out, branching, whole, target, feasible)


@dataclass
class _WalkGraph:
    """One descriptor's ``_Flow``: where its walk starts and ends, its out-degrees, its choices and its minor.

    ``minor`` is the integer out-degree Laplacian minor over the branching
    contexts, the transpose of ``_Flow.minors``.
    """

    start: int
    end: int
    out: list[int]
    branching: list[int]
    target: list[int]
    minor: list[list[int]]


def _walk_graph(desc: BlockFrequencyVector) -> _WalkGraph | None:
    """Flow analysis of the descriptor's count multigraph; None when no walk can consume it."""
    flow = _flow(desc.l, desc.order, np.array([desc.counts], dtype=np.int64), np.array([desc.prefix], dtype=np.int64))
    if not flow.feasible[0]:
        return None
    branching = np.flatnonzero(flow.branching[0])
    minor = flow.minors(np.array([0]), branching.size)[0].T.astype(np.int64)
    return _WalkGraph(
        int(flow.start[0]), int(flow.end[0]), flow.out[0].tolist(), branching.tolist(),
        flow.target[0].tolist(), minor.tolist(),
    )


def _prefactor(counts, l: int, walk: _WalkGraph) -> tuple[list[tuple[int, ...]], list[int]]:
    """(rows, degrees) with |T| = det(minor) * prod(multinomial(row)) / prod(degrees).

    ``rows`` are the count rows of the end and the branching contexts and
    ``degrees`` the out-degrees of the branching contexts: every branching
    context of out-degree r contributes (r - 1)! / prod(count!), the end
    context r! / prod(count!), and a forced context nothing. The quotient
    alone need not be an integer.
    """
    rows = [tuple(counts[c * l : (c + 1) * l]) for c in (walk.end, *walk.branching)]
    return rows, [walk.out[c] for c in walk.branching]


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
    determinant/adjugate of the contracted Laplacian minor of ``_WalkGraph``
    (an empty minor for m = 0, where the class size is a multinomial),
    with each branching context's blocks' targets cached. ``size`` is the
    completion count at the start, |T|; the callers carry the completion
    count along the walk themselves.

    A step at the end or at a forced context leaves the minor alone and
    costs O(1). A step at a branching context is a rank-one update of the
    minor, O(k**2) for k branching contexts; when it leaves the context
    with one live block, the context is contracted out of the minor in the
    same pass.
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
        self.pos = {c: i for i, c in enumerate(walk.branching)}
        a = walk.minor
        self.d = _det_bareiss(a)
        if self.d == 0:
            return
        if need_adjugate:
            self.adj = _adjugate(a, self.d)
            l, n_ctx, target = self.l, self.n_ctx, walk.target
            self.targets = {
                c: [target[idx % n_ctx] for idx in range(c * l, (c + 1) * l)] for c in self.pos
            }
        rows, degrees = _prefactor(self.counts, self.l, walk)
        self.size = math.prod(map(_multinomial, rows)) * self.d // math.prod(degrees)

    # stepping -----------------------------------------------------------

    def branches(self) -> tuple[list[int], int]:
        """(weights, degree) of the l branches at the current context.

        weights[x] is the block count times the determinant after consuming
        edge (ctx, x), before any contraction, 0 for a dead branch.  With W completions now, W *
        weights[x] / (degree * d) of them start with x, exactly, for every x.
        """
        c, l, d = self.ctx, self.l, self.d
        row = self.counts[c * l : (c + 1) * l]
        pc = self.pos.get(c)
        if pc is None:
            # the end's out-edges are not in the in-branchings, and a forced
            # context's row is contracted: no branch moves the determinant
            return (row if d == 1 else [cnt * d for cnt in row]), self.r[c]
        adj, k, pos, end = self.adj, len(self.pos), self.pos, self.end
        # the determinant lemma: consuming an edge lowers row c's diagonal
        # and, unless the edge leads to the end, raises its target's column
        d_end = d - adj[pc * k + pc]
        weights = []
        for cnt, t in zip(row, self.targets[c]):
            if not cnt:
                weights.append(0)
                continue
            dd = d if t == c else d_end if t == end else d_end + adj[pos[t] * k + pc]
            weights.append(cnt * dd if dd > 0 else 0)
        return weights, self.r[c] - 1

    def advance(self, x: int, weight: int) -> int:
        """Consume symbol x, whose branch weight from ``branches`` is ``weight``.

        Returns f such that the completion count moves by the factor f *
        d_after / (degree * d_before), where d is the determinant ``self.d``
        around the step: the block's count before the step, times the pivot
        when the step contracts its context.
        """
        c = self.ctx
        l = self.l
        idx = c * l + x
        cnt = self.counts[idx]
        if weight <= 0:
            raise InfeasibleError("advance through a dead branch")
        self.counts[idx] = cnt - 1
        self.r[c] -= 1
        self.ctx = idx % self.n_ctx
        pc = self.pos.get(c)
        if pc is None:
            return cnt
        if cnt == 1 and self.counts[c * l : (c + 1) * l].count(0) == l - 1:
            return cnt * self._contract(c, pc, x)
        t = self.targets[c][x]
        if t != c:  # a self-loop leaves the minor as it is
            dd, roww = self._row_change(pc, t)
            adj, d, k = self.adj, self.d, len(self.pos)
            # adj' = (dd * adj - adj[:, pc] (x) roww) / d, all in one flat pass
            col = [ci for ci in adj[pc::k] for _ in range(k)]
            self.adj = [(dd * a - ci * rj) // d for a, ci, rj in zip(adj, col, roww * k)]
            self.d = dd
        return cnt

    def _row_change(self, pc: int, t: int) -> tuple[int, list[int]]:
        """(determinant after, roww) when consuming an edge moves row pc of the minor by -e_pc (+ e_t).

        The determinant lemma gives the determinant, and roww is the matching
        combination of the adjugate's rows: -adj[pc, :], plus adj[pt, :] unless
        t is the end.
        """
        adj, k = self.adj, len(self.pos)
        row_c = adj[pc * k : (pc + 1) * k]
        if t == self.end:
            return self.d - row_c[pc], [-v for v in row_c]
        pt = self.pos[t]
        row_t = adj[pt * k : (pt + 1) * k]
        return self.d - row_c[pc] + row_t[pc], [u - v for u, v in zip(row_t, row_c)]

    def _contract(self, c: int, pc: int, x: int) -> int:
        """Step out of branching context c along block x, leaving c forced, and contract c.

        After the step row c of the minor is p * (e_c - e_t2), p the out-degree
        left and t2 the target of c's last block. The adjugate of the Schur
        complement on that pivot is the stepped adjugate without row and
        column c, divided by p, and its determinant is the stepped one divided
        by p; both are taken in one pass. Returns p.
        """
        l, k, adj, d = self.l, len(self.pos), self.adj, self.d
        targets = self.targets.pop(c)
        t = targets[x]
        p = self.r[c]
        t2 = next(tt for v, tt in zip(self.counts[c * l : (c + 1) * l], targets) if v)
        dd, roww = (d, [0] * k) if t == c else self._row_change(pc, t)
        keep = [i for i in range(k) if i != pc]
        div = d * p
        self.adj = [(dd * adj[i * k + j] - adj[i * k + pc] * roww[j]) // div for i in keep for j in keep]
        self.d = dd // p
        del self.pos[c]
        self.pos = {b: i - (i > pc) for b, i in self.pos.items()}
        for b, tl in self.targets.items():
            if c in tl:
                self.targets[b] = [t2 if tt == c else tt for tt in tl]
        return p


def type_class_size(desc: BlockFrequencyVector) -> int:
    """Exact number of sequences sharing the descriptor (0 if infeasible)."""
    return _WalkCounter(desc, need_adjugate=False).size


UNIT_ROUNDOFF = 2.0**-53
MIN_MARGIN = 1e-6
LN2 = math.log(2.0)


# Most float entries one group of stacked minors may hold (256 KiB); with its
# inverse a group needs twice that. Groups are cut from the rows sorted by
# k, so a row whose own minor is larger forms a group alone.
MINOR_BUDGET = 1 << 15


def index_width(desc: BlockFrequencyVector) -> int:
    """Index-field width ceil(log2 |T|) of one descriptor: ``index_widths`` of one row."""
    counts = np.array([desc.counts], dtype=np.int64)
    return int(index_widths(desc.alphabet, desc.order, desc.n, counts, np.array([desc.prefix], dtype=np.int64))[0])


def index_widths(alphabet: Alphabet, m: int, n: int, counts, heads) -> np.ndarray:
    """ceil(log2 |T|) of every row's type class as int64: 0 when |T| <= 1.

    Row r is the descriptor of a length-n sequence with (m+1)-block counts
    counts[r] and prefix heads[r, :m], as the walker's (counts, heads) hold
    them. ValidationError for a malformed table, InfeasibleError when some
    row's class is empty.

    Floating point gives each row L = (S + D) / ln 2, where S is the sum of
    the prefactor's signed ``lgamma`` and ``log`` terms t (``_prefactor``)
    and D the ``slogdet`` log-determinant of the transposed k x k contracted
    Laplacian minor over the branching contexts (``_Flow``).  ceil(L) is
    returned only when the determinant's sign is +1 and L lies farther than

        delta = max(1e-6, E / ln 2 + 4 u |L|),
        E = (16 u + g) sum|t| / (1 - g) + k**2 u (8 kappa + 4 ln(2 r_max)),
        g = gamma_N = N u / (1 - N u),

    from an integer, where u = 2**-53, N bounds the row's number of terms
    plus two, kappa is the 1-norm condition number of its padded minor
    (below) and r_max its largest out-degree.  E bounds, in order:

    - each term to 16 ulps (CPython's lgamma and log stay within 5 ulps on
      integers); both are evaluated once per distinct count or degree in
      the batch;
    - the rounding of the array sums, which replaces the single rounding of
      an exact ``math.fsum``: the terms are added in three sums along each
      row of the table, joined by two subtractions, so each term passes
      through fewer than N roundings whatever the order of the additions,
      and S is off by at most gamma_N sum|t| (Higham, *Accuracy and
      Stability of Numerical Algorithms*, ch. 4).  sum|t| is itself such a
      sum of nonnegative terms, low by at most the factor 1 - gamma_N;
    - the LU factorization's first-order log-determinant error plus the
      rounding of its k pivot logarithms (Higham, ch. 9).  The contracted
      minor is still the Laplacian minor of a multigraph (with loops), so
      the transposed minor is column diagonally dominant, partial pivoting
      exchanges no rows and the growth factor is at most 2.

    The minors are stacked in groups cut from the rows sorted by k, each
    group within MINOR_BUDGET entries, and each group takes one ``slogdet``
    and one ``inv``, which gives kappa = |A|_1 |A^-1|_1 (``cond(A, 1)``).
    Every minor is padded with an identity block to its group's largest k.
    The padding is sound: the padded rows and columns stay exactly zero off
    the diagonal, so the elimination of the first k columns is an LU of the
    minor and the unit pivots after it add logarithms of exactly 0; and the
    padded condition number, max(|A|_1, 1) * max(|A^-1|_1, 1), is at least
    the minor's own.  The error term keeps the row's own k.  Every other
    row, including |T| = 1 and every power-of-two class (L an integer),
    takes the exact size from ``type_class_size``.
    """
    l = alphabet.size
    counts = np.asarray(counts, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[1] != l ** (m + 1):
        raise ValidationError("descriptor: counts must have l**(m+1) entries")
    if heads.ndim != 2 or heads.shape[0] != counts.shape[0] or heads.shape[1] < m:
        raise ValidationError("descriptor: prefix length must equal order")
    if (counts < 0).any() or (counts.sum(axis=1) != n - m).any():
        raise ValidationError("descriptor: counts must be non-negative and sum to n - m")
    flow = _flow(l, m, counts, heads)
    if not flow.feasible.all():
        raise InfeasibleError(f"descriptor {int(flow.feasible.argmin())} is infeasible (empty type class)")
    s, err = _prefactor_logs(flow)
    k = flow.branching.sum(axis=1)
    logdet = np.zeros(len(counts))
    for rows, size in _minor_groups(k):
        stack = flow.minors(rows, size)
        sign, logdet[rows] = np.linalg.slogdet(stack)
        if (sign != 1.0).any():  # a determinant of sign 0 or -1 certifies nothing
            logdet[rows[sign != 1.0]] = 0.0
            err[rows[sign != 1.0]] = np.inf
            rows, stack = rows[sign == 1.0], stack[sign == 1.0]
        # the 1-norm condition number |A|_1 |A^-1|_1, the norms taken in place
        inverse = np.linalg.inv(stack)
        kappa = np.abs(stack, out=stack).sum(axis=1).max(axis=1) * np.abs(inverse, out=inverse).sum(axis=1).max(axis=1)
        err[rows] += k[rows] ** 2 * UNIT_ROUNDOFF * (8 * kappa + 4 * np.log(2 * flow.out[rows].max(axis=1)))
    log2_size = (s + logdet) / LN2
    margin = np.maximum(MIN_MARGIN, err / LN2 + 4 * UNIT_ROUNDOFF * np.abs(log2_size))
    floor = np.floor(log2_size)
    # err < ln 2 / 2 also rejects an infinite condition number
    certified = (err < 0.5 * LN2) & (np.minimum(log2_size - floor, floor + 1 - log2_size) > margin)
    widths = np.where(certified, floor + 1, 0).astype(np.int64)
    for r in np.flatnonzero(~certified).tolist():
        desc = BlockFrequencyVector(alphabet, m, tuple(heads[r, :m].tolist()), tuple(counts[r].tolist()), n)
        size = type_class_size(desc)
        if size == 0:
            raise InfeasibleError(f"descriptor {r} is infeasible (empty type class)")
        widths[r] = (size - 1).bit_length()
    return widths


def _prefactor_logs(flow: _Flow) -> tuple[np.ndarray, np.ndarray]:
    """(S, bound) of every row: the natural log of ``_prefactor``'s quotient and the bound on its error.

    S = sum of lgamma(out + 1) over the end and the branching contexts, less
    lgamma(count + 1) over their counts and log(out) over the branching
    contexts. A count of 0 or 1 gives a term of exactly 0, so the sums run
    over whole rows of the table; N counts l + 2 terms per end or branching
    context, more than there are, and two for the subtractions. See
    ``index_widths`` for the bound. lgamma is taken once per distinct value.
    """
    l = flow.table.shape[2]
    counts = flow.table
    values = np.unique(np.concatenate([(0, 1), flow.out.ravel(), counts[counts > 1]]))
    lgammas = np.array([math.lgamma(v + 1) for v in values.tolist()])
    logs = np.array([math.log(v or 1) for v in values.tolist()])
    at = np.searchsorted(values, flow.out)
    plus = (lgammas[at] * flow.whole).sum(axis=1)
    minus = (lgammas[np.searchsorted(values, counts)].sum(axis=2) * flow.whole).sum(axis=1)
    divisor = (logs[at] * flow.branching).sum(axis=1)
    n_terms = (l + 2) * flow.whole.sum(axis=1) + 2
    gamma = n_terms * UNIT_ROUNDOFF / (1 - n_terms * UNIT_ROUNDOFF)
    return plus - minus - divisor, (16 * UNIT_ROUNDOFF + gamma) / (1 - gamma) * (plus + minus + divisor)


def _minor_groups(k: np.ndarray):
    """(rows, size) of each group of stacked minors: rows with k > 0 in ascending k, size their largest k."""
    order = np.argsort(k, kind="stable")
    order = order[k[order] > 0]
    ks = k[order]
    lo = 0
    while lo < order.size:
        # padded entries of rows lo..hi-1, nondecreasing in hi
        entries = np.arange(1, order.size - lo + 1) * ks[lo:] ** 2
        hi = lo + max(1, int(np.searchsorted(entries, MINOR_BUDGET, side="right")))
        yield order[lo:hi], int(ks[hi - 1])
        lo = hi


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
