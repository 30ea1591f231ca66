"""Stationary finite-alphabet source models and their samplers.

Provides the four source families used throughout the toolkit:

- ``MarkovModel``: order-m finite chains (m = 0 is the iid case), with the
  augmented context chain over A**m, exact stationary law, and exact
  conditional probabilities.
- ``HMMModel``: hidden Markov sources with strictly positive transition and
  emission tables; the conditioning constants eps (min q / max q) and eta
  (worst emission ratio) are recomputed from the tables, never trusted.
- ``BlockwiseModel``: the heavy-tail block construction (all-zero blocks
  with probability 1/2, fair-coin blocks otherwise, power-law block
  lengths, uniform left shift of the first block).
- ``SymbolSequence``: a validated symbol-index array tied to its alphabet.

Models are immutable after validation; sampling is a pure function of
(model, n, seed), so replicates can run concurrently without shared state.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .errors import BadContextError, NonErgodicError, TooShortError, ValidationError
from .seeding import derive_seed, generator_for

ROW_SUM_TOL = 1e-12
_CTX_SEP = ","


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct symbol labels; index <-> label is fixed."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise ValidationError("alphabet: need at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet: symbol labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, label: str) -> int:
        try:
            return self.symbols.index(label)
        except ValueError:
            raise BadContextError(f"alphabet: unknown symbol {label!r}") from None


BINARY = Alphabet(("0", "1"))


@dataclass(frozen=True)
class SymbolSequence:
    """Finite symbol-index array over an alphabet."""

    alphabet: Alphabet
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.int64)
        if arr.ndim != 1:
            raise ValidationError("sequence data must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.alphabet.size):
            raise ValidationError("sequence contains out-of-alphabet indices")
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        return int(self.data.size)

    def labels(self) -> list[str]:
        return [self.alphabet.symbols[i] for i in self.data]

    @staticmethod
    def from_labels(alphabet: Alphabet, labels: list[str]) -> "SymbolSequence":
        return SymbolSequence(alphabet, np.array([alphabet.index(s) for s in labels], dtype=np.int64))


def _check_strongly_connected(support: np.ndarray) -> bool:
    """Support is a boolean adjacency matrix."""
    k = support.shape[0]

    def reach(adj: np.ndarray) -> np.ndarray:
        seen = np.zeros(k, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in np.nonzero(adj[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return seen

    return bool(reach(support).all() and reach(support.T).all())


def _period(support: np.ndarray) -> int:
    """gcd of cycle lengths of a strongly connected digraph."""
    k = support.shape[0]
    depth = -np.ones(k, dtype=np.int64)
    depth[0] = 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in np.nonzero(support[u])[0]:
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                queue.append(int(v))
    g = 0
    for u in range(k):
        for v in np.nonzero(support[u])[0]:
            g = gcd(g, int(depth[u] + 1 - depth[v]))
    return abs(g) if g else 1


class MarkovModel:
    """Finite-alphabet order-m Markov source (m = 0: iid).

    ``transitions`` has one row per context in A**m (contexts enumerated in
    base-l order, oldest symbol most significant) and one column per symbol.
    The initial context law defaults to the stationary law of the augmented
    context chain; a non-stationary override is allowed but flagged, since
    every downstream result assumes stationarity.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        order: int,
        transitions: np.ndarray,
        initial_law: np.ndarray | None = None,
        ergodic: bool = True,
    ) -> None:
        if order < 0:
            raise ValidationError("order: must be non-negative")
        self.alphabet = alphabet
        self.order = int(order)
        l = alphabet.size
        k = l**self.order
        trans = np.asarray(transitions, dtype=float)
        if trans.shape != (k, l):
            raise ValidationError(
                f"transitions: expected shape ({k}, {l}) for order {order}, got {trans.shape}"
            )
        for c in range(k):
            row = trans[c]
            if (row < 0).any() or (row > 1).any():
                raise ValidationError(f"transitions[{self.context_key(c)!r}]: entries must lie in [0, 1]")
            if abs(row.sum() - 1.0) > ROW_SUM_TOL:
                raise ValidationError(
                    f"transitions[{self.context_key(c)!r}]: row sums to {row.sum()!r}, expected 1 within {ROW_SUM_TOL}"
                )
        self.transitions = trans
        self.transitions.setflags(write=False)

        kernel = self.context_kernel()
        support = kernel > 0
        if not _check_strongly_connected(support):
            raise NonErgodicError("context chain is reducible")
        self.ergodic = bool(ergodic)
        if self.ergodic and _period(support) != 1:
            # irreducible periodic chains still have a unique stationary law;
            # pass ergodic=False to build one (mixing analytics will refuse it)
            raise NonErgodicError("context chain is periodic")

        self._stationary = _solve_stationary(kernel)
        self.stationary_flag = initial_law is None
        if initial_law is None:
            self.initial_law = self._stationary
        else:
            init = np.asarray(initial_law, dtype=float)
            if init.shape != (k,):
                raise ValidationError(f"initial_law: expected {k} entries, got {init.shape}")
            if (init < 0).any() or abs(init.sum() - 1.0) > ROW_SUM_TOL:
                raise ValidationError("initial_law: not a probability vector")
            self.initial_law = init
        self.initial_law.setflags(write=False)

    # -- context indexing -------------------------------------------------

    @property
    def n_contexts(self) -> int:
        return self.alphabet.size**self.order

    def context_index(self, symbols: tuple[int, ...]) -> int:
        if len(symbols) != self.order:
            raise BadContextError(f"context: expected {self.order} symbols, got {len(symbols)}")
        idx = 0
        for s in symbols:
            if not 0 <= s < self.alphabet.size:
                raise BadContextError(f"context: symbol index {s} out of alphabet")
            idx = idx * self.alphabet.size + s
        return idx

    def context_symbols(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.order):
            out.append(idx % self.alphabet.size)
            idx //= self.alphabet.size
        return tuple(reversed(out))

    def context_key(self, idx: int) -> str:
        return _CTX_SEP.join(self.alphabet.symbols[s] for s in self.context_symbols(idx))

    def successor_table(self) -> np.ndarray:
        """Context reached by each flat block index c * l + x: (c * l + x) mod l**m.

        Appending x to context c drops its oldest symbol, so the flat index
        of the (m+1)-block modulo the number of contexts is the next context.
        """
        k = self.n_contexts
        return np.arange(k * self.alphabet.size) % k

    def context_kernel(self) -> np.ndarray:
        """Transition matrix of the augmented context chain over A**m."""
        k, l = self.n_contexts, self.alphabet.size
        kernel = np.zeros((k, k))
        # unbuffered and in index order, so at m = 0 the row sums x in order
        np.add.at(kernel, (np.arange(k).repeat(l), self.successor_table()), self.transitions.ravel())
        return kernel

    # -- laws --------------------------------------------------------------

    def stationary_context_law(self) -> np.ndarray:
        return self._stationary

    def marginal_symbol_law(self) -> np.ndarray:
        """Stationary law of a single symbol."""
        if self.order == 0:
            return self.transitions[0].copy()
        return self.window_laws(1)[1]  # the stationary mass of each last symbol

    def window_laws(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(laws, masses) of the next symbol given only the last j <= m symbols.

        Row w, the base-l code of a window, is the stationary marginalization
        sum pi(c) P(. | c) / sum pi(c) over the contexts c ending in w, which
        are those with c mod l**j = w. masses[w] is the denominator; rows of
        zero mass are left zero.
        """
        lj = self.alphabet.size**j
        ends = np.arange(self.n_contexts) % lj
        pi = self._stationary
        # unbuffered and in index order: each row adds its contexts in order
        laws = np.zeros((lj, self.alphabet.size))
        np.add.at(laws, ends, pi[:, None] * self.transitions)
        mass = np.zeros(lj)
        np.add.at(mass, ends, pi)
        return laws / np.where(mass > 0, mass, 1.0)[:, None], mass

    def conditional_given_window(self, window: tuple[int, ...]) -> np.ndarray:
        """Exact law of the next symbol given only the last len(window) symbols.

        For windows of length >= m this is a table row; shorter windows are
        marginalized over the stationary context law (``window_laws``).
        """
        j = len(window)
        if j >= self.order:
            return self.transitions[self.context_index(tuple(window[j - self.order:]))].copy()
        # any context ending in the window has the window's code as its last j digits
        code = self.context_index((0,) * (self.order - j) + tuple(window)) % self.alphabet.size**j
        laws, mass = self.window_laws(j)
        if mass[code] == 0.0:
            raise BadContextError("window has zero stationary probability")
        return laws[code]

    def log2_transitions(self) -> np.ndarray:
        """log2 of the transition table with 0 -> -inf."""
        with np.errstate(divide="ignore"):
            return np.log2(self.transitions)

    def prefix_log2_probs(self, heads: np.ndarray) -> np.ndarray:
        """log2 of the initial law of each row's first j = min(m, width) symbols.

        The law of the first j symbols is the initial law summed, in context
        order, over the contexts that start with them, c // l**(m - j) = w;
        at j = m it is the initial law itself. A zero mass gives -inf.
        """
        l, m = self.alphabet.size, self.order
        j = min(m, heads.shape[1])
        if j == 0:
            return np.zeros(heads.shape[0])
        code = np.zeros(heads.shape[0], dtype=np.int64)
        for i in range(j):
            code = code * l + heads[:, i]
        law = self.initial_law
        if j < m:
            law = np.zeros(l**j)
            np.add.at(law, np.arange(self.n_contexts) // l ** (m - j), self.initial_law)
        with np.errstate(divide="ignore"):
            return np.log2(law[code])

    def sequence_log2_prob(self, seq: SymbolSequence) -> float:
        """log2 P(seq) under the model (prefix from the initial context law)."""
        path = seq.data[None, :]
        return float(path_log_likelihoods(self, path, self.prefix_log2_probs(path))[0])

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "type": "markov",
            "alphabet": list(self.alphabet.symbols),
            "order": self.order,
            "transitions": {self.context_key(c): self.transitions[c].tolist() for c in range(self.n_contexts)},
        }
        if not self.ergodic:
            d["ergodic"] = False
        if not self.stationary_flag:
            d["initial_law"] = self.initial_law.tolist()
        return d

    @staticmethod
    def iid(probs, alphabet: Alphabet | None = None) -> "MarkovModel":
        probs = np.asarray(probs, dtype=float)
        if alphabet is None:
            alphabet = Alphabet(tuple(str(i) for i in range(probs.size)))
        return MarkovModel(alphabet, 0, probs.reshape(1, -1))


def _solve_stationary(kernel: np.ndarray) -> np.ndarray:
    """Solve pi = pi K with sum 1; kernel must be ergodic."""
    k = kernel.shape[0]
    if k == 1:
        return np.ones(1)
    a = kernel.T - np.eye(k)
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    if (pi < 0).any():
        raise NonErgodicError("stationary solve produced negative entries")
    pi = pi / pi.sum()
    if np.max(np.abs(pi @ kernel - pi)) > ROW_SUM_TOL:
        raise NonErgodicError("stationary law residual above tolerance")
    return pi


def stationary_distribution(model: MarkovModel) -> np.ndarray:
    """Stationary law of the augmented context chain (pi = pi K, sum 1)."""
    return model.stationary_context_law()


class HMMModel:
    """Hidden Markov source with strictly positive tables.

    eps = min q / max q and eta = sup_y (max_x g(y|x) / min_x g(y|x)) are
    recomputed from the stored tables on construction.
    """

    def __init__(self, hidden_kernel: np.ndarray, emissions: np.ndarray, alphabet: Alphabet | None = None) -> None:
        q = np.asarray(hidden_kernel, dtype=float)
        g = np.asarray(emissions, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValidationError("hidden_kernel: must be a square matrix")
        h = q.shape[0]
        if g.ndim != 2 or g.shape[0] != h:
            raise ValidationError("emissions: one row per hidden state required")
        if (q <= 0).any():
            bad = np.argwhere(q <= 0)[0]
            raise ValidationError(f"hidden_kernel[{bad[0]},{bad[1]}]: entries must be strictly positive")
        if (g <= 0).any():
            bad = np.argwhere(g <= 0)[0]
            raise ValidationError(f"emissions[{bad[0]},{bad[1]}]: entries must be strictly positive")
        for i in range(h):
            if abs(q[i].sum() - 1.0) > ROW_SUM_TOL:
                raise ValidationError(f"hidden_kernel[{i}]: row sums to {q[i].sum()!r}, expected 1")
            if abs(g[i].sum() - 1.0) > ROW_SUM_TOL:
                raise ValidationError(f"emissions[{i}]: row sums to {g[i].sum()!r}, expected 1")
        self.hidden_kernel = q
        self.emissions = g
        self.hidden_kernel.setflags(write=False)
        self.emissions.setflags(write=False)
        if alphabet is None:
            alphabet = Alphabet(tuple(str(i) for i in range(g.shape[1])))
        if alphabet.size != g.shape[1]:
            raise ValidationError("alphabet size does not match emission columns")
        self.alphabet = alphabet
        self.epsilon = float(q.min() / q.max())
        self.eta = float((g.max(axis=0) / g.min(axis=0)).max())
        self._stationary = _solve_stationary(q)

    @property
    def n_hidden(self) -> int:
        return self.hidden_kernel.shape[0]

    def stationary_hidden_law(self) -> np.ndarray:
        return self._stationary

    def to_dict(self) -> dict:
        return {
            "type": "hmm",
            "alphabet": list(self.alphabet.symbols),
            "hidden_kernel": self.hidden_kernel.tolist(),
            "emissions": self.emissions.tolist(),
        }


# Hurwitz zeta after Cephes zeta.c (Cephes Math Library Release 2.0,
# Copyright 1984, 1987 by Stephen L. Moshier), as shipped in scipy.special
# under scipy's BSD license. The operations keep the C code's order, so the
# floats equal scipy.special.zeta(s, a) bit for bit.
_MACHEP = 1.11022302462515654042e-16  # 2**-53
# (2k)! / B_2k, the Euler-Maclaurin coefficients
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,  # 1.307674368e12 / 691
    7.47242496e10,
    -2.950130727918164224e12,  # 1.067062284288e16 / 3617
    1.1646782814350067249e14,  # 5.109094217170944e18 / 43867
    -4.5979787224074726105e15,  # 8.028576626982912e20 / 174611
    1.8152105401943546773e17,  # 1.5511210043330985984e23 / 854513
    -7.1661652561756670113e18,  # 1.6938241367317436694528e27 / 236364091
)


@functools.lru_cache(maxsize=4096)
def _hurwitz_zeta(s: float, a: int) -> float:
    """Hurwitz zeta(s, a) = sum_{k>=0} (k+a)^-s for s > 1 and a >= 1.

    Moshier's Euler-Maclaurin sum: direct terms until the base passes 9 and at
    least nine terms are in (or a term falls below MACHEP of the sum), then the
    integral, half a term and up to 12 Bernoulli corrections. Past a = 1e8 it
    is the two-term asymptotic expansion (DLMF 25.11.43). Memoized: the
    inverse-CDF search of ``draw_length_raw`` asks for the same doubling and
    bisection points again and again.
    """
    q = float(a)
    if q > 1e8:
        return (1 / (s - 1) + 1 / (2 * q)) * math.pow(q, 1 - s)
    total = math.pow(q, -s)
    base, i, b = q, 0, 0.0
    while i < 9 or base <= 9.0:
        i += 1
        base += 1.0
        b = math.pow(base, -s)
        total += b
        if abs(b / total) < _MACHEP:
            return total
    w = base
    total += b * w / (s - 1.0)
    total -= 0.5 * b
    fac, k = 1.0, 0.0
    for coeff in _ZETA_A:
        fac *= s + k
        b /= w
        t = fac * b / coeff
        total = total + t
        if abs(t / total) < _MACHEP:
            return total
        k += 1.0
        fac *= s + k
        b /= w
        k += 1.0
    return total


class BlockwiseModel:
    """Heavy-tail blockwise source: P(block length = t) ~ 1 / t**(3/2 - eps).

    Block i is all zeros when a fair coin Y_i lands 1, otherwise iid fair
    bits; the first block is shortened by a uniform shift for the
    stationarization. Lengths are drawn by inverse CDF; a draw above
    ``tail_cap`` is recorded and redrawn (the documented truncation rule),
    which is equivalent to sampling the renormalized capped law.
    """

    def __init__(self, epsilon: float, tail_cap: int = 10**8) -> None:
        if not 0.0 < epsilon < 1.0 / 6.0:
            raise ValidationError("epsilon must lie in (0, 1/6)")
        if tail_cap < 1:
            raise ValidationError("tail_cap: must be a positive integer")
        self.epsilon = float(epsilon)
        self.tail_cap = int(tail_cap)
        self.exponent = 1.5 - self.epsilon
        self.alphabet = BINARY
        # total and truncated normalizers
        self._total_mass = _hurwitz_zeta(self.exponent, 1)
        self._tail_mass = _hurwitz_zeta(self.exponent, self.tail_cap + 1)
        self.normalizer = 1.0 / (self._total_mass - self._tail_mass)
        self.truncated_mass = self._tail_mass / self._total_mass

    def length_pmf(self, t) -> np.ndarray:
        """Renormalized pmf of the block length on 1..tail_cap."""
        t = np.asarray(t, dtype=float)
        out = np.where((t >= 1) & (t <= self.tail_cap), self.normalizer * t**-self.exponent, 0.0)
        return out

    def _untruncated_cdf_complement(self, t: float) -> float:
        """P(tau > t) under the untruncated power law."""
        return _hurwitz_zeta(self.exponent, math.floor(t) + 1) / self._total_mass

    def draw_length_raw(self, u: float) -> int:
        """Inverse CDF of the *untruncated* law at uniform u (may exceed the cap)."""
        # bracket by doubling, then halve the bracket; tail sums via Hurwitz zeta
        lo, hi = 1, 1
        while self._untruncated_cdf_complement(hi) > 1.0 - u:
            lo = hi
            hi *= 2
            if hi > 2 * self.tail_cap:
                break
        while lo < hi:
            mid = (lo + hi) // 2
            if self._untruncated_cdf_complement(mid) > 1.0 - u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def to_dict(self) -> dict:
        return {"type": "blockwise", "epsilon": self.epsilon, "tail_cap": self.tail_cap}


Model = MarkovModel | HMMModel | BlockwiseModel


@dataclass
class BlockLog:
    """Per-block record of a blockwise sample: boundaries are reconstructible."""

    starts: list[int] = field(default_factory=list)
    lengths: list[int] = field(default_factory=list)
    zero_labels: list[int] = field(default_factory=list)  # Y_i: 1 = all-zero block
    completed: list[bool] = field(default_factory=list)
    theta: int = 0
    first_tau: int = 0
    n_tail_capped: int = 0
    truncated_mass: float = 0.0


def conditional_law(model: MarkovModel, context: tuple[int, ...] | list[int] | list[str]) -> np.ndarray:
    """Exact conditional law P(. | context).

    Context must have length m; order-0 models ignore whatever context is
    supplied and return the single marginal row.
    """
    if model.order == 0:
        return model.transitions[0].copy()
    if context and isinstance(context[0], str):
        context = tuple(model.alphabet.index(s) for s in context)  # type: ignore[arg-type]
    context = tuple(int(c) for c in context)
    if len(context) != model.order:
        raise BadContextError(f"context: expected {model.order} symbols, got {len(context)}")
    return model.transitions[model.context_index(context)].copy()


# -- sampling ---------------------------------------------------------------


def sample(model: MarkovModel | HMMModel, n: int, seed: int):
    """Sample n symbols; deterministic in (model, n, seed).

    A one-path walk of the batch samplers, driven by generator_for(seed), so
    sample(model, n, derive_seed(s, r)) is path r of a batch run with base
    seed s. Markov models return a SymbolSequence (``walk_paths``); HMM
    models return (SymbolSequence, hidden_path) (``sample_hmm_paths``).
    """
    if isinstance(model, BlockwiseModel):
        raise ValidationError("use sample_blockwise for blockwise models")
    gens = [generator_for(seed)]
    if isinstance(model, HMMModel):
        obs, hidden = _hmm_walk(model, n, gens)
        return SymbolSequence(model.alphabet, obs[0]), hidden[0]
    return SymbolSequence(model.alphabet, _walk(model, n, gens, keep_symbols=True, keep_sums=False)[0][0])


def _generators(n_paths: int, base_seed: int, index_offset: int = 0) -> list[np.random.Generator]:
    """Path r's generator, seeded derive_seed(base_seed, index_offset + r)."""
    if n_paths < 0:
        raise ValidationError("n_paths must be non-negative")
    return [generator_for(derive_seed(base_seed, index_offset + r)) for r in range(n_paths)]


def _cumulative(laws: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, with the last entry set to 1 + 1e-9.

    Every sampler draws x = #{c : cum[c] < u} from a row at a uniform u in
    [0, 1), with an entry of 0 counted at u = 0.0 too, so that no
    zero-probability symbol is drawn; the raised last entry is never below
    u, so x < the row length.
    """
    cum = np.cumsum(laws, axis=-1)
    cum[..., -1] = 1.0 + 1e-9
    return cum


def _first_draws(law: np.ndarray, gens: list[np.random.Generator]) -> np.ndarray:
    """One draw from ``law`` per generator, each from one uniform.

    A cumulative threshold of 0 is searched as -1, below u = 0.0 too, so a
    zero-probability state is never drawn (as in ``ThresholdRanks``).
    """
    cum = _cumulative(law)
    cum[cum == 0.0] = -1.0
    return np.searchsorted(cum, [g.random() for g in gens])


def sample_blockwise(model: BlockwiseModel, n: int, seed: int) -> tuple[SymbolSequence, BlockLog]:
    """Sample n symbols of the blockwise process plus its block log."""
    if n < 0:
        raise ValidationError("n must be non-negative")
    rng = generator_for(seed)
    log = BlockLog(truncated_mass=model.truncated_mass)
    if n == 0:
        return SymbolSequence(model.alphabet, np.empty(0, dtype=np.int64)), log

    def draw_tau() -> int:
        while True:
            tau = model.draw_length_raw(float(rng.random()))
            if tau <= model.tail_cap:
                return tau
            log.n_tail_capped += 1

    chunks: list[np.ndarray] = []
    pos = 0
    first = True
    while pos < n:
        tau = draw_tau()
        if first:
            log.first_tau = tau
            theta = int(rng.integers(0, tau))  # theta | tau_1 ~ unif{0..tau_1-1}
            log.theta = theta
            length = tau - theta
            first = False
        else:
            length = tau
        y = int(rng.integers(0, 2))  # Y_i ~ Bern(1/2): 1 -> all-zero block
        # only the block straddling n is cut short; its draw is the sample's
        # last and random(take) is a prefix of random(length), so drawing
        # take symbols keeps the sample identical to drawing the whole block
        take = min(length, n - pos)
        if y == 1:
            chunks.append(np.zeros(take, dtype=np.int64))
        else:
            chunks.append((rng.random(take) < 0.5).astype(np.int64))
        log.starts.append(pos)
        log.lengths.append(length)
        log.zero_labels.append(y)
        log.completed.append(take == length)
        pos += take
    data = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return SymbolSequence(model.alphabet, data[:n]), log


class ThresholdRanks:
    """Exact ranks of uniforms u in [0, 1) among fixed thresholds >= 0.

    The rank is #{th < u}, the value of ``np.searchsorted(sorted_thresholds,
    u)`` and the draw rule of every sampler, except that a threshold of 0
    counts at u = 0.0 too: a zero-probability symbol is never drawn, and
    every other u ranks as before. The thresholds are split into B
    power-of-two buckets, where ⌊u·B⌋ and th·B are exact, so

        rank = lo[⌊u·B⌋] + sum_j (u·B > inside[j, ⌊u·B⌋])

    where lo[b] counts the thresholds below b/B, and row j of
    ``inside`` holds B times bucket b's j-th threshold, -1 for a threshold
    of 0, padded with 2B, which no u·B reaches. Thresholds >= 1 never count
    and are dropped. B is the
    power of two up to 2^16 that makes a call cheapest, worked out from the
    thresholds: B = 1 is plain comparison, one compare-and-add per
    threshold, and a larger B costs about 2 + 2.5·depth of those, where
    depth is the most thresholds in one bucket.
    """

    MAX_LOG2_BUCKETS = 16

    def __init__(self, thresholds) -> None:
        th = np.sort(np.asarray(thresholds, dtype=float).ravel())
        th = th[th < 1.0]
        self.buckets, depth, cost = 1, th.size, float(th.size)
        for i in range(1, self.MAX_LOG2_BUCKETS + 1) if th.size else ():
            d = int(np.bincount((th * (1 << i)).astype(np.intp)).max())
            if 2.0 + 2.5 * d < cost:
                self.buckets, depth, cost = 1 << i, d, 2.0 + 2.5 * d
            if d == 1:
                break
        b = self.buckets
        key = (th * b).astype(np.intp)
        self.lo = np.searchsorted(th, np.arange(b) / b)
        self.inside = np.full((depth, b), 2.0 * b)
        self.inside[np.arange(th.size) - self.lo[key], key] = np.where(th > 0.0, th * b, -1.0)

    def __call__(self, u, out, scaled=None, bucket=None, taken=None, hit=None) -> np.ndarray:
        """Write the ranks of ``u`` into the integer array ``out`` of u's shape.

        ``scaled``, ``bucket`` (intp), ``taken`` and ``hit`` (bool) are work
        arrays of out's shape, allocated when not given. ``u`` is read once,
        into ``scaled``, before ``taken`` is written, so the two may share
        memory. On return ``scaled`` holds u·B.
        """
        scaled = np.multiply(u, float(self.buckets), out=scaled)
        hit = np.empty(out.shape, dtype=bool) if hit is None else hit
        if self.buckets == 1:
            out.fill(0)
            for th in self.inside[:, 0]:
                np.add(out, np.greater(scaled, th, out=hit), out=out)
            return out
        bucket = np.empty(out.shape, dtype=np.intp) if bucket is None else bucket
        taken = np.empty(out.shape) if taken is None else taken
        np.copyto(bucket, scaled, casting="unsafe")  # truncation is the floor: u·B >= 0
        # the indices are in range by construction: mode="clip" only skips the bounds check
        self.lo.take(bucket, out=out, mode="clip")
        for row in self.inside:
            row.take(bucket, out=taken, mode="clip")
            np.add(out, np.greater(scaled, taken, out=hit), out=out)
        return out


# Most entries a StepTable may hold in each of its two dense arrays (8 MiB of
# int64 apiece); larger tables fall back to one search per step.
STEP_TABLE_BUDGET = 1 << 20


class StepTable:
    """Draws on k rows of l cumulative thresholds each, and walks them.

    From row i a draw takes x = #{c : cum[i, c] < u}, the flat index
    i * l + x, and a step moves on to row succ[i * l + x]. With rank(u) the
    rank of u among the s distinct thresholds of all rows (``ranks``), the
    flat index is the number of entries of ``offsets`` below the key
    i * s + rank(u): row i's entries are its thresholds' own ranks offset by
    i * s, and they are below the key exactly when the thresholds are below u.

    When k·s is at most STEP_TABLE_BUDGET, that count is tabulated for every
    key (``flat``) and composed with the successor (``nxt``, the next row
    times s), so a step is two numpy calls across all walks. Past the budget,
    where s <= k·(l - 1) + 1 makes the tables grow like k², a draw searches
    ``offsets`` instead; the results are the same.
    """

    def __init__(self, cum: np.ndarray, succ: np.ndarray | None = None) -> None:
        k = cum.shape[0]
        thresholds = np.unique(cum)
        self.s = thresholds.size
        self.ranks = ThresholdRanks(thresholds)
        self.offsets = (np.arange(k)[:, None] * self.s + np.searchsorted(thresholds, cum)).ravel()
        self.succ = None if succ is None else succ * self.s
        self.flat = self.nxt = None
        if k * self.s <= STEP_TABLE_BUDGET:
            self.flat = self.offsets.searchsorted(np.arange(k * self.s))
            self.nxt = None if succ is None else self.succ.take(self.flat)

    def lookup(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The flat index of every key, written into the intp array ``out``."""
        if self.flat is None:
            out[...] = self.offsets.searchsorted(keys)
            return out
        # the indices are in range by construction: mode="clip" only skips the bounds check
        return self.flat.take(keys, out=out, mode="clip")

    def walk(self, keys: np.ndarray, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Take len(keys) steps from the rows ``state`` (row times s), in place.

        Row t of ``keys`` holds the ranks of step t on entry and ``state``
        ends at the next rows. Returns the flat index of every step, in
        ``out`` (an intp array of keys' shape) or in ``keys``.
        """
        if self.flat is None:
            for row in keys:
                np.add(row, state, out=row)
                self.lookup(row, row)
                self.succ.take(row, out=state)
            return keys
        for row in keys:
            np.add(row, state, out=row)
            self.nxt.take(row, out=state, mode="clip")
        return self.lookup(keys, out)


# The path walker draws uniforms in time chunks of n_paths x width values: at
# most WALK_BUDGET of them (2 MiB of float64) and WALK_MAX_WIDTH steps. Its
# work arrays are a few preallocated arrays of the chunk's shape. Wide chunks
# spread the per-path generator calls over more steps; the step cap keeps the
# chunk small beside the path matrix when there are few paths.
WALK_BUDGET = 1 << 18
WALK_MAX_WIDTH = 1 << 11

def walk_paths(
    model: MarkovModel,
    n: int,
    n_paths: int,
    base_seed: int,
    index_offset: int = 0,
    keep_symbols: bool = False,
    block_order: int | None = None,
) -> tuple[np.ndarray | tuple[np.ndarray, np.ndarray] | None, np.ndarray]:
    """Sample ``n_paths`` length-n paths and their log-likelihoods in one pass.

    Path r draws from its own generator, seeded derive_seed(base_seed,
    index_offset + r): its initial context from the model's initial law
    (m >= 1), then one uniform u per step. So each path is reproducible in
    isolation, and calls with consecutive offsets tile a single run.

    A step draws x = #{c : cum[ctx, c] < u} from the cumulative row of the
    current context and moves to the next context; the initial context is
    drawn by the same rule. Uniforms are drawn in time
    chunks bounded by WALK_BUDGET and WALK_MAX_WIDTH, so apart from its
    outputs the walk holds a fixed amount of memory whatever n is, plus the
    tables of ``StepTable``, at most 2 * STEP_TABLE_BUDGET entries. Each
    chunk's ranks come from one ``ThresholdRanks`` pass; at m >= 1 a step is
    then two numpy calls across all paths, adding the context's offset to
    the rank and looking up the next offset (one search per step past the
    table budget). One pass after the chunk reads the flat indices, the
    symbols and the log2 P terms, and adds each path's terms to its sum.

    Returns (symbols, sums). ``symbols`` is the (n_paths, n) int64 path
    matrix when ``keep_symbols`` is set and None otherwise. ``sums[r]`` is
    the sum of log2 P(x_t | context) over t = m..n-1, added left to right
    from 0.0, which is the float ``path_log_likelihoods`` gives for row r.

    With ``block_order`` = k, ``symbols`` is replaced by (counts, heads) and
    no path is kept: ``counts`` is the (n_paths, l**(k+1)) int64 table of
    each path's (k+1)-block counts, the counts of ``block_frequencies(path,
    k)``, and ``heads`` holds each path's first min(n, max(k, m)) symbols,
    its k-symbol prefix and its initial context. Each chunk's counts are
    added with one ``np.add.at``, whose cost follows the chunk's steps and
    not the table's size; see ``_BlockCounter``.
    """
    gens = _generators(n_paths, base_seed, index_offset)
    return _walk(model, n, gens, keep_symbols, keep_sums=True, block_order=block_order)


class _BlockCounter:
    """Per-path (k+1)-block counts and first symbols of paths fed in time order.

    Path r's counts are entries r·l^(k+1) .. (r+1)·l^(k+1) - 1 of one flat
    table, so one ``np.add.at`` at block code + r·l^(k+1) adds a whole
    chunk. ``add_blocks`` takes block codes, which the walker's flat index
    ctx·l + x is when k equals the model order (the rank x itself at
    order 0). ``add_symbols`` takes symbols and forms the codes of every
    window ending in them, digit by digit, from the last k symbols of each
    path carried over from the previous call. It serves every k, but at the
    model order its extra passes over the chunk cost about a quarter of a
    clt round, so the walker hands its flat index to ``add_blocks`` there.
    """

    def __init__(self, l: int, k: int, n_paths: int, n_heads: int) -> None:
        self.l, self.k = l, k
        self.size = l ** (k + 1)
        self.offsets = np.arange(n_paths, dtype=np.intp) * self.size
        self.counts = np.zeros(n_paths * self.size, dtype=np.int64)
        self.heads = np.empty((n_paths, n_heads), dtype=np.int64)
        self.seen = 0
        self.tail = np.empty((0, n_paths), dtype=np.intp)

    def add_blocks(self, codes: np.ndarray) -> None:
        """Count the (rows, n_paths) block codes, which are overwritten."""
        codes += self.offsets
        np.add.at(self.counts, codes.ravel(), 1)

    def add_symbols(self, rows: np.ndarray) -> None:
        """Count the windows ending in the (rows, n_paths) symbols, the next of every path."""
        take = min(self.heads.shape[1] - self.seen, rows.shape[0])
        if take > 0:
            self.heads[:, self.seen : self.seen + take] = rows[:take].T
        self.seen += rows.shape[0]
        held = np.concatenate([self.tail, rows])
        ends = held.shape[0] - self.k
        if ends > 0:
            codes = held[:ends].copy()
            for j in range(1, self.k + 1):
                codes *= self.l
                codes += held[j : j + ends]
            self.add_blocks(codes)
        self.tail = held[held.shape[0] - min(self.k, held.shape[0]) :]

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """(counts, heads): one row of l**(k+1) counts and one of first symbols per path."""
        return self.counts.reshape(-1, self.size), self.heads


def _walk(
    model: MarkovModel,
    n: int,
    gens: list[np.random.Generator],
    keep_symbols: bool,
    keep_sums: bool,
    block_order: int | None = None,
) -> tuple[np.ndarray | tuple[np.ndarray, np.ndarray] | None, np.ndarray | None]:
    """The walk of ``walk_paths``, path r drawing from gens[r]."""
    if n < 0:
        raise ValidationError("n must be non-negative")
    n_paths = len(gens)
    l = model.alphabet.size
    m = model.order
    blocks = None
    if block_order is not None:
        if keep_symbols:
            raise ValidationError("a walk keeps either its symbols or its block counts")
        if block_order < 0:
            raise ValidationError("m must be non-negative")
        if n < block_order:
            raise TooShortError(f"sequence of length {n} is shorter than m = {block_order}")
        blocks = _BlockCounter(l, block_order, n_paths, min(n, max(block_order, m)))
    symbols = np.empty((n_paths, n), dtype=np.int64) if keep_symbols else None
    sums = np.zeros(n_paths) if keep_sums else None
    if n == 0 or n_paths == 0:
        return (symbols if blocks is None else blocks.result()), sums
    cum = _cumulative(model.transitions)
    flat_logt = model.log2_transitions().ravel()
    if m > 0:
        ctx = _first_draws(model.initial_law, gens)
        first = np.empty((min(m, n), n_paths), dtype=np.intp)
        for j in range(first.shape[0]):
            first[j] = (ctx // l ** (m - 1 - j)) % l
        if keep_symbols:
            symbols[:, : first.shape[0]] = first.T
        if blocks is not None:
            blocks.add_symbols(first)
        table = StepTable(cum, model.successor_table())
        ranks = table.ranks
        state = ctx * table.s
    else:
        ranks = ThresholdRanks(cum[0])  # the rank is x itself
    width = max(1, min(WALK_MAX_WIDTH, WALK_BUDGET // n_paths, n))
    # u is path-major for the generators; the work arrays are time-major, so
    # a chunk's rows are their first w rows, and taken reuses u's memory
    u = np.empty((n_paths, width))
    keys, bucket = np.empty((width, n_paths), dtype=np.intp), np.empty((width, n_paths), dtype=np.intp)
    scaled, hit, taken = np.empty((width, n_paths)), np.empty((width, n_paths), dtype=bool), u.reshape(width, n_paths)
    t = min(m, n)
    while t < n:
        w = min(width, n - t)
        for r, g in enumerate(gens):
            g.random(out=u[r, :w])
        v = ranks(u[:, :w].T, keys[:w], scaled[:w], bucket[:w], taken[:w], hit[:w])
        flat = table.walk(v, state, bucket[:w]) if m > 0 else v
        if keep_sums:
            # each path's terms are added left to right from its carried sum
            steps = flat_logt.take(flat, out=scaled[:w], mode="clip")
            steps[0] += sums
            # reducing over rows adds row by row; one column would be summed pairwise
            sums = np.add.reduce(steps, axis=0) if n_paths > 1 else np.add.accumulate(steps[:, 0])[-1:]
        if keep_symbols:
            symbols[:, t : t + w] = np.remainder(flat, l, out=flat).T
        elif blocks is not None and blocks.k == m:
            blocks.add_blocks(flat)  # at the model's order the flat index ctx * l + x is the block code
        elif blocks is not None:
            blocks.add_symbols(np.remainder(flat, l, out=flat))
        t += w
    return (symbols if blocks is None else blocks.result()), sums


def sample_paths(model: MarkovModel, n: int, n_paths: int, base_seed: int, index_offset: int = 0) -> np.ndarray:
    """Sample ``n_paths`` independent length-n paths as an (n_paths, n) int64 matrix.

    These are the symbols of ``walk_paths``, the one path walker, without
    its log-likelihood sums. Path r uses the replicate seed
    derive_seed(base_seed, index_offset + r), and uniforms are drawn in
    bounded time chunks, so the walk needs a fixed amount of memory beyond
    the returned matrix.
    """
    return _walk(model, n, _generators(n_paths, base_seed, index_offset), keep_symbols=True, keep_sums=False)[0]


def sample_hmm_paths(model: HMMModel, n: int, n_paths: int, base_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``n_paths`` stationary HMM paths: (observations, hidden states).

    Both are (n_paths, n) integer matrices. Path r draws from its own
    generator, seeded derive_seed(base_seed, r): its initial hidden state
    from the stationary law, then n step uniforms, then n emission
    uniforms. Every draw takes x = #{c : cum[c] < u}, the rule of
    ``walk_paths``, through the same ``StepTable`` lookups: the hidden walk
    takes two numpy calls per step, and the emissions are read after it.
    Uniforms are drawn in the time chunks of ``walk_paths``, so beyond the
    two returned matrices the walk holds a fixed amount of memory.
    """
    return _hmm_walk(model, n, _generators(n_paths, base_seed))


def _hmm_walk(model: HMMModel, n: int, gens: list[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """The walk of ``sample_hmm_paths``, path r drawing from gens[r].

    Each generator hands out all of its path's step uniforms before its
    emission uniforms, so the hidden walk runs to the end in one pass of
    chunks and the emissions are read in a second.
    """
    if n < 0:
        raise ValidationError("n must be non-negative")
    h, reps = model.n_hidden, len(gens)
    # time-major, like the walker's work arrays; the caller gets (reps, n) views
    obs, hidden = np.empty((n, reps), dtype=np.intp), np.empty((n, reps), dtype=np.intp)
    if n == 0 or reps == 0:
        return obs.T, hidden.T
    # the flat index i * h + j of a hidden step moves from state i to state j
    step = StepTable(_cumulative(model.hidden_kernel), np.arange(h * h) % h)
    emit = StepTable(_cumulative(model.emissions))
    state = _first_draws(model.stationary_hidden_law(), gens) * step.s
    width = max(1, min(WALK_MAX_WIDTH, WALK_BUDGET // reps, n))
    # as in _walk: u is path-major for the generators, and taken reuses its memory
    u = np.empty((reps, width))
    keys, bucket = np.empty((width, reps), dtype=np.intp), np.empty((width, reps), dtype=np.intp)
    scaled, hit, taken = np.empty((width, reps)), np.empty((width, reps), dtype=bool), u.reshape(width, reps)

    def chunks(table: StepTable):
        """(t, w, ranks in ``table`` of the next w uniforms of every path), chunk by chunk."""
        for t in range(0, n, width):
            w = min(width, n - t)
            for r, g in enumerate(gens):
                g.random(out=u[r, :w])
            yield t, w, table.ranks(u[:, :w].T, keys[:w], scaled[:w], bucket[:w], taken[:w], hit[:w])

    for t, w, v in chunks(step):
        np.floor_divide(step.walk(v, state, bucket[:w]), h, out=hidden[t : t + w])
    for t, w, v in chunks(emit):
        v += np.multiply(hidden[t : t + w], emit.s, out=bucket[:w])
        np.remainder(emit.lookup(v, bucket[:w]), model.alphabet.size, out=obs[t : t + w])
    return obs.T, hidden.T


def path_log_likelihoods(model: MarkovModel, paths: np.ndarray, start=0.0) -> np.ndarray:
    """Row-wise start plus the sum of log2 P(x_t | context) over positions m..n-1.

    The evaluator for a given path matrix; sampled paths get the same sums
    from ``walk_paths`` in the sampling pass. ``start`` (a scalar or one
    value per row) comes first and the terms are added left to right, so a
    prefix term given here yields the same float as a scalar loop that
    starts from it.
    """
    m = model.order
    l = model.alphabet.size
    total = np.zeros(paths.shape[0]) + start
    if paths.shape[1] <= m:
        return total
    ctx = np.zeros(paths.shape[0], dtype=np.int64)
    for j in range(m):
        ctx = ctx * l + paths[:, j]
    flat_logt = model.log2_transitions().ravel()
    succ = model.successor_table()
    for t in range(m, paths.shape[1]):
        idx = ctx * l + paths[:, t]
        total += flat_logt[idx]
        ctx = succ[idx]
    return total


# -- model files -------------------------------------------------------------


def model_from_dict(doc: dict) -> Model:
    """Build and validate a model from its JSON document."""
    if not isinstance(doc, dict):
        raise ValidationError("model: document must be a JSON object")
    mtype = doc.get("type")
    if mtype == "markov":
        for key in ("alphabet", "order", "transitions"):
            if key not in doc:
                raise ValidationError(f"model.{key}: missing required field")
        alphabet = Alphabet(tuple(str(s) for s in doc["alphabet"]))
        order = doc["order"]
        if not isinstance(order, int) or order < 0:
            raise ValidationError("model.order: must be a non-negative integer")
        k = alphabet.size**order
        trans = np.zeros((k, l_ := alphabet.size))
        table = doc["transitions"]
        if not isinstance(table, dict):
            raise ValidationError("model.transitions: must map context keys to rows")
        seen = set()
        for key, row in table.items():
            syms = tuple(alphabet.index(s) for s in key.split(_CTX_SEP)) if key else ()
            if len(syms) != order:
                raise ValidationError(f"model.transitions[{key!r}]: context length != order {order}")
            idx = 0
            for s in syms:
                idx = idx * l_ + s
            if not isinstance(row, list) or len(row) != l_:
                raise ValidationError(f"model.transitions[{key!r}]: expected {l_} probabilities")
            trans[idx] = row
            seen.add(idx)
        if len(seen) != k:
            raise ValidationError(f"model.transitions: {k - len(seen)} context rows missing")
        init = doc.get("initial_law")
        extra = set(doc) - {"type", "alphabet", "order", "transitions", "initial_law", "ergodic"}
        if extra:
            raise ValidationError(f"model.{sorted(extra)[0]}: unknown field")
        return MarkovModel(
            alphabet,
            order,
            trans,
            None if init is None else np.asarray(init, dtype=float),
            ergodic=bool(doc.get("ergodic", True)),
        )
    if mtype == "hmm":
        for key in ("hidden_kernel", "emissions"):
            if key not in doc:
                raise ValidationError(f"model.{key}: missing required field")
        extra = set(doc) - {"type", "alphabet", "hidden_kernel", "emissions"}
        if extra:
            raise ValidationError(f"model.{sorted(extra)[0]}: unknown field")
        alphabet = None
        if "alphabet" in doc:
            alphabet = Alphabet(tuple(str(s) for s in doc["alphabet"]))
        return HMMModel(np.asarray(doc["hidden_kernel"], float), np.asarray(doc["emissions"], float), alphabet)
    if mtype == "blockwise":
        extra = set(doc) - {"type", "epsilon", "tail_cap"}
        if extra:
            raise ValidationError(f"model.{sorted(extra)[0]}: unknown field")
        if "epsilon" not in doc:
            raise ValidationError("model.epsilon: missing required field")
        return BlockwiseModel(float(doc["epsilon"]), int(doc.get("tail_cap", 10**8)))
    raise ValidationError(f"model.type: expected 'markov', 'hmm' or 'blockwise', got {mtype!r}")


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"model file {path}: invalid JSON ({exc})") from None
    return model_from_dict(doc)
