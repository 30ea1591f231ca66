"""Prefix-free lossless codec whose codeword length is the complexity surrogate.

A codeword spells, in order: an 8-bit format version, the 8-bit alphabet
size, the block order m and the length n as Elias-gamma integers, the first
m symbols, the full (m+1)-block count table in fixed-width fields, and
finally the enumerative index of the sequence inside its type class
(omitted when the class is a singleton).  Every field is self-delimiting
given the previous ones, so the code is prefix-free and the decoder needs
no out-of-band length.

The concrete "machine constants" of this codec, used by every bound:

- c_prime(m, n): bits of the fixed header fields (version, alphabet size,
  and the two gamma envelopes);
- K_sym = ceil(log2 l): cost of naming one symbol;
- the count table costs l**(m+1) * ceil(log2(n-m+1)) bits and the prefix
  m * ceil(log2 l) bits.

The index field costs ceil(log2 |T|) <= -(n-m) * sum_j f_j log2 Q_j + 1 for
any Markov law Q positive on the observed blocks, which is what makes
codelength <= paper_upper_bound an exact inequality rather than an
asymptotic one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadContextError,
    CorruptError,
    GuardExceededError,
    IndexOutOfRangeError,
    InfeasibleError,
    TooShortError,
    ValidationError,
    ZeroProbabilityBlockError,
)
from .models import Alphabet, MarkovModel, SymbolSequence
from .typeclass import BlockFrequencyVector, block_frequencies, index_width, index_widths, rank_in_type_class, unrank

CODEC_VERSION = 1
HEADER_GUARD_BITS = 1 << 26


def log_star(n) -> int:
    """Iterated-log count: 0 for n <= 1, else 1 + log_star(log2 n)."""
    if n < 0:
        raise ValidationError("log_star: argument must be non-negative")
    x = float(n)
    count = 0
    while x > 1.0:
        x = math.log2(x)
        count += 1
    return count


class Bitstream:
    """Self-delimiting bit array with MSB-first reader/writer cursors."""

    def __init__(self, bits: bytearray | None = None, length: int = 0) -> None:
        self._buf = bytearray() if bits is None else bits
        self.length = length
        self._pos = 0

    def __len__(self) -> int:
        return self.length

    def _canonical(self) -> bytes:
        """Buffer truncated to length bits with dead tail bits zeroed."""
        nbytes = (self.length + 7) // 8
        out = bytearray(self._buf[:nbytes])
        tail = self.length % 8
        if nbytes and tail:
            out[-1] &= 0xFF << (8 - tail) & 0xFF
        return bytes(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bitstream)
            and self.length == other.length
            and self._canonical() == other._canonical()
        )

    # writing --------------------------------------------------------------

    def write_bits(self, value: int, width: int) -> None:
        if width < 0 or (width == 0 and value != 0) or value < 0 or (width and value >> width):
            raise ValidationError(f"cannot write value {value} in {width} bits")
        if not width:
            return
        # splice the partial last byte's live bits and the field into whole bytes
        used = self.length % 8
        keep = self.length // 8
        if used:
            value |= (self._buf[keep] >> (8 - used)) << width
        total = used + width
        del self._buf[keep:]
        self._buf += (value << (-total % 8)).to_bytes((total + 7) // 8, "big")
        self.length += width

    def write_gamma(self, value: int) -> None:
        """Elias gamma code of a positive integer."""
        if value < 1:
            raise ValidationError("gamma code needs a positive integer")
        b = value.bit_length()
        self.write_bits(0, b - 1)
        self.write_bits(value, b)

    # reading --------------------------------------------------------------

    def read_bits(self, width: int) -> int:
        if self._pos + width > self.length:
            raise CorruptError("codeword truncated")
        stop = self._pos + width
        chunk = int.from_bytes(self._buf[self._pos // 8 : (stop + 7) // 8], "big")
        self._pos = stop
        return (chunk >> (-stop % 8)) & ((1 << width) - 1)

    def read_gamma(self) -> int:
        zeros = 0
        while True:
            bit = self.read_bits(1)
            if bit:
                break
            zeros += 1
            if zeros > 64:
                raise CorruptError("gamma envelope too long")
        return (1 << zeros) | self.read_bits(zeros)

    def bits_left(self) -> int:
        return self.length - self._pos

    def rewind(self) -> None:
        self._pos = 0

    # byte serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Pad to a byte boundary; the final 3 bits store the pad width."""
        pad = (-(self.length + 3)) % 8
        out = Bitstream(bytearray(self._buf), self.length)
        out.write_bits(pad, pad + 3)  # pad zero bits, then pad in 3 bits
        return bytes(out._buf)

    @staticmethod
    def from_bytes(raw: bytes) -> "Bitstream":
        total = 8 * len(raw)
        if total < 3:
            raise CorruptError("codeword file shorter than its pad trailer")
        pad = raw[-1] & 0b111
        payload = total - 3 - pad
        if payload < 0:
            raise CorruptError("pad trailer inconsistent with file size")
        return Bitstream(bytearray(raw), payload)


def gamma_length(value: int) -> int:
    return 2 * value.bit_length() - 1


def symbol_width(l: int) -> int:
    """ceil(log2 l): fixed cost of naming one symbol."""
    return max(1, (l - 1).bit_length())


def count_field_width(n: int, m: int) -> int:
    """Width of one count field; counts range over 0..n-m."""
    return (n - m).bit_length() if n > m else 0


def c_prime(m: int, n: int) -> int:
    """Fixed header bits: version + alphabet size + the two gamma envelopes."""
    return 16 + gamma_length(m + 1) + gamma_length(n + 1)


def header_length(l: int, m: int, n: int) -> int:
    return c_prime(m, n) + m * symbol_width(l) + l ** (m + 1) * count_field_width(n, m)


def c1_budget(l: int, m: int, n: int) -> int:
    """Deterministic description budget C1(n): the header plus log*(m) + l * K_sym."""
    return header_length(l, m, n) + log_star(m) + l * symbol_width(l)


@dataclass(frozen=True)
class CodecParams:
    """Block order selection: a fixed m, or the (1/2 - eps)/log2(l) * log2(n) schedule."""

    m: int | None = None
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if self.m is not None and self.m < 0:
            raise ValidationError("codec order m must be non-negative")
        if self.m is None and not 0.0 < self.epsilon < 0.5:
            raise ValidationError("schedule epsilon must lie in (0, 0.5)")

    @staticmethod
    def fixed(m: int) -> "CodecParams":
        return CodecParams(m=m)

    @staticmethod
    def schedule(epsilon: float = 0.1) -> "CodecParams":
        return CodecParams(m=None, epsilon=epsilon)

    def resolve_m(self, n: int, l: int) -> int:
        if self.m is not None:
            return self.m
        if n < 2:
            return 0
        return int(((0.5 - self.epsilon) / math.log2(l)) * math.log2(n))


def _check_guard(l: int, m: int, n: int) -> None:
    # guard shared by encode, decode and both codelength functions: the
    # alphabet must fit its 8-bit field, and l**(m+1) * ceil(log2(n+1)) header
    # bits must stay below 2**26; the cheap log test first so absurd header
    # claims never materialize l**(m+1)
    if l > 255:
        raise GuardExceededError("alphabet size above the 8-bit header field")
    if n > 1 << 31:
        raise GuardExceededError(f"sequence length {n} above the 2**31 cap")
    if (m + 1) * math.log2(l) > 40 or l ** (m + 1) * max(1, n.bit_length()) > HEADER_GUARD_BITS:
        raise GuardExceededError(
            f"count table of l**(m+1) fields at m = {m} exceeds the header guard"
        )


def encode(seq: SymbolSequence, params: CodecParams) -> Bitstream:
    """Encode a sequence into a self-delimiting codeword."""
    n = len(seq)
    l = seq.alphabet.size
    m = params.resolve_m(n, l)
    if n < m:
        raise TooShortError(f"cannot encode n = {n} < m = {m}")
    _check_guard(l, m, n)
    bits = Bitstream()
    bits.write_bits(CODEC_VERSION, 8)
    bits.write_bits(l, 8)
    bits.write_gamma(m + 1)
    bits.write_gamma(n + 1)
    sw = symbol_width(l)
    for s in seq.data[:m].tolist():
        bits.write_bits(s, sw)
    w = count_field_width(n, m)
    # at n = m the class is the prefix alone and its count fields have width 0,
    # so neither the l**(m+1) fields nor an index are built (see decode)
    if w:
        desc = block_frequencies(seq, m)
        for c in desc.counts:
            bits.write_bits(c, w)
        width = index_width(desc)
        if width:
            bits.write_bits(rank_in_type_class(seq, m), width)
    return bits


def decode(bits: Bitstream, alphabet: Alphabet | None = None) -> SymbolSequence:
    """Decode a codeword produced by encode; inverse on every valid input.

    The decoder recomputes the index width ceil(log2 |T|) from the header,
    reads exactly that many index bits and unranks them exactly; any
    inconsistency raises Corrupt.
    """
    if alphabet is not None:
        _check_guard(alphabet.size, 0, 0)
    bits.rewind()
    version = bits.read_bits(8)
    if version != CODEC_VERSION:
        raise CorruptError(f"unknown codec version {version}")
    l = bits.read_bits(8)
    if l < 2:
        raise CorruptError(f"alphabet size {l} out of range")
    m = bits.read_gamma() - 1
    n = bits.read_gamma() - 1
    if n < m:
        raise CorruptError("header claims n < m")
    _check_guard(l, m, n)
    if alphabet is None:
        alphabet = Alphabet(tuple(str(i) for i in range(l)))
    elif alphabet.size != l:
        raise CorruptError("alphabet size does not match the header")
    sw = symbol_width(l)
    prefix = tuple(bits.read_bits(sw) for _ in range(m))
    if any(s >= l for s in prefix):
        raise CorruptError("prefix symbol out of alphabet")
    w = count_field_width(n, m)
    desc = None
    width = 0
    # at n = m the fields have width 0, every count is 0 and the class is the
    # prefix alone; the l**(m+1) fields cost no input bits, so they are not
    # built (an 8-byte codeword at m = 22 would otherwise build 2**23 of them)
    if w:
        counts = tuple(bits.read_bits(w) for _ in range(l ** (m + 1)))
        if sum(counts) != n - m:
            raise CorruptError("count table does not sum to n - m")
        desc = BlockFrequencyVector(alphabet=alphabet, order=m, prefix=prefix, counts=counts, n=n)
        try:
            width = index_width(desc)
        except InfeasibleError:
            raise CorruptError("count table admits no sequence") from None
    index = bits.read_bits(width)
    if bits.bits_left():
        raise CorruptError(f"{bits.bits_left()} trailing bits after the codeword")
    if desc is None:
        return SymbolSequence(alphabet, np.array(prefix, dtype=np.int64))
    try:
        return unrank(desc, index)
    except IndexOutOfRangeError:
        raise CorruptError(f"index {index} outside the type class") from None


def codelength(seq: SymbolSequence, params: CodecParams) -> int:
    """Exact bit length of encode(seq, params) without materializing it."""
    n = len(seq)
    l = seq.alphabet.size
    m = params.resolve_m(n, l)
    if n < m:
        raise TooShortError(f"cannot encode n = {n} < m = {m}")
    _check_guard(l, m, n)
    if n == m:
        return header_length(l, m, n)  # the prefix alone: no index field (see encode)
    return codelength_from_counts(block_frequencies(seq, m))


def codelength_from_counts(desc: BlockFrequencyVector) -> int:
    """codelength of any member of the descriptor's type class: ``codelengths`` of one row."""
    counts = np.array([desc.counts], dtype=np.int64)
    return int(codelengths(desc.alphabet, desc.order, desc.n, counts, np.array([desc.prefix], dtype=np.int64))[0])


def codelengths(alphabet: Alphabet, m: int, n: int, counts, heads) -> np.ndarray:
    """codelength of every row of a count table as int64, in one ``index_widths`` batch.

    Row r is the descriptor of a length-n sequence with (m+1)-block counts
    counts[r] (l**(m+1) of them) and prefix heads[r, :m], as the walker's
    (counts, heads) hold them. Raises what ``codelength`` and
    ``codelength_from_counts`` raise: TooShortError for n < m, the guard's
    GuardExceededError, and ValidationError for a malformed table or a row
    that admits no sequence.
    """
    if n < m:
        raise TooShortError(f"cannot encode n = {n} < m = {m}")
    _check_guard(alphabet.size, m, n)
    try:
        index_bits = index_widths(alphabet, m, n, counts, heads)
    except InfeasibleError:
        raise ValidationError("descriptor admits no sequence") from None
    return header_length(alphabet.size, m, n) + index_bits


def paper_upper_bound(seq: SymbolSequence, params: CodecParams, model: MarkovModel) -> float:
    """Closed-form bound on codelength with this codec's concrete constants.

    C'(m,n) + log*(m) + l*K_sym + m*ceil(log2 l) + l**(m+1)*ceil(log2(n-m+1))
    - (n-m) sum_j f_j log2 Q_j, where Q is the model's conditional law on
    length-m windows.  Raises ZeroProbabilityBlock if an observed block has
    Q = 0 (the bound is +infinity there).
    """
    n = len(seq)
    l = seq.alphabet.size
    m = params.resolve_m(n, l)
    if n < m:
        raise TooShortError(f"cannot bound n = {n} < m = {m}")
    if model.alphabet.size != l:
        raise ValidationError(f"model alphabet size {model.alphabet.size} differs from the sequence's {l}")
    desc = block_frequencies(seq, m)
    # row w, the base-l code of a length-m window, is Q( . | w)
    if m >= model.order:
        q_table, mass = model.transitions[np.arange(l**m) % l**model.order], None
    else:
        q_table, mass = model.window_laws(m)
    loglik = 0.0
    for j, cnt in enumerate(desc.counts):
        if cnt == 0:
            continue
        ctx_code, x = divmod(j, l)
        if mass is not None and mass[ctx_code] == 0.0:
            raise BadContextError("window has zero stationary probability")
        qv = float(q_table[ctx_code, x])
        if qv <= 0.0:
            raise ZeroProbabilityBlockError(
                f"block {j} observed {cnt} times but has zero model probability"
            )
        loglik += cnt * math.log2(qv)
    return c1_budget(l, m, n) - loglik
