import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrokit.coder import (
    Bitstream,
    CodecParams,
    c1_budget,
    c_prime,
    codelength,
    codelength_from_counts,
    count_field_width,
    decode,
    encode,
    gamma_length,
    header_length,
    log_star,
    paper_upper_bound,
    symbol_width,
)
from entrokit.errors import (
    BadContextError,
    CorruptError,
    GuardExceededError,
    TooShortError,
    ValidationError,
    ZeroProbabilityBlockError,
)
from entrokit.models import Alphabet, MarkovModel, SymbolSequence, sample
from entrokit.typeclass import block_frequencies, type_class_size

from conftest import A2, binseq


class TestLogStar:
    @pytest.mark.parametrize("n,want", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (16, 3), (65536, 4)])
    def test_values(self, n, want):
        assert log_star(n) == want

    def test_growth_bound(self):
        for n in list(range(1, 2000)) + [10**6, 10**9, 10**15]:
            assert log_star(n) < 2 * math.log2(n) + 2


class TestBitstream:
    def test_write_read(self):
        bits = Bitstream()
        bits.write_bits(5, 3)
        bits.write_gamma(10)
        bits.write_bits(1, 1)
        bits.rewind()
        assert bits.read_bits(3) == 5
        assert bits.read_gamma() == 10
        assert bits.read_bits(1) == 1
        assert bits.bits_left() == 0

    def test_bytes_roundtrip_all_pad_widths(self):
        for extra in range(9):
            bits = Bitstream()
            bits.write_bits((1 << extra) - 1, extra)
            bits.write_bits(0b1011, 4)
            raw = bits.to_bytes()
            assert len(raw) % 1 == 0
            back = Bitstream.from_bytes(raw)
            assert back == bits

    def test_truncation_detected(self):
        bits = Bitstream()
        bits.write_bits(3, 2)
        bits.rewind()
        with pytest.raises(CorruptError):
            bits.read_bits(3)

    @pytest.mark.parametrize("value, width", [(4, 2), (-1, 3), (1, 0), (0, -1)])
    def test_unwritable_value_rejected(self, value, width):
        bits = Bitstream()
        bits.write_bits(5, 3)
        with pytest.raises(ValidationError):
            bits.write_bits(value, width)
        assert len(bits) == 3 and bits._canonical() == bytes([0b10100000])

    @settings(max_examples=300, deadline=None)
    @given(
        offset=st.integers(0, 7),
        fields=st.lists(
            st.integers(0, 300).flatmap(lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))),
            max_size=12,
        ),
    )
    def test_matches_per_bit_reference(self, offset, fields):
        # a leading field of 0-7 bits puts the later fields at every bit offset
        fields = [((1 << offset) - 1, offset)] + fields
        bits = Bitstream()
        for value, width in fields:
            bits.write_bits(value, width)
        ref = _reference_bits(fields)
        assert len(bits) == len(ref)
        assert bits._canonical() == _pack(ref)
        pad = (-(len(ref) + 3)) % 8
        raw = bits.to_bytes()
        assert raw == _pack(ref + [0] * pad + [pad >> 2 & 1, pad >> 1 & 1, pad & 1])
        back = Bitstream.from_bytes(raw)
        assert back == bits and back.to_bytes() == raw
        for value, width in fields:
            assert back.read_bits(width) == value
        assert back.bits_left() == 0
        with pytest.raises(CorruptError):
            back.read_bits(1)


def _reference_bits(fields) -> list[int]:
    """Per-bit reference writer: every field's bits, most significant first."""
    return [(value >> i) & 1 for value, width in fields for i in range(width - 1, -1, -1)]


def _pack(bits: list[int]) -> bytes:
    """Bits to bytes, most significant first, the last byte zero-filled."""
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        out[i // 8] |= bit << (7 - i % 8)
    return bytes(out)


class TestHeaderArithmetic:
    def test_gamma_length(self):
        assert gamma_length(1) == 1
        assert gamma_length(2) == 3
        assert gamma_length(101) == 13

    def test_count_field_width(self):
        assert count_field_width(5, 1) == 3  # counts 0..4 need 3 bits
        assert count_field_width(2, 2) == 0

    def test_schedule(self):
        params = CodecParams.schedule(0.1)
        assert params.resolve_m(1 << 16, 2) == 6
        assert params.resolve_m(1 << 10, 2) == 4
        assert params.resolve_m(1, 2) == 0
        assert CodecParams.fixed(2).resolve_m(10**6, 2) == 2


class TestCodecRoundTrip:
    def test_worked_example(self):
        seq = binseq("01001")
        bits = encode(seq, CodecParams.fixed(1))
        assert np.array_equal(decode(bits, A2).data, seq.data)

    def test_index_field_one_bit(self):
        seq = binseq("01001")
        total = len(encode(seq, CodecParams.fixed(1)))
        assert total == header_length(2, 1, 5) + 1  # |T| = 2 -> ceil(log2 2) = 1

    def test_all_zeros_header_only(self):
        seq = SymbolSequence(A2, np.zeros(100, dtype=np.int64))
        bits = encode(seq, CodecParams.fixed(1))
        # singleton class: no index field; grammar arithmetic done by hand
        want = 16 + gamma_length(2) + gamma_length(101) + 1 * 1 + 4 * count_field_width(100, 1)
        assert len(bits) == want
        assert np.array_equal(decode(bits, A2).data, seq.data)

    def test_empty_sequence(self):
        seq = SymbolSequence(A2, np.empty(0, dtype=np.int64))
        bits = encode(seq, CodecParams.fixed(0))
        assert len(decode(bits, A2)) == 0

    def test_n_equals_m(self):
        seq = binseq("10")
        bits = encode(seq, CodecParams.fixed(2))
        assert np.array_equal(decode(bits, A2).data, seq.data)

    def test_n_equals_m_builds_no_count_table(self):
        # at n = m = 22 the 2**23 count fields have width 0: encode and
        # codelength must not build them
        seq = SymbolSequence(A2, np.ones(22, dtype=np.int64))
        params = CodecParams.fixed(22)
        t0 = time.perf_counter()
        bits = encode(seq, params)
        assert time.perf_counter() - t0 < 0.1
        t0 = time.perf_counter()
        length = codelength(seq, params)
        assert time.perf_counter() - t0 < 0.1
        assert len(bits) == length
        assert bits.to_bytes() == bytes.fromhex("01020b85ffffff05")
        assert np.array_equal(decode(bits, A2).data, seq.data)

    def test_randomized_roundtrip_and_codelength(self):
        rng = np.random.default_rng(7)
        for _ in range(250):
            l = int(rng.integers(2, 5))
            m = int(rng.integers(0, 3))
            n = int(rng.integers(m + 1, 257))
            alphabet = Alphabet(tuple(str(i) for i in range(l)))
            seq = SymbolSequence(alphabet, rng.integers(0, l, size=n).astype(np.int64))
            params = CodecParams.fixed(m)
            bits = encode(seq, params)
            assert len(bits) == codelength(seq, params)
            out = decode(bits, alphabet)
            assert np.array_equal(out.data, seq.data)

    def test_schedule_roundtrip(self):
        rng = np.random.default_rng(8)
        params = CodecParams.schedule(0.1)
        for n in (2, 17, 300, 1500):
            seq = SymbolSequence(A2, rng.integers(0, 2, size=n).astype(np.int64))
            bits = encode(seq, params)
            assert len(bits) == codelength(seq, params)
            assert np.array_equal(decode(bits, A2).data, seq.data)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            encode(binseq("01"), CodecParams.fixed(3))

    def test_guard(self):
        seq = SymbolSequence(Alphabet(tuple(str(i) for i in range(4))), np.zeros(20, dtype=np.int64))
        with pytest.raises(GuardExceededError):
            encode(seq, CodecParams.fixed(13))


    def test_alphabet_above_header_field(self):
        # an alphabet of 300 symbols has no codeword: every entry point refuses it
        big = Alphabet(tuple(str(i) for i in range(300)))
        seq = SymbolSequence(big, np.arange(300, dtype=np.int64))
        params = CodecParams.fixed(0)
        with pytest.raises(GuardExceededError):
            encode(seq, params)
        with pytest.raises(GuardExceededError):
            codelength(seq, params)
        with pytest.raises(GuardExceededError):
            codelength_from_counts(block_frequencies(seq, 0))
        with pytest.raises(GuardExceededError):
            decode(encode(binseq("01001"), params), big)


class TestDecodeRobustness:
    def test_truncated_errors_or_differs(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 64))
            seq = SymbolSequence(A2, rng.integers(0, 2, size=n).astype(np.int64))
            bits = encode(seq, CodecParams.fixed(1))
            cut = Bitstream(bytearray(bits._canonical()), len(bits) - int(rng.integers(1, len(bits))))
            try:
                out = decode(cut, A2)
            except CorruptError:
                continue
            assert not np.array_equal(out.data, seq.data) or len(encode(out, CodecParams.fixed(1))) != len(bits)

    def test_bitflip_errors_or_reencodes_differently(self):
        rng = np.random.default_rng(12)
        aliased = 0
        for _ in range(120):
            n = int(rng.integers(2, 64))
            seq = SymbolSequence(A2, rng.integers(0, 2, size=n).astype(np.int64))
            params = CodecParams.fixed(1)
            bits = encode(seq, params)
            buf = bytearray(bits._canonical())
            pos = int(rng.integers(0, len(bits)))
            buf[pos // 8] ^= 0x80 >> (pos % 8)
            flipped = Bitstream(buf, len(bits))
            try:
                out = decode(flipped, A2)
            except CorruptError:
                continue
            if np.array_equal(out.data, seq.data):
                aliased += 1
                continue
            # decoded to something else: must not silently alias the original codeword
            assert encode(out, params) == flipped or encode(out, params) != bits
        assert aliased == 0

    def test_junk_rejected(self):
        with pytest.raises(CorruptError):
            decode(Bitstream(bytearray(b"garbage!"), 64), A2)

    def test_zero_width_count_table_is_not_built(self):
        # encode(ones(22), m = 22): n = m, so the 2**23 count fields have width
        # 0 and the codeword is 8 bytes; decoding must not build that table
        raw = bytes.fromhex("01020b85ffffff05")
        t0 = time.perf_counter()
        out = decode(Bitstream.from_bytes(raw), A2)
        assert time.perf_counter() - t0 < 0.1
        assert np.array_equal(out.data, np.ones(22, dtype=np.int64))
        padded = Bitstream.from_bytes(raw)
        padded.write_bits(0, 1)
        t0 = time.perf_counter()
        with pytest.raises(CorruptError):
            decode(padded, A2)
        assert time.perf_counter() - t0 < 0.1


class TestKraft:
    def test_kraft_and_count_bound_binary_up_to_8(self):
        params = CodecParams.fixed(1)
        lengths = []
        for n in range(1, 9):
            for bits in itertools.product((0, 1), repeat=n):
                seq = SymbolSequence(A2, np.array(bits, dtype=np.int64))
                lengths.append(codelength(seq, params))
        total = sum(2.0 ** -v for v in lengths)
        assert total <= 1.0 + 1e-12
        for v in range(1, max(lengths) + 2):
            assert sum(1 for w in lengths if w < v) <= 2**v


class TestPaperUpperBound:
    def test_inequality_exhaustive_binary(self, bern25, sym_chain):
        for model, m in ((bern25, 0), (sym_chain, 1)):
            params = CodecParams.fixed(m)
            for n in range(m + 1, 13):
                for bits in itertools.product((0, 1), repeat=n):
                    seq = SymbolSequence(A2, np.array(bits, dtype=np.int64))
                    assert codelength(seq, params) <= paper_upper_bound(seq, params, model)

    def test_uniform_iid_identity(self, uniform2):
        # constant part cancels; the likelihood term is exactly n bits
        params = CodecParams.fixed(0)
        for n in (5, 64, 200):
            seq = sample(uniform2, n, seed=n)
            ub = paper_upper_bound(seq, params, uniform2)
            const = (
                c_prime(0, n) + log_star(0) + 2 * symbol_width(2)
                + 0 * symbol_width(2) + 2 * count_field_width(n, 0)
            )
            assert ub - const == pytest.approx(n, abs=1e-9)

    def test_zero_probability_block(self):
        det = MarkovModel(A2, 1, np.array([[0.0, 1.0], [1.0, 0.0]]), ergodic=False)
        with pytest.raises(ZeroProbabilityBlockError):
            paper_upper_bound(binseq("01001"), CodecParams.fixed(1), det)

    def test_codec_order_differs_from_model_order(self, sym_chain):
        # window shorter than the model order: conditional comes from marginalization
        seq = sample(sym_chain, 500, seed=2)
        val = paper_upper_bound(seq, CodecParams.fixed(0), sym_chain)
        assert codelength(seq, CodecParams.fixed(0)) <= val

    def test_matches_per_window_conditionals(self, sym_chain, order2_chain, ternary_chain):
        # the one Q table against conditional_given_window, codec m above and below the model order
        for model in (sym_chain, order2_chain, ternary_chain):
            l = model.alphabet.size
            for m in range(4):
                seq = sample(model, 300, seed=10 * m + l)
                desc = block_frequencies(seq, m)
                loglik = 0.0
                for j, cnt in enumerate(desc.counts):
                    if cnt:
                        window = tuple(j // l**(i + 1) % l for i in reversed(range(m)))
                        loglik += cnt * math.log2(float(model.conditional_given_window(window)[j % l]))
                got = paper_upper_bound(seq, CodecParams.fixed(m), model)
                assert got == c1_budget(l, m, len(seq)) - loglik, (model.order, m)

    def test_zero_mass_window(self):
        # P(1 | .) = 1e-10 at order 3: the window "11" has stationary mass below
        # the stationary solve's 1e-15 cut-off, so its conditional law is undefined
        rare = MarkovModel(A2, 3, np.array([[1 - 1e-10, 1e-10]] * 8))
        with pytest.raises(BadContextError):
            paper_upper_bound(binseq("0110"), CodecParams.fixed(2), rare)

    def test_alphabet_mismatch(self, ternary_chain):
        with pytest.raises(ValidationError):
            paper_upper_bound(binseq("0110"), CodecParams.fixed(1), ternary_chain)


class TestFlipStability:
    @pytest.mark.parametrize("l,m,n", [(2, 0, 512), (2, 1, 512), (2, 2, 256), (3, 1, 243), (4, 2, 256)])
    def test_flip_budget(self, l, m, n):
        # single-symbol substitutions move the codeword length by at most
        # the position-plus-symbol naming budget (checked over random flips)
        rng = np.random.default_rng(l * 100 + m * 10 + 1)
        alphabet = Alphabet(tuple(str(i) for i in range(l)))
        params = CodecParams.fixed(m)
        budget = c_prime(m, n) + log_star(n) + symbol_width(l)
        trials = 0
        model = MarkovModel.iid(np.ones(l) / l, alphabet)
        while trials < 10_000:
            seq = sample(model, n, seed=int(rng.integers(0, 2**63)))
            base = codelength(seq, params)
            for _ in range(50):
                pos = int(rng.integers(0, n))
                repl = int(rng.integers(0, l))
                if repl == seq.data[pos]:
                    continue
                data = seq.data.copy()
                data[pos] = repl
                flipped = codelength(SymbolSequence(alphabet, data), params)
                assert abs(flipped - base) <= budget, (l, m, n, pos, repl, flipped - base, budget)
                trials += 1


class TestIndexBoundInequality:
    def test_index_bits_below_empirical_likelihood(self):
        # ceil(log2 |T|) <= -(n-m) sum f log2 f(.|ctx) + 1 for the sequence's own counts
        rng = np.random.default_rng(21)
        for _ in range(200):
            l = int(rng.integers(2, 4))
            m = int(rng.integers(0, 3))
            n = int(rng.integers(m + 2, 200))
            alphabet = Alphabet(tuple(str(i) for i in range(l)))
            seq = SymbolSequence(alphabet, rng.integers(0, l, size=n).astype(np.int64))
            desc = block_frequencies(seq, m)
            size = type_class_size(desc)
            counts = np.asarray(desc.counts, dtype=float).reshape(-1, l)
            ctx_tot = counts.sum(axis=1, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                qhat = np.where(counts > 0, counts / np.where(ctx_tot > 0, ctx_tot, 1.0), 1.0)
                loglik = float((counts * np.log2(qhat)).sum())
            index_bits = (size - 1).bit_length() if size > 1 else 0
            assert index_bits <= -loglik + 1.0 + 1e-9


def _digest(codewords) -> str:
    h = hashlib.sha256()
    for bits in codewords:
        h.update(bits.to_bytes())
    return h.hexdigest()


class TestPinnedCodewords:
    """sha256 of CODEC_VERSION 1 codeword bytes: any change to the format fails here."""

    def test_random_cases(self):
        # skewed symbol laws give small and singleton classes as well as large ones
        rng = np.random.default_rng(20261019)
        words = []
        for _ in range(120):
            l = int(rng.integers(2, 5))
            m = int(rng.integers(0, 4))
            n = int(rng.integers(m, 600))
            alphabet = Alphabet(tuple(str(i) for i in range(l)))
            law = rng.dirichlet(np.full(l, 0.5))
            seq = SymbolSequence(alphabet, rng.choice(l, size=n, p=law))
            words.append(encode(seq, CodecParams.fixed(m)))
        assert _digest(words) == "e04938d7bcdcf0e80eef18fa4fa285073d9504bb35692563b4390b3ce8139217"

    @pytest.mark.parametrize(
        "m, n, digest",
        [
            (0, 1 << 15, "2e1e94f7f1b0ce81cc1cad1c07c87bb7384c1168ef92e049ecb6ab61f88792d2"),
            (1, 1 << 14, "66cb8e90af3eb016310f98339cb97f7b3ef7c8cd7f87023fb22fa27a1a19a849"),
        ],
    )
    def test_long_low_order(self, m, n, digest):
        # Bern(1/4) at m = 0 and the flip-0.1 binary chain at m = 1: index
        # fields of thousands of bits, ranked and unranked over many chunks
        rng = np.random.default_rng(n)
        data = (rng.random(n) < 0.25) if m == 0 else np.cumsum(rng.random(n) < 0.1) % 2
        seq = SymbolSequence(A2, data.astype(np.int64))
        bits = encode(seq, CodecParams.fixed(m))
        assert _digest([bits]) == digest
        assert np.array_equal(decode(bits, A2).data, seq.data)
