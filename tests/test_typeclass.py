import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrokit import typeclass
from entrokit.coder import codelength_from_counts
from entrokit.errors import IndexOutOfRangeError, InfeasibleError, TooShortError, ValidationError
from entrokit.models import Alphabet, MarkovModel, SymbolSequence, walk_paths
from entrokit.typeclass import (
    BlockFrequencyVector,
    block_frequencies,
    enumerate_type_class,
    index_width,
    index_widths,
    rank_in_type_class,
    type_class_size,
    unrank,
)

from conftest import A2, A3, binseq


class TestBlockFrequencies:
    def test_footnote_example(self):
        desc = block_frequencies(binseq("01001"), 1)
        # counts indexed by (context, symbol): 00, 01, 10, 11
        assert desc.counts == (1, 2, 1, 0)
        assert desc.prefix == (0,)
        assert np.allclose(desc.frequencies(), [0.25, 0.5, 0.25, 0.0])

    def test_histogram_at_order_zero(self):
        desc = block_frequencies(binseq("01001"), 0)
        assert desc.counts == (3, 2)
        assert desc.prefix == ()

    def test_boundary_n_equals_m(self):
        desc = block_frequencies(binseq("01"), 2)
        assert sum(desc.counts) == 0
        assert desc.prefix == (0, 1)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            block_frequencies(binseq("01"), 3)

    def test_descriptor_validation(self):
        with pytest.raises(ValidationError):
            BlockFrequencyVector(A2, 1, (0,), (1, 1, 1, 1), 3)  # counts must sum to n-m


class TestTypeClassSize:
    def test_worked_example(self):
        desc = block_frequencies(binseq("01001"), 1)
        assert type_class_size(desc) == 2
        members = enumerate_type_class(desc)
        assert members == [(0, 0, 1, 0, 1), (0, 1, 0, 0, 1)]

    def test_all_zeros_unique(self):
        seq = SymbolSequence(A2, np.zeros(100, dtype=np.int64))
        assert type_class_size(block_frequencies(seq, 1)) == 1

    def test_infeasible_counts(self):
        # counts sum to n-m but the walk cannot leave the start context
        desc = BlockFrequencyVector(A2, 1, (0,), (0, 0, 0, 2), 3)
        assert type_class_size(desc) == 0

    def test_exhaustive_binary(self):
        for n in range(0, 10):
            for m in (0, 1, 2):
                if n < m:
                    continue
                for bits in itertools.product((0, 1), repeat=n):
                    seq = SymbolSequence(A2, np.array(bits, dtype=np.int64))
                    desc = block_frequencies(seq, m)
                    assert type_class_size(desc) == len(enumerate_type_class(desc)), (bits, m)

    def test_exhaustive_ternary_spot(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(0, 3))
            if n < m:
                continue
            seq = SymbolSequence(A3, rng.integers(0, 3, size=n).astype(np.int64))
            desc = block_frequencies(seq, m)
            assert type_class_size(desc) == len(enumerate_type_class(desc))


def exact_width(desc) -> int:
    return (type_class_size(desc) - 1).bit_length()


class TestIndexWidth:
    @settings(max_examples=200, deadline=None)
    @given(
        l=st.integers(2, 4),
        m=st.integers(0, 3),
        log2_n=st.integers(0, 12),
        concentration=st.sampled_from([0.1, 1.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_exact_size(self, l, m, log2_n, concentration, seed):
        # n spread evenly over scales up to 2**12; low concentrations give
        # skewed symbol laws, hence small and singleton classes
        rng = np.random.default_rng(seed)
        n = max(int(rng.integers(1 << log2_n >> 1, (1 << log2_n) + 1)), m)
        law = rng.dirichlet(np.full(l, concentration))
        seq = SymbolSequence(Alphabet(tuple(str(i) for i in range(l))), rng.choice(l, size=n, p=law))
        desc = block_frequencies(seq, m)
        assert index_width(desc) == exact_width(desc)

    @pytest.mark.parametrize("ones", [1, 3, 1 << 10, (1 << 17) + 12345, 1 << 17])
    def test_order_zero_at_large_n(self, ones):
        n = 1 << 18
        desc = BlockFrequencyVector(A2, 0, (), (n - ones, ones), n)
        assert index_width(desc) == exact_width(desc)

    @pytest.mark.parametrize("counts, width", [((1, 1), 1), ((1, 3), 2), ((0, 5), 0), ((3, 5), 6)])
    def test_power_of_two_classes_take_the_exact_path(self, monkeypatch, counts, width):
        # |T| = 2, 4, 1 put log2 |T| on an integer, so the float path must not decide;
        # |T| = C(8, 3) = 56 is certified without the exact size
        calls = []
        exact = typeclass.type_class_size
        monkeypatch.setattr(typeclass, "type_class_size", lambda desc: calls.append(desc) or exact(desc))
        desc = BlockFrequencyVector(A2, 0, (), counts, sum(counts))
        assert index_width(desc) == width
        assert calls == ([] if counts == (3, 5) else [desc])

    def test_power_of_two_classes_take_the_exact_path_in_a_batch(self, monkeypatch):
        # |T| = 1 and 8 (rows 2 and 3) take the exact size; 56, 70 and 28 are certified
        calls = []
        exact = typeclass.type_class_size
        monkeypatch.setattr(typeclass, "type_class_size", lambda desc: calls.append(desc.counts) or exact(desc))
        counts = [(3, 5), (4, 4), (0, 8), (1, 7), (2, 6)]
        assert index_widths(A2, 0, 8, counts, np.zeros((5, 0), dtype=np.int64)).tolist() == [6, 7, 0, 3, 5]
        assert calls == [(0, 8), (1, 7)]

    def test_infeasible_descriptors(self):
        no_walk = BlockFrequencyVector(A2, 1, (0,), (0, 0, 0, 2), 3)  # flow fails
        unreachable = BlockFrequencyVector(A2, 1, (0,), (1, 0, 0, 1), 3)  # flow holds, context 1 unreachable
        # flow holds, and 01 -> 10 -> 01 is a cycle of one-block contexts
        forced_cycle = BlockFrequencyVector(A2, 2, (0, 0), (1, 0, 1, 0, 0, 1, 0, 0), 5)
        assert enumerate_type_class(forced_cycle) == []
        for desc in (no_walk, unreachable, forced_cycle):
            assert type_class_size(desc) == 0
            with pytest.raises(InfeasibleError):
                index_width(desc)
            with pytest.raises(ValidationError):
                codelength_from_counts(desc)


def _batch(descs):
    """(counts, heads) of descriptors sharing (alphabet, m, n), as the walker returns them."""
    m = descs[0].order
    return np.array([d.counts for d in descs]), np.array([d.prefix for d in descs], dtype=np.int64).reshape(-1, m)


class TestIndexWidths:
    """``index_widths`` over a count table equals ``index_width`` and the exact width, row by row."""

    def test_forced_chains(self):
        # at m = 4 and n = 24 most contexts carry one block: forced chains lead to the
        # branching contexts, and each row contracts different chains
        rng = np.random.default_rng(41)
        descs = [block_frequencies(SymbolSequence(A2, rng.integers(0, 2, 24)), 4) for _ in range(12)]
        counts, heads = _batch(descs)
        flow = typeclass._flow(2, 4, counts, heads)
        assert (flow.target != np.arange(16)).any(axis=1).all()  # every row has a forced chain
        assert flow.branching.any(axis=1).all()
        assert index_widths(A2, 4, 24, counts, heads).tolist() == [exact_width(d) for d in descs]

    def test_forced_cycle_fails_the_whole_batch(self):
        forced_cycle = BlockFrequencyVector(A2, 2, (0, 0), (1, 0, 1, 0, 0, 1, 0, 0), 5)
        fine = block_frequencies(binseq("00101"), 2)
        counts, heads = _batch([fine, forced_cycle])
        with pytest.raises(InfeasibleError, match="descriptor 1"):
            index_widths(A2, 2, 5, counts, heads)

    def test_singleton_classes(self):
        # |T| = 1: a constant sequence, and at m = 5 a sequence that revisits no context
        descs = [block_frequencies(binseq(bits), 5) for bits in ("0" * 12, "1" * 12, "000001011111")]
        assert [type_class_size(d) for d in descs] == [1, 1, 1]
        assert index_widths(A2, 5, 12, *_batch(descs)).tolist() == [0, 0, 0]

    def test_n_equals_m(self):
        descs = [block_frequencies(binseq(bits), 3) for bits in ("010", "111")]
        assert index_widths(A2, 3, 3, *_batch(descs)).tolist() == [0, 0]

    @pytest.mark.parametrize("budget", [1, 40, 1 << 15])
    def test_mixed_k_in_groups(self, monkeypatch, budget):
        # skewed and flat laws give k from 0 up to l**m within one table; a
        # small budget cuts it into many groups, each padded to its largest k
        monkeypatch.setattr(typeclass, "MINOR_BUDGET", budget)
        rng = np.random.default_rng(budget)
        l, m, n = 3, 2, 300
        alphabet = Alphabet(("a", "b", "c"))
        descs = [
            block_frequencies(SymbolSequence(alphabet, rng.choice(l, size=n, p=rng.dirichlet(np.full(l, conc)))), m)
            for conc in (0.05, 0.3, 1.0, 10.0) * 6
        ]
        widths = index_widths(alphabet, m, n, *_batch(descs))
        assert widths.tolist() == [exact_width(d) for d in descs] == [index_width(d) for d in descs]

    def test_malformed_tables(self):
        desc = block_frequencies(binseq("01001"), 1)
        counts, heads = _batch([desc])
        with pytest.raises(ValidationError):
            index_widths(A2, 1, 5, counts[:, :3], heads)  # not l**(m+1) entries
        with pytest.raises(ValidationError):
            index_widths(A2, 1, 5, counts, heads[:, :0])  # no prefix
        with pytest.raises(ValidationError):
            index_widths(A2, 1, 6, counts, heads)  # counts do not sum to n - m

    def test_peak_holds_one_group_of_minors(self):
        # 64 rows at m = 7 with k = 127 each: one stack of all 64 minors
        # would take 8 MiB, one MINOR_BUDGET group 258 KiB
        fair = MarkovModel.iid([0.5, 0.5], A2)
        n, m = 1 << 14, 7
        (counts, heads), _ = walk_paths(fair, n, 64, base_seed=3, block_order=m)
        k = typeclass._flow(2, m, counts, heads).branching.sum(axis=1)
        assert k.min() > 100
        group = max(rows.size * size * size * 8 for rows, size in typeclass._minor_groups(k))
        index_widths(A2, m, n, counts[:2], heads[:2])  # first-call caches outside the trace
        tracemalloc.start()
        try:
            widths = index_widths(A2, m, n, counts, heads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < group + (1 << 20), (peak, group)
        descs = [BlockFrequencyVector(A2, m, tuple(h[:m].tolist()), tuple(c.tolist()), n) for c, h in zip(counts, heads)]
        assert widths[:4].tolist() == [exact_width(d) for d in descs[:4]]


class TestRankUnrank:
    def test_worked_example(self):
        seq = binseq("01001")
        desc = block_frequencies(seq, 1)
        assert rank_in_type_class(seq, 1) == 1
        assert tuple(unrank(desc, 0).data) == (0, 0, 1, 0, 1)
        assert tuple(unrank(desc, 1).data) == (0, 1, 0, 0, 1)

    def test_rank_matches_enumeration_order(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(0, 3))
            if n < m:
                continue
            seq = SymbolSequence(A2, rng.integers(0, 2, size=n).astype(np.int64))
            desc = block_frequencies(seq, m)
            members = enumerate_type_class(desc)
            r = rank_in_type_class(seq, m)
            assert members[r] == tuple(seq.data)
            for idx, member in enumerate(members):
                assert tuple(unrank(desc, idx).data) == member

    def test_exhaustive_binary_high_order(self):
        # at m = 3..5 and n <= 10 most contexts carry one block: every class
        # of every binary sequence, every member ranked and unranked
        for m in (3, 4, 5):
            seen = set()
            for n in range(m, 11):
                for bits in itertools.product((0, 1), repeat=n):
                    desc = block_frequencies(SymbolSequence(A2, np.array(bits, dtype=np.int64)), m)
                    if (desc.prefix, desc.counts) in seen:
                        continue
                    seen.add((desc.prefix, desc.counts))
                    members = enumerate_type_class(desc)
                    assert type_class_size(desc) == len(members)
                    for idx, member in enumerate(members):
                        assert tuple(unrank(desc, idx).data) == member
                        assert rank_in_type_class(SymbolSequence(A2, np.array(member)), m) == idx

    def test_index_out_of_range(self):
        desc = block_frequencies(binseq("01001"), 1)
        with pytest.raises(IndexOutOfRangeError):
            unrank(desc, 2)
        with pytest.raises(IndexOutOfRangeError):
            unrank(desc, -1)

    @pytest.mark.parametrize("precision", [0, 1, 3, 8])
    def test_exact_fallback_of_the_interval_test(self, monkeypatch, precision):
        # at precision 0 no interval test can decide, so the full products
        # decide every branch; at a few bits both outcomes occur.  Three-step
        # chunks fold W and R many times within n <= 12.
        monkeypatch.setattr(typeclass, "UNRANK_PRECISION_BITS", precision)
        monkeypatch.setattr(typeclass, "CHUNK_STEPS", 3)
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 40:
            l = int(rng.integers(2, 4))
            m = int(rng.integers(0, 3))
            n = int(rng.integers(m, 13))
            alphabet = Alphabet(tuple(str(i) for i in range(l)))
            seq = SymbolSequence(alphabet, rng.integers(0, l, size=n).astype(np.int64))
            desc = block_frequencies(seq, m)
            size = type_class_size(desc)
            if size > 3000:
                continue
            members = enumerate_type_class(desc)
            assert len(members) == size
            # every index, so 0 and size - 1 too
            for idx, member in enumerate(members):
                assert tuple(unrank(desc, idx).data) == member
                assert rank_in_type_class(SymbolSequence(alphabet, np.array(member)), m) == idx
            with pytest.raises(IndexOutOfRangeError):
                unrank(desc, size)
            checked += 1

    def test_unrank_infeasible(self):
        desc = BlockFrequencyVector(A2, 1, (0,), (0, 0, 0, 2), 3)
        with pytest.raises((InfeasibleError, IndexOutOfRangeError)):
            unrank(desc, 0)

    def test_inverse_property_randomized(self):
        # 10^4 random (alphabet, order, length) cases
        rng = np.random.default_rng(20260810)
        for trial in range(10_000):
            l = int(rng.integers(2, 5))
            m = int(rng.integers(0, 3))
            n = int(rng.integers(m + 1, 65))
            alphabet = Alphabet(tuple(str(i) for i in range(l)))
            seq = SymbolSequence(alphabet, rng.integers(0, l, size=n).astype(np.int64))
            desc = block_frequencies(seq, m)
            r = rank_in_type_class(seq, m)
            assert 0 <= r < type_class_size(desc)
            back = unrank(desc, r)
            assert np.array_equal(back.data, seq.data), (trial, l, m, n)
