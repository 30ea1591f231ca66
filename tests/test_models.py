import hashlib
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrokit import models
from entrokit.errors import BadContextError, NonErgodicError, TooShortError, ValidationError
from entrokit.models import (
    WALK_BUDGET,
    WALK_MAX_WIDTH,
    Alphabet,
    BlockwiseModel,
    HMMModel,
    MarkovModel,
    SymbolSequence,
    ThresholdRanks,
    conditional_law,
    model_from_dict,
    sample,
    sample_blockwise,
    sample_paths,
    stationary_distribution,
    walk_paths,
)
from entrokit.seeding import derive_seed
from entrokit.typeclass import block_frequencies

from conftest import A2, A3


class StubGenerator:
    """Hands out fixed uniforms in order, through the calls the samplers make."""

    def __init__(self, values) -> None:
        self.values = list(values)

    def random(self, out=None):
        if out is None:
            return self.values.pop(0)
        out[...] = [self.values.pop(0) for _ in range(out.size)]
        return out


def zero_entry_chain(l: int, m: int, seed: int) -> MarkovModel:
    """Random order-m chain with about a quarter of its entries exactly 0."""
    rng = np.random.default_rng(seed)
    while True:
        rows = rng.dirichlet(np.ones(l), size=l**m)
        rows[rng.random(rows.shape) < 0.25] = 0.0
        rows[np.arange(l**m), rng.integers(0, l, l**m)] += 0.1
        rows /= rows.sum(axis=1, keepdims=True)
        try:
            return MarkovModel(Alphabet(tuple("abcd"[:l])), m, rows)
        except NonErgodicError:
            continue


def eighths_chain() -> MarkovModel:
    """Order-2 chain over 4 symbols whose entries are multiples of 1/8.

    Its thresholds repeat across contexts and sit on power-of-two bucket edges.
    """
    rng = np.random.default_rng(7)
    while True:
        cuts = np.sort(rng.integers(0, 9, size=(16, 3)), axis=1)
        rows = np.diff(np.concatenate([np.zeros((16, 1)), cuts, np.full((16, 1), 8)], axis=1), axis=1) / 8.0
        try:
            return MarkovModel(Alphabet(tuple("abcd")), 2, rows)
        except NonErgodicError:
            continue


class TestStationary:
    def test_symmetric_chain(self, sym_chain):
        assert np.allclose(stationary_distribution(sym_chain), [0.5, 0.5], atol=1e-12)

    def test_asymmetric_chain_linear_solve_oracle(self, asym_chain):
        pi = stationary_distribution(asym_chain)
        assert np.allclose(pi, [5 / 6, 1 / 6], atol=1e-12)
        # independent oracle: least-squares on the transposed balance equations
        k = asym_chain.context_kernel()
        a = np.vstack([k.T - np.eye(2), np.ones(2)])
        b = np.array([0.0, 0.0, 1.0])
        pi_ls, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.allclose(pi, pi_ls, atol=1e-10)

    def test_reducible_rejected(self):
        with pytest.raises(NonErgodicError):
            MarkovModel(A2, 1, np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_periodic_rejected_unless_flagged(self):
        rows = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NonErgodicError):
            MarkovModel(A2, 1, rows)
        cyc = MarkovModel(A2, 1, rows, ergodic=False)
        assert np.allclose(stationary_distribution(cyc), [0.5, 0.5])

    def test_residual_tolerance(self, order2_chain):
        pi = stationary_distribution(order2_chain)
        assert abs(pi.sum() - 1.0) < 1e-12
        assert np.max(np.abs(pi @ order2_chain.context_kernel() - pi)) < 1e-12


class TestSampling:
    def test_empty(self, sym_chain, small_hmm):
        assert len(sample(sym_chain, 0, seed=1)) == 0
        obs, hidden = sample(small_hmm, 0, seed=1)
        assert len(obs) == 0 and hidden.shape == (0,)

    def test_deterministic(self, sym_chain):
        a = sample(sym_chain, 5000, seed=42)
        b = sample(sym_chain, 5000, seed=42)
        assert np.array_equal(a.data, b.data)
        c = sample(sym_chain, 5000, seed=43)
        assert not np.array_equal(a.data, c.data)

    def test_symmetric_frequency_band(self, sym_chain):
        # seed-averaged: a single dependent path has stderr ~ 0.005 at this length
        freqs = [float((sample(sym_chain, 100_000, seed=s).data == 0).mean()) for s in range(16)]
        assert 0.495 <= float(np.mean(freqs)) <= 0.505

    def test_bernoulli_frequency_band(self, bern25):
        seq = sample(bern25, 100_000, seed=11)
        freq = float((seq.data == 1).mean())
        assert 0.245 <= freq <= 0.255  # 3 sigma binomial band around 1/4

    def test_paths_match_standalone_replicates(self, sym_chain):
        paths = sample_paths(sym_chain, 4000, 8, base_seed=9)
        for r in (0, 3, 7):
            solo = sample(sym_chain, 4000, derive_seed(9, r))
            assert np.array_equal(paths[r], solo.data)

    def test_paths_offset_tiles_run(self, bern25):
        full = sample_paths(bern25, 64, 10, base_seed=5)
        tail = sample_paths(bern25, 64, 4, base_seed=5, index_offset=6)
        assert np.array_equal(full[6:], tail)

    # sha256 of the symbols and sums of walk_paths(model, 2000, 300, 77,
    # keep_symbols=True), taken from the walker that searched a sorted
    # threshold table at every step; 300 paths cross two chunk boundaries
    WALK_DIGESTS = {
        "bern25": "cc172ee67b54031cd777348d5bbde920211a11fb0780b6b1006e14ad5773472a",
        "uniform2": "a9766b6d66fe1db4ed19ceb8c339f125bd268324898265317b4d375765cae31c",
        "sym_chain": "baf64ba97a386d647477b86197090762ddd268b57d6b6e32eff51a22cbdfcb4a",
        "asym_chain": "2a1c16fd9cbe39c5eda573387da5480fc342a5c5ff7fef83213e0eb41acaebad",
        "ternary_chain": "350f1335a34536c670d78b9b81b7a00311f9352fd88f25b3822c6c4d8b33ca8a",
        "order2_chain": "5a1cc5f42e70e80d7417859ff182001593c74432e03512365bd62c3762af58d3",
        "l4m2": "72d79f1fd8eec202b30ce61a0b634965c102095aa97a2496372fbb23bb8104e8",
        "l2m5": "e8002335a0655f672377c7ea71002853acea05aaeea52fb5d2409187b1d989a4",
        "eighths": "5da1c547303e93fbbf7bdf441913ac0d1eef9b8035730aaa8fca60e5d6ca8bfe",
    }

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("name", list(WALK_DIGESTS))
    def test_walker_pinned_digests(self, name, dense, request, monkeypatch):
        if not dense:  # every step searches the offsets, as past the table budget
            monkeypatch.setattr(models, "STEP_TABLE_BUDGET", 0)
        if name == "l4m2":
            model = zero_entry_chain(4, 2, 41)
        elif name == "l2m5":
            model = zero_entry_chain(2, 5, 25)
        elif name == "eighths":
            model = eighths_chain()
        else:
            model = request.getfixturevalue(name)
        paths, sums = walk_paths(model, 2000, 300, base_seed=77, keep_symbols=True)
        assert hashlib.sha256(paths.tobytes() + sums.tobytes()).hexdigest() == self.WALK_DIGESTS[name]

    @pytest.mark.parametrize("fixture", ["bern25", "sym_chain", "ternary_chain", "order2_chain", "l2m8"])
    def test_walker_sums_equal_two_pass_evaluator(self, fixture, request):
        from entrokit.analytics import path_log_likelihoods

        # l2m8 has 257 distinct thresholds, which the walker ranks in buckets
        model = zero_entry_chain(2, 8, 8) if fixture == "l2m8" else request.getfixturevalue(fixture)
        reps = 64
        n = 2 * min(WALK_MAX_WIDTH, WALK_BUDGET // reps) + 37  # crosses two chunk boundaries
        paths, sums = walk_paths(model, n, reps, base_seed=21, keep_symbols=True)
        assert np.array_equal(paths, sample_paths(model, n, reps, base_seed=21))
        assert np.array_equal(sums, path_log_likelihoods(model, paths))
        for r in (0, 63):
            assert np.array_equal(paths[r], sample(model, n, derive_seed(21, r)).data)
        none, alone = walk_paths(model, n, reps, base_seed=21)
        assert none is None and np.array_equal(alone, sums)
        (counts, heads), count_sums = walk_paths(model, n, reps, base_seed=21, block_order=model.order)
        assert np.array_equal(counts, [block_frequencies(SymbolSequence(model.alphabet, p), model.order).counts
                                       for p in paths])
        assert np.array_equal(heads, paths[:, : model.order]) and np.array_equal(count_sums, sums)
        # halves of the run, whose chunks end at other steps, tile it
        _, head = walk_paths(model, n, 24, base_seed=21)
        _, tail = walk_paths(model, n, reps - 24, base_seed=21, index_offset=24)
        assert np.array_equal(np.concatenate([head, tail]), sums)

    @staticmethod
    def _check_block_counts(model, n, reps, k, base_seed=31):
        """Walker counts and heads at order k against block_frequencies of the same walk's symbol rows."""
        (counts, heads), sums = walk_paths(model, n, reps, base_seed, block_order=k)
        paths, want_sums = walk_paths(model, n, reps, base_seed, keep_symbols=True)
        assert counts.shape == (reps, model.alphabet.size ** (k + 1)) and counts.dtype == np.int64
        for r, path in enumerate(paths):
            desc = block_frequencies(SymbolSequence(model.alphabet, path), k)
            assert counts[r].tolist() == list(desc.counts), r
            assert tuple(heads[r, :k].tolist()) == desc.prefix, r
        assert np.array_equal(heads, paths[:, : max(k, model.order)])
        assert np.array_equal(sums, want_sums)
        return counts, heads, sums

    # the codec order against the model's: equal (the flat index is the block
    # code), below it (windows inside the initial context) and above it
    @pytest.mark.parametrize(
        "fixture, shift",
        [(f, s) for f in ("bern25", "uniform2") for s in (0, 1, 3)]
        + [(f, s) for f in ("sym_chain", "asym_chain", "ternary_chain", "order2_chain", "l2m8") for s in (0, -1, 1, 3)],
    )
    def test_walker_block_counts_equal_block_frequencies(self, fixture, shift, request):
        model = zero_entry_chain(2, 8, 8) if fixture == "l2m8" else request.getfixturevalue(fixture)
        k = model.order + shift
        reps = 40
        n = 2 * min(WALK_MAX_WIDTH, WALK_BUDGET // reps) + 37  # crosses two chunk boundaries
        counts, _, _ = self._check_block_counts(model, n, reps, k)
        assert (counts.sum(axis=1) == n - k).all()

    @pytest.mark.parametrize("fixture", ["bern25", "sym_chain", "order2_chain"])
    def test_walker_block_counts_of_one_path(self, fixture, request):
        # one path is the branch where the sums accumulate a single column
        model = request.getfixturevalue(fixture)
        n = 2 * WALK_MAX_WIDTH + 37
        for k in {0, model.order, model.order + 2}:
            self._check_block_counts(model, n, 1, k)

    @pytest.mark.parametrize("fixture", ["bern25", "sym_chain", "order2_chain", "l2m8"])
    def test_walker_block_counts_at_short_lengths(self, fixture, request):
        # n == k leaves no window; n between k and the model order stays inside the initial context
        model = zero_entry_chain(2, 8, 8) if fixture == "l2m8" else request.getfixturevalue(fixture)
        for k in {0, 1, model.order, model.order + 2}:
            for n in sorted(v for v in {k, k + 1, model.order, model.order + 1} if v >= k):
                counts, heads, _ = self._check_block_counts(model, n, 5, k)
                assert counts.sum() == 5 * (n - k) and heads.shape == (5, min(n, max(k, model.order)))
        with pytest.raises(TooShortError, match="shorter than m"):
            walk_paths(model, 3, 2, base_seed=1, block_order=4)

    def test_walker_block_counts_tile_over_offset_groups(self, ternary_chain, order2_chain):
        for model in (ternary_chain, order2_chain):
            for k in (model.order, model.order + 1):
                (counts, heads), sums = walk_paths(model, 3000, 50, base_seed=4, block_order=k)
                (c1, h1), s1 = walk_paths(model, 3000, 18, base_seed=4, block_order=k)
                (c2, h2), s2 = walk_paths(model, 3000, 32, base_seed=4, index_offset=18, block_order=k)
                assert np.array_equal(np.concatenate([c1, c2]), counts)
                assert np.array_equal(np.concatenate([h1, h2]), heads)
                assert np.array_equal(np.concatenate([s1, s2]), sums)

    def test_walker_block_count_cost_follows_the_steps(self, bern25):
        # a chunk's counts go straight into the table: at k = 20 one path's
        # table is 16 MiB, and a per-chunk count of the whole table would
        # allocate 16 MiB more for each of the walk's chunks
        n, k = 3 * WALK_MAX_WIDTH, 20
        table = 2 ** (k + 1) * 8
        tracemalloc.start()
        try:
            (counts, _), _ = walk_paths(bern25, n, 1, base_seed=2, block_order=k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == n - k and peak < table + (1 << 20), peak

    def test_walker_block_counts_options_are_typed(self, sym_chain):
        with pytest.raises(ValidationError, match="either"):
            walk_paths(sym_chain, 10, 2, base_seed=1, keep_symbols=True, block_order=1)
        with pytest.raises(ValidationError, match="non-negative"):
            walk_paths(sym_chain, 10, 2, base_seed=1, block_order=-1)
        (counts, heads), sums = walk_paths(sym_chain, 0, 3, base_seed=1, block_order=0)
        assert counts.shape == (3, 2) and not counts.any() and heads.shape == (3, 0)
        (counts, heads), sums = walk_paths(sym_chain, 10, 0, base_seed=1, block_order=2)
        assert counts.shape == (0, 8) and heads.shape == (0, 2) and sums.shape == (0,)

    # numpy sums a single column pairwise, so one path is the case that
    # tells a left-to-right sum from a reduction
    @pytest.mark.parametrize("n_paths", [1, 2, 3])
    @pytest.mark.parametrize("fixture", ["bern25", "sym_chain", "order2_chain"])
    def test_walker_sums_for_few_paths(self, fixture, n_paths, request):
        from entrokit.analytics import path_log_likelihoods

        model = request.getfixturevalue(fixture)
        n = 2 * min(WALK_MAX_WIDTH, WALK_BUDGET // n_paths) + 37  # crosses two chunk boundaries
        paths, sums = walk_paths(model, n, n_paths, base_seed=13, keep_symbols=True)
        assert np.array_equal(sums, path_log_likelihoods(model, paths))

    def test_stationarity_band(self, sym_chain):
        # empirical law of X_t at t in {1, n/2, n} over 10^4 replicates: 4 sigma multinomial band
        n, reps = 40, 10_000
        paths = sample_paths(sym_chain, n, reps, base_seed=123)
        pi0 = 0.5
        bound = 4 * np.sqrt(pi0 * (1 - pi0) / reps)
        for t in (0, n // 2, n - 1):
            freq = float((paths[:, t] == 0).mean())
            assert abs(freq - pi0) < bound, (t, freq)

    def test_hmm_returns_hidden_path(self, small_hmm):
        obs, hidden = sample(small_hmm, 500, seed=3)
        assert len(obs) == 500 and hidden.shape == (500,)
        assert set(np.unique(hidden)) <= {0, 1}

    def test_hmm_paths_match_standalone_replicates(self, small_hmm):
        obs, hidden = models.sample_hmm_paths(small_hmm, 300, 6, base_seed=5)
        assert obs.shape == hidden.shape == (6, 300)
        for r in (0, 2, 5):
            solo, solo_hidden = sample(small_hmm, 300, derive_seed(5, r))
            assert np.array_equal(obs[r], solo.data) and np.array_equal(hidden[r], solo_hidden)

    def test_hmm_walk_memory_is_bounded(self, small_hmm):
        # beyond the two returned matrices the HMM walk holds a fixed chunk;
        # drawing every uniform at once peaked at 55 MiB for 50 x 20 000
        for n in (20_000, 40_000):
            tracemalloc.start()
            try:
                obs, hidden = models.sample_hmm_paths(small_hmm, n, 50, base_seed=9)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - obs.nbytes - hidden.nbytes < 8 << 20, (n, peak)
            del obs, hidden

    def test_negative_path_count_is_typed(self, sym_chain, small_hmm):
        with pytest.raises(ValidationError, match="n_paths"):
            walk_paths(sym_chain, 10, -1, base_seed=1)
        with pytest.raises(ValidationError, match="n_paths"):
            sample_paths(sym_chain, 10, -1, base_seed=1)
        with pytest.raises(ValidationError, match="n_paths"):
            models.sample_hmm_paths(small_hmm, 10, -1, base_seed=1)

    # a uniform equal to a cumulative threshold draws the lower symbol:
    # x = #{c : cum[c] < u}, at every order and in the HMM sampler
    @pytest.mark.parametrize("dense", [True, False])
    def test_tie_draws_lower_symbol(self, bern25, asym_chain, small_hmm, dense, monkeypatch):
        if not dense:
            monkeypatch.setattr(models, "STEP_TABLE_BUDGET", 0)

        def stub(*uniforms):
            monkeypatch.setattr(models, "generator_for", lambda seed: StubGenerator(uniforms))

        def up(v):
            return np.nextafter(v, 1.0)

        stub(0.75, up(0.75), 0.75)
        assert sample(bern25, 3, seed=0).data.tolist() == [0, 1, 0]
        q = asym_chain.transitions
        stub(np.cumsum(asym_chain.initial_law)[0], q[0, 0], up(q[0, 0]), up(q[1, 0]), q[1, 0])
        assert sample(asym_chain, 5, seed=0).data.tolist() == [0, 0, 1, 1, 0]
        # the initial state, then the step uniforms, then the emission uniforms
        q, g = small_hmm.hidden_kernel, small_hmm.emissions
        stub(np.cumsum(small_hmm.stationary_hidden_law())[0], q[0, 0], up(q[0, 0]), q[1, 0],
             g[0, 0], up(g[0, 0]), g[1, 0])
        obs, hidden = sample(small_hmm, 3, seed=0)
        assert obs.data.tolist() == [0, 1, 0] and hidden.tolist() == [0, 0, 1]

    # random() returns 0.0 with probability 2**-53; a threshold of 0 counts
    # below it, so no zero-probability symbol or initial context is drawn
    @pytest.mark.parametrize("dense", [True, False])
    def test_zero_uniform_draws_no_zero_probability_symbol(self, dense, monkeypatch):
        from entrokit.analytics import path_log_likelihoods

        if not dense:
            monkeypatch.setattr(models, "STEP_TABLE_BUDGET", 0)
        monkeypatch.setattr(models, "generator_for", lambda seed: StubGenerator([0.0] * 64))
        rows = np.array([[0.0, 1.0], [0.5, 0.5]])
        cases = [
            (MarkovModel.iid([0.0, 1.0], A2), [1] * 20),
            (MarkovModel(A2, 1, rows), [0, 1] * 10),
            (MarkovModel(A2, 1, rows, initial_law=[0.0, 1.0]), [1, 0] * 10),
        ]
        for model, want in cases:
            seq = sample(model, 20, seed=0)
            assert seq.data.tolist() == want
            assert np.isfinite(model.sequence_log2_prob(seq))
            paths, sums = walk_paths(model, 20, 2, base_seed=0, keep_symbols=True)
            assert paths.tolist() == [want, want]
            assert np.isfinite(sums).all()
            assert np.array_equal(sums, path_log_likelihoods(model, paths))

    def test_sequence_log_prob_matches_vectorized(self, sym_chain, order2_chain, bern25):
        from entrokit.analytics import path_log_likelihoods

        for model in (sym_chain, order2_chain, bern25):
            seq = sample(model, 200, seed=4)
            direct = model.sequence_log2_prob(seq)
            cond = float(path_log_likelihoods(model, seq.data[None, :])[0])
            prefix = 0.0
            if model.order:
                ctx = model.context_index(tuple(int(v) for v in seq.data[: model.order]))
                prefix = float(np.log2(model.initial_law[ctx]))
            assert direct == pytest.approx(cond + prefix, abs=1e-9)

    def test_sequence_log_prob_short_prefix(self, order2_chain):
        # n < m: marginal of the stationary context law
        seq = SymbolSequence(A2, np.array([1], dtype=np.int64))
        pi = order2_chain.stationary_context_law()
        want = np.log2(pi[2] + pi[3])  # contexts (1,0) and (1,1) start with symbol 1
        assert order2_chain.sequence_log2_prob(seq) == pytest.approx(float(want), abs=1e-12)

    def test_sequence_log_prob_short_prefix_uses_initial_law(self, order2_chain):
        # n < m sums the same initial context law as n >= m, so each short
        # marginal is the sum over its one-symbol extensions
        model = MarkovModel(A2, 2, order2_chain.transitions, initial_law=[1.0, 0.0, 0.0, 0.0])
        for first in (0, 1):
            short = model.sequence_log2_prob(SymbolSequence(A2, np.array([first], dtype=np.int64)))
            with np.errstate(divide="ignore"):
                ext = [model.sequence_log2_prob(SymbolSequence(A2, np.array([first, x], dtype=np.int64)))
                       for x in (0, 1)]
            assert 2.0**short == pytest.approx(sum(2.0**v for v in ext), abs=1e-15)

    def test_prefix_law_sums_the_initial_law(self):
        # the law of the first j symbols is the initial law summed over their extensions
        rng = np.random.default_rng(8)
        rows = rng.dirichlet(np.ones(2), size=8)
        model = MarkovModel(A2, 3, rows, initial_law=rng.dirichlet(np.ones(8)))
        for j in range(4):
            heads = np.array(list(itertools.product((0, 1), repeat=j)), dtype=np.int64).reshape(2**j, j)
            want = [sum(p for c, p in enumerate(model.initial_law) if model.context_symbols(c)[:j] == tuple(h))
                    for h in heads.tolist()]
            assert 2.0 ** model.prefix_log2_probs(heads) == pytest.approx(want, abs=1e-15)

    def test_sequence_log_prob_zero_initial_mass_is_silent(self, order2_chain):
        model = MarkovModel(A2, 2, order2_chain.transitions, initial_law=[1.0, 0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.sequence_log2_prob(SymbolSequence(A2, np.array([0, 1], dtype=np.int64))) == float("-inf")


def draw_ranks(th, u):
    """The draw rule's ranks: #{th < u}, with a threshold of 0 counted at u = 0.0 too."""
    return np.searchsorted(np.where(th == 0.0, -1.0, th), u)


class TestThresholdRanks:
    EDGE_VALUES = [0.0, 0.25, 0.5, 0.75, 1.0 / 3.0, np.nextafter(1.0, 0.0)]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1.5)), min_size=1, max_size=300),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_searchsorted(self, values, seed):
        rng = np.random.default_rng(seed)
        th = np.sort(np.asarray(values + values[: len(values) // 4]))  # with duplicates
        inner = th[th < 1.0]
        # u at every threshold, just beside it, on every bucket edge b/B, at 0
        # and at the largest double below 1, plus uniforms
        ranks = ThresholdRanks(th)
        edges = np.arange(ranks.buckets) / ranks.buckets
        u = np.concatenate([
            inner, np.nextafter(inner, 1.0), np.nextafter(inner, 0.0).clip(0.0), edges,
            np.nextafter(edges, 1.0), [0.0, np.nextafter(1.0, 0.0)], rng.random(64),
        ])
        u = u[u < 1.0]
        want = draw_ranks(th, u)
        got = ranks(u, np.empty(u.size, dtype=np.intp))
        assert np.array_equal(got, want)
        # the walker's call: a transposed 2-D view and preallocated work arrays
        grid = np.resize(u, (3, u.size)).T
        out = np.empty(grid.shape, dtype=np.intp)
        work = (np.empty(grid.shape), np.empty(grid.shape, dtype=np.intp), np.empty(grid.shape),
                np.empty(grid.shape, dtype=bool))
        assert np.array_equal(ranks(grid, out, *work), draw_ranks(th, grid))

    @pytest.mark.parametrize("s", [1, 2, 5, 40, 196, 260, 300])
    def test_every_threshold_count(self, s):
        rng = np.random.default_rng(s)
        th = np.sort(np.concatenate([rng.random(s - s // 3), rng.integers(0, 8, s // 3) / 8.0]))
        u = np.concatenate([th, rng.random(5000)])
        u = u[u < 1.0]
        ranks = ThresholdRanks(th)
        assert np.array_equal(ranks(u, np.empty(u.size, dtype=np.intp)), draw_ranks(th, u))


class TestBlockwise:
    def test_empty(self):
        model = BlockwiseModel(0.1, 10**6)
        seq, log = sample_blockwise(model, 0, seed=1)
        assert len(seq) == 0

    def test_epsilon_range(self):
        with pytest.raises(ValidationError):
            BlockwiseModel(0.2)
        with pytest.raises(ValidationError):
            BlockwiseModel(0.0)

    def test_pmf_normalized(self):
        model = BlockwiseModel(0.1, 50_000)
        total = model.length_pmf(np.arange(1, 50_001)).sum()
        assert abs(total - 1.0) < 1e-9

    def test_marginal_three_quarters(self):
        # P(X_1 = 0) = 1/2 * 1 + 1/2 * 1/2 by total probability; 10^5 independent draws
        model = BlockwiseModel(0.1, 10**6)
        hits = 0
        reps = 100_000
        for r in range(reps):
            seq, _ = sample_blockwise(model, 1, seed=derive_seed(1000, r))
            hits += int(seq.data[0] == 0)
        freq = hits / reps
        assert 0.74 <= freq <= 0.76

    def test_zero_label_fraction(self):
        model = BlockwiseModel(0.1, 10**6)
        labels = []
        for r in range(400):
            _, log = sample_blockwise(model, 512, seed=derive_seed(2000, r))
            labels.extend(y for y, done in zip(log.zero_labels, log.completed) if done)
        frac = np.mean(labels)
        n = len(labels)
        assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_block_log_reconstructs_boundaries(self):
        model = BlockwiseModel(0.1, 10**6)
        seq, log = sample_blockwise(model, 2048, seed=31337)
        pos = 0
        for start, length, y, done in zip(log.starts, log.lengths, log.zero_labels, log.completed):
            assert start == pos
            take = min(length, 2048 - start)
            chunk = seq.data[start : start + take]
            if y == 1:
                assert not chunk.any()
            elif take >= 64:
                # fair-coin blocks are typical: ones fraction within a 4.5 sigma band
                frac = float(chunk.mean())
                assert abs(frac - 0.5) < 4.5 * np.sqrt(0.25 / take), (start, take, frac)
            pos += take
        assert pos == 2048
        assert log.first_tau - log.theta == log.lengths[0]

    def test_tail_cap_recorded(self):
        model = BlockwiseModel(0.1, tail_cap=3)
        total_capped = 0
        for r in range(50):
            seq, log = sample_blockwise(model, 64, seed=derive_seed(3000, r))
            assert seq.data.max() <= 1
            assert max(log.lengths) <= 3
            total_capped += log.n_tail_capped
        assert total_capped > 0  # cap at 3 truncates a heavy tail often
        assert model.truncated_mass > 0.3


    # the Euler-Maclaurin port, uncached, at the block-length exponents 3/2 - eps
    ZETA_EXPONENTS = [1.5 - eps for eps in (1e-6, 0.01, 0.05, 0.1, 0.123456, 0.15, 1 / 6 - 1e-9)]
    # both sides of the direct-sum and asymptotic (a > 1e8) branches
    ZETA_EDGES = [10**8, 10**8 + 1, 2 * 10**8 + 1, 2**20 + 1, 2**21 + 1, 2**31 - 1]

    def test_hurwitz_zeta_equals_scipy_bitwise(self):
        special = pytest.importorskip("scipy.special")
        zeta = models._hurwitz_zeta.__wrapped__
        rng = np.random.default_rng(14)
        grid = np.concatenate([np.arange(1, 20_001), rng.integers(1, 2_100_000_000, 2000), self.ZETA_EDGES])
        for s in self.ZETA_EXPONENTS:
            want = special.zeta(s, grid.astype(float))
            got = np.array([zeta(s, int(a)) for a in grid])
            assert np.array_equal(got, want), (s, grid[got != want][:5])

    def test_hurwitz_zeta_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        zeta = models._hurwitz_zeta.__wrapped__
        with mpmath.workdps(40):
            for s in self.ZETA_EXPONENTS:
                for a in [1, 2, 3, 8, 9, 10, 11, 100, 12345, 10**6] + self.ZETA_EDGES:
                    want = mpmath.zeta(mpmath.mpf(s), a)
                    assert abs(zeta(s, a) - want) <= 4 * math.ulp(float(want)), (s, a)

    # sha256 of data and block log at the default tail cap, n = 4096; the last
    # block of seeds 24, 48 and 53 is 4.8M, 9.8M and 10.3M symbols long
    PINNED = {
        3: "98269ba5f02bfbfc4066efe17cf3e080158c775b3379d51847ea309722bd1322",
        8: "db36aad50e55774ab48f087f89c81d41f3563102997410dea329e8d5c9df5f14",
        24: "72dcec9f1f7c7089e64b92326cb0f20e716278f58dbe7ebc237fb4fb50952d39",
        48: "f34c31374f30bf27aaaa2a2c42419551dfd6fcf23c9d029f1710bb34766884fc",
        53: "0f6a8735642d3149febf062ec67a8cea7bf49c61a84fad4ae86f06f735aa4f6f",
    }

    def test_pinned_samples_at_default_cap(self):
        model = BlockwiseModel(0.1)
        for seed, want in self.PINNED.items():
            seq, log = sample_blockwise(model, 4096, seed)
            record = (log.starts, log.lengths, log.zero_labels, log.completed, log.theta, log.first_tau,
                      log.n_tail_capped)
            digest = hashlib.sha256(seq.data.tobytes() + repr(record).encode()).hexdigest()
            assert digest == want, seed

    def test_peak_memory_independent_of_block_length(self):
        # only the n symbols kept are drawn, however long the block straddling n is
        model = BlockwiseModel(0.1)
        for seed in self.PINNED:
            tracemalloc.start()
            try:
                sample_blockwise(model, 4096, seed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (seed, peak)


class TestConditionalLaw:
    def test_iid_ignores_context(self, bern25):
        assert np.allclose(conditional_law(bern25, ()), [0.75, 0.25])
        # order-0 rows ignore any supplied context
        assert np.allclose(conditional_law(bern25, (0, 1, 1)), [0.75, 0.25])

    def test_table_readback(self, sym_chain):
        assert np.allclose(conditional_law(sym_chain, (0,)), [0.9, 0.1])
        assert np.allclose(conditional_law(sym_chain, ["1"]), [0.1, 0.9])

    def test_bad_context(self, order2_chain):
        with pytest.raises(BadContextError):
            conditional_law(order2_chain, (0,))
        with pytest.raises(BadContextError):
            conditional_law(order2_chain, (0, 5))

    def test_window_marginalization(self, order2_chain):
        # last-1-symbol conditional is a stationary mixture of the two table rows
        pi = order2_chain.stationary_context_law()
        want = np.zeros(2)
        mass = 0.0
        for c in range(4):
            if c % 2 == 1:  # contexts ending in symbol 1
                want += pi[c] * order2_chain.transitions[c]
                mass += pi[c]
        got = order2_chain.conditional_given_window((1,))
        assert np.allclose(got, want / mass, atol=1e-14)

    def test_zero_mass_window(self):
        # P(1 | .) = 1e-10 leaves the contexts ending in 1, 1 with stationary
        # mass below the solver's zero threshold
        model = MarkovModel(A2, 3, np.array([[1 - 1e-10, 1e-10]] * 8))
        with pytest.raises(BadContextError):
            model.conditional_given_window((1, 1))
        assert model.conditional_given_window((0, 1))[1] == pytest.approx(1e-10)

    def test_successor_table_and_kernel(self, bern25, ternary_chain, order2_chain):
        # reference: appending x to context c drops c's oldest symbol
        for model in (bern25, ternary_chain, order2_chain):
            k, l = model.n_contexts, model.alphabet.size
            kernel = np.zeros((k, k))
            for c in range(k):
                for x in range(l):
                    nxt = model.context_index(model.context_symbols(c)[1:] + (x,)) if model.order else 0
                    assert model.successor_table()[c * l + x] == nxt
                    kernel[c, nxt] += model.transitions[c, x]
            assert np.array_equal(model.context_kernel(), kernel)


class TestHMMValidation:
    def test_eps_eta_recomputed(self, small_hmm):
        q, g = small_hmm.hidden_kernel, small_hmm.emissions
        assert small_hmm.epsilon == pytest.approx(q.min() / q.max())
        eta = max(max(g[:, y]) / min(g[:, y]) for y in range(g.shape[1]))
        assert small_hmm.eta == pytest.approx(eta)
        assert 0 < small_hmm.epsilon < 1 and 1 < small_hmm.eta < np.inf

    def test_rejects_zero_entries(self):
        with pytest.raises(ValidationError):
            HMMModel(np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValidationError):
            HMMModel(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[1.0, 0.0], [0.5, 0.5]]))


class TestModelFiles:
    def test_markov_roundtrip(self, sym_chain, tmp_path):
        doc = sym_chain.to_dict()
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        model = model_from_dict(json.loads(path.read_text()))
        assert isinstance(model, MarkovModel)
        assert np.allclose(model.transitions, sym_chain.transitions)

    def test_row_error_names_context(self):
        doc = {
            "type": "markov",
            "alphabet": ["0", "1"],
            "order": 1,
            "transitions": {"0": [0.9, 0.2], "1": [0.1, 0.9]},
        }
        with pytest.raises(ValidationError, match=r"transitions\['0'\]"):
            model_from_dict(doc)

    def test_missing_row_reported(self):
        doc = {"type": "markov", "alphabet": ["0", "1"], "order": 1, "transitions": {"0": [0.9, 0.1]}}
        with pytest.raises(ValidationError, match="missing"):
            model_from_dict(doc)

    def test_unknown_field_rejected(self):
        doc = {"type": "blockwise", "epsilon": 0.1, "bogus": 3}
        with pytest.raises(ValidationError, match="bogus"):
            model_from_dict(doc)

    def test_hmm_and_blockwise_dispatch(self, small_hmm):
        model = model_from_dict(small_hmm.to_dict())
        assert isinstance(model, HMMModel)
        bw = model_from_dict({"type": "blockwise", "epsilon": 0.05, "tail_cap": 1000})
        assert isinstance(bw, BlockwiseModel)
        with pytest.raises(ValidationError, match="type"):
            model_from_dict({"type": "nonsense"})


class TestSequences:
    def test_out_of_alphabet_rejected(self):
        with pytest.raises(ValidationError):
            SymbolSequence(A2, np.array([0, 2]))

    def test_labels_roundtrip(self):
        seq = SymbolSequence.from_labels(A3, ["b", "a", "c"])
        assert seq.labels() == ["b", "a", "c"]

    def test_alphabet_invariants(self):
        with pytest.raises(ValidationError):
            Alphabet(("x",))
        with pytest.raises(ValidationError):
            Alphabet(("x", "x"))
