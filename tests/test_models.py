import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from entrokit.errors import BadContextError, NonErgodicError, ValidationError
from entrokit.models import (
    WALK_BUDGET,
    WALK_MAX_WIDTH,
    Alphabet,
    BlockwiseModel,
    HMMModel,
    MarkovModel,
    SymbolSequence,
    conditional_law,
    model_from_dict,
    sample,
    sample_blockwise,
    sample_paths,
    stationary_distribution,
    walk_paths,
)
from entrokit.seeding import derive_seed

from conftest import A2, A3


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
    def test_empty(self, sym_chain):
        assert len(sample(sym_chain, 0, seed=1)) == 0

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

    @pytest.mark.parametrize("fixture", ["bern25", "sym_chain", "ternary_chain", "order2_chain"])
    def test_walker_sums_equal_two_pass_evaluator(self, fixture, request):
        from entrokit.analytics import path_log_likelihoods

        model = request.getfixturevalue(fixture)
        reps = 64
        n = 2 * min(WALK_MAX_WIDTH, WALK_BUDGET // reps) + 37  # crosses two chunk boundaries
        paths, sums = walk_paths(model, n, reps, base_seed=21, keep_symbols=True)
        assert np.array_equal(paths, sample_paths(model, n, reps, base_seed=21))
        assert np.array_equal(sums, path_log_likelihoods(model, paths))
        for r in (0, 63):
            assert np.array_equal(paths[r], sample(model, n, derive_seed(21, r)).data)
        none, alone = walk_paths(model, n, reps, base_seed=21)
        assert none is None and np.array_equal(alone, sums)
        # halves of the run, whose chunks end at other steps, tile it
        _, head = walk_paths(model, n, 24, base_seed=21)
        _, tail = walk_paths(model, n, reps - 24, base_seed=21, index_offset=24)
        assert np.array_equal(np.concatenate([head, tail]), sums)

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
