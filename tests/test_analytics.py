import hashlib
import itertools
import math

import numpy as np
import pytest

from entrokit import models
from entrokit.analytics import (
    alpha_mixing_bounds,
    check_clt_conditions,
    entropy_rate,
    long_run_variance_mc,
    mixing_profile,
    nu_delta,
    phi_bruteforce,
    phi_mixing,
    phi_sequence,
    sigma_squared,
)
from entrokit.errors import BadDeltaError, NonErgodicError, TooLargeError, WindowTooShortError
from entrokit.models import Alphabet, BlockwiseModel, MarkovModel
from entrokit.stability import delta_coefficients, phi_prime_matrix

from conftest import A2


SLOW_ROWS = np.array([[1 - 5e-4, 5e-4], [1e-3, 1 - 1e-3]])


def h_binary(p: float) -> float:
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


class TestEntropyRate:
    def test_uniform(self, uniform2):
        assert entropy_rate(uniform2) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_chain(self, sym_chain):
        assert entropy_rate(sym_chain) == pytest.approx(h_binary(0.1), abs=1e-12)
        assert entropy_rate(sym_chain) == pytest.approx(0.46900, abs=1e-5)

    def test_deterministic_cycle(self):
        cyc = MarkovModel(A2, 1, np.array([[0.0, 1.0], [1.0, 0.0]]), ergodic=False)
        assert entropy_rate(cyc) == 0.0

    def test_range(self, ternary_chain, order2_chain):
        for model in (ternary_chain, order2_chain):
            h = entropy_rate(model)
            assert 0.0 <= h <= math.log2(model.alphabet.size)


class TestSigmaSquared:
    def test_uniform_is_zero(self, uniform2):
        assert sigma_squared(uniform2).sigma2 == 0.0

    def test_bern25_closed_form(self, bern25):
        # two-point variance: p q (log2(q/p))^2 at p = 1/4
        want = 0.25 * 0.75 * math.log2(3.0) ** 2
        rep = sigma_squared(bern25)
        assert rep.sigma2 == pytest.approx(want, abs=1e-12)

    def test_symmetric_chain_iid_score(self, sym_chain):
        # flips are iid, so the series reduces to the flip-entropy variance
        want = 0.09 * math.log2(9.0) ** 2
        rep = sigma_squared(sym_chain)
        assert rep.sigma2 == pytest.approx(want, abs=1e-9)
        assert rep.covariance_sum == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("fixture", ["asym_chain", "ternary_chain", "order2_chain"])
    def test_against_mc_oracle(self, fixture, request):
        model = request.getfixturevalue(fixture)
        rep = sigma_squared(model)
        est, se = long_run_variance_mc(model, n_paths=300, path_length=30_000, base_seed=8)
        assert abs(rep.sigma2 - est) <= 3 * se, (rep.sigma2, est, se)

    def test_mc_oracle_value_pinned(self, order2_chain):
        # the value of the two-pass oracle (sample_paths, then
        # path_log_likelihoods, in 100-path batches) that the walker replaced
        est, _ = long_run_variance_mc(order2_chain, 400, 10_000, base_seed=7)
        assert est == 0.27729025453666883

    def test_nonergodic_rejected(self):
        cyc = MarkovModel(A2, 1, np.array([[0.0, 1.0], [1.0, 0.0]]), ergodic=False)
        with pytest.raises(NonErgodicError):
            sigma_squared(cyc)

    @pytest.mark.parametrize("name,want", [
        ("bern25", "0.47101989912979893919"),
        ("sym_chain", "0.90435820632921398527"),
        ("asym_chain", "1.2658206410930028308"),
        ("ternary_chain", "0.36300721458161411091"),
        ("order2_chain", "0.28067156310744878607"),
        ("slow", "0.083462453486291894077"),
    ])
    def test_pinned_to_50_digit_reference(self, name, want, request):
        # references: the same identity in 50-digit mpmath, transition rows taken as exact doubles
        model = MarkovModel(A2, 1, SLOW_ROWS) if name == "slow" else request.getfixturevalue(name)
        assert abs(sigma_squared(model).sigma2 - float(want)) <= 1e-15

    def test_slowly_mixing_chain(self):
        # covariances decay like 0.9985**k: a truncated series needs tens of
        # thousands of terms here, the fundamental-matrix solve needs none
        rep = sigma_squared(MarkovModel(A2, 1, SLOW_ROWS))
        assert rep.truncation_index == 0
        assert rep.sigma2 == rep.variance_term + 2.0 * rep.covariance_sum

    def test_matches_explicit_covariance_series(self):
        # sum_k cov(g_0, g_k) written out with 1000 kernel powers, on random
        # models with zero entries; the series, not the solve, limits the
        # tolerance (its rounding grows with the number of terms)
        rng = np.random.default_rng(20260)
        for trial in range(24):
            l, m = int(rng.integers(2, 4)), int(rng.integers(0, 3))
            rows = rng.dirichlet(np.ones(l), size=l**m)
            if trial % 3 == 0:
                rows[:, 0] = np.where(rng.random(l**m) < 0.3, 0.0, rows[:, 0])
                rows /= rows.sum(axis=1, keepdims=True)
            try:
                model = MarkovModel(Alphabet(tuple("abc"[:l])), m, rows)
            except NonErgodicError:
                continue
            p, pi = model.transitions, model.stationary_context_law()
            g = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
            gbar = (p * g).sum(axis=1)
            mean = float(pi @ gbar)
            w = (pi[:, None] * p * g).ravel()
            succ, kernel = model.successor_table(), model.context_kernel()
            total, vec = 0.0, gbar - mean  # centred, so rounding does not add a constant per term
            for _ in range(1000):
                total += float(w @ vec[succ])
                vec = kernel @ vec
            rep = sigma_squared(model)
            assert rep.covariance_sum == pytest.approx(total, rel=1e-9, abs=1e-14), (trial, l, m)


class TestPhiMixing:
    def test_iid_zero(self, bern25):
        for n in (0, 1, 2, 5):
            assert phi_mixing(bern25, n) == 0.0

    def test_symmetric_closed_form(self, sym_chain):
        for n in range(21):
            want = 0.5 * 0.8**n
            assert phi_mixing(sym_chain, n) == pytest.approx(want, abs=1e-12)

    def test_gap_zero_is_one_minus_min_pi(self, sym_chain, asym_chain):
        assert phi_mixing(sym_chain, 0) == pytest.approx(0.5, abs=1e-12)
        pi = asym_chain.stationary_context_law()
        assert phi_mixing(asym_chain, 0) == pytest.approx(1 - pi.min(), abs=1e-12)

    def test_monotone(self, asym_chain):
        vals = [phi_mixing(asym_chain, n) for n in range(12)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("fixture", ["sym_chain", "asym_chain", "ternary_chain", "order2_chain"])
    def test_sequence_is_what_consumers_sum(self, fixture, request):
        model = request.getfixturevalue(fixture)
        dc = delta_coefficients(model)
        phis = list(itertools.islice(phi_sequence(model), dc.truncation_index + 1))
        total = 0.0
        for v in phis[1:]:
            total += v
        assert dc.tail >= 0.0
        assert dc.sum_phi_from_1 == total + dc.tail and dc.sum_phi_from_0 == phis[0] + dc.sum_phi_from_1
        n = 40
        head = list(itertools.islice(phi_sequence(model), n))
        rows, _ = phi_prime_matrix(model, n)
        cums = np.concatenate([[0.0], np.cumsum([min(4.0 * v, 2.0) for v in head[1:]])])
        assert np.array_equal(rows, 1.0 + cums[::-1])
        assert [phi_mixing(model, g) for g in range(n)] == head


class TestPhiBruteforce:
    def test_matches_phi_for_two_state(self, sym_chain, asym_chain):
        for model in (sym_chain, asym_chain):
            for n in (1, 2, 4):
                assert phi_bruteforce(model, n, 1) == pytest.approx(phi_mixing(model, n), abs=1e-12)

    def test_iid_zero(self, bern25):
        assert phi_bruteforce(bern25, 1, 2) == pytest.approx(0.0, abs=1e-14)

    def test_monotone_in_depth(self, order2_chain):
        v1 = phi_bruteforce(order2_chain, 2, 1)
        v2 = phi_bruteforce(order2_chain, 2, 2)
        v3 = phi_bruteforce(order2_chain, 2, 3)
        assert v1 <= v2 + 1e-12 and v2 <= v3 + 1e-12

    def test_never_exceeds_phi(self, sym_chain, order2_chain):
        for model in (sym_chain, order2_chain):
            for n in (1, 2, 3):
                for d in (1, 2, 3):
                    assert phi_bruteforce(model, n, d) <= phi_mixing(model, n) + 1e-12

    def test_guard(self, ternary_chain):
        with pytest.raises(TooLargeError):
            phi_bruteforce(ternary_chain, 1, 3)  # 27 cylinders > 12


class TestAlphaBounds:
    def test_iid(self, bern25):
        lo, up = alpha_mixing_bounds(bern25, 1, 2)
        assert lo == pytest.approx(0.0, abs=1e-14)
        assert up == pytest.approx(0.0, abs=1e-14)

    def test_order(self, sym_chain, asym_chain, order2_chain):
        for model in (sym_chain, asym_chain, order2_chain):
            lo, up = alpha_mixing_bounds(model, 1, 2)
            assert lo <= up + 1e-12

    def test_exhaustive_joint_oracle(self, sym_chain):
        # joint law over (context, depth-2 cylinder at gap 1), all event pairs
        model = sym_chain
        lo, _ = alpha_mixing_bounds(model, 1, 2)
        pi = model.stationary_context_law()
        p = model.transitions
        joint = np.zeros((2, 4))
        for s in range(2):
            for x1 in range(2):
                for x2 in range(2):
                    joint[s, 2 * x1 + x2] = pi[s] * p[s, x1] * p[x1, x2]
        best = 0.0
        for amask, bmask in itertools.product(range(4), range(16)):
            asel = [s for s in range(2) if amask >> s & 1]
            bsel = [c for c in range(4) if bmask >> c & 1]
            pab = joint[np.ix_(asel, bsel)].sum() if asel and bsel else 0.0
            pa = pi[asel].sum() if asel else 0.0
            pb = joint[:, bsel].sum() if bsel else 0.0
            best = max(best, abs(pab - pa * pb))
        assert lo == pytest.approx(best, abs=1e-12)


class TestNuDelta:
    def test_zero_at_or_beyond_order(self, sym_chain, bern25):
        assert nu_delta(sym_chain, 1, 0.5).value == 0.0
        assert nu_delta(sym_chain, 3, 1.0).value == 0.0
        assert nu_delta(bern25, 0, 0.5).value == 0.0

    def test_bad_delta(self, sym_chain):
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(BadDeltaError):
                nu_delta(sym_chain, 1, bad)

    def test_below_order_exact_vs_sequence_oracle(self, order2_chain):
        # independent oracle: conditionals assembled from whole-sequence probabilities
        model = order2_chain
        delta = 0.5
        power = (2 + delta) / (1 + delta)
        def seq_prob(symbols):
            pi = model.stationary_context_law()
            ctx = model.context_index(symbols[:2])
            p = pi[ctx]
            for i in range(2, len(symbols)):
                p *= model.transitions[model.context_index(symbols[i - 2 : i]), symbols[i]]
            return p
        total = 0.0
        for a, b, x in itertools.product(range(2), repeat=3):
            p_abx = seq_prob((a, b, x))
            p_ab = seq_prob((a, b))
            p_bx = sum(seq_prob((z, b, x)) for z in range(2))
            p_b = sum(seq_prob((z, b)) for z in range(2))
            full = p_abx / p_ab
            short = p_bx / p_b
            total += p_abx * abs(math.log2(full) - math.log2(short)) ** power
        got = nu_delta(model, 1, delta)
        assert got.exact
        assert got.value == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("budget", [models.STEP_TABLE_BUDGET, 0])
    def test_hmm_sampler_pinned_digest(self, small_hmm, budget, monkeypatch):
        # sha256 taken from the sampler that gathered, compared and summed
        # each context's cumulative rows at every step; budget 0 makes every
        # draw search the offsets
        monkeypatch.setattr(models, "STEP_TABLE_BUDGET", budget)
        obs, _ = models.sample_hmm_paths(small_hmm, 1500, 200, base_seed=5)
        assert obs.shape == (200, 1500) and obs.dtype == np.int64
        want = "acc7340874da459cd7e29f8fc4d37b205adae25a8da2619b208f38c505b1f491"
        assert hashlib.sha256(obs.tobytes()).hexdigest() == want

    def test_hmm_window_guard(self, small_hmm):
        with pytest.raises(WindowTooShortError):
            nu_delta(small_hmm, 8, 0.5, window=4)

    def test_hmm_decay_and_exact_window_oracle(self, small_hmm):
        # exact enumeration oracle at a short window: expectation over all
        # binary observation windows with forward-algorithm probabilities
        model = small_hmm
        delta, n, window = 0.5, 2, 7
        power = (2 + delta) / (1 + delta)

        def forward_prob(obs):
            alpha = model.stationary_hidden_law().copy()
            for y in obs:
                alpha = alpha * model.emissions[:, y]
                alpha = alpha @ model.hidden_kernel
            # note: returns P(obs) marginal via un-normalized filter
            return alpha.sum()

        def predictive(obs_past, y):
            return forward_prob(list(obs_past) + [y]) / forward_prob(obs_past)

        exact = 0.0
        for window_obs in itertools.product(range(2), repeat=window + 1):
            past, y = window_obs[:-1], window_obs[-1]
            p_window = forward_prob(list(window_obs))
            p_short = predictive(past[-n:], y)
            p_long = predictive(past, y)
            exact += p_window * abs(math.log2(p_short) - math.log2(p_long)) ** power
        est = nu_delta(model, n, delta, window=window, reps=4000, base_seed=3)
        assert abs(est.value - exact) <= 4 * max(est.stderr, 1e-12), (est.value, exact, est.stderr)

        # log-linear decay: estimates at growing gaps fall roughly geometrically
        vals = [nu_delta(model, g, delta, window=32, reps=3000, base_seed=4).value for g in (2, 4, 8, 16)]
        assert vals[0] > 0
        xs = np.array([2.0, 4.0, 8.0, 16.0])
        slope = np.polyfit(xs, np.log(np.maximum(vals, 1e-18)), 1)[0]
        assert slope < 0


class TestConditionCheck:
    def test_markov_satisfied(self, sym_chain):
        rep = check_clt_conditions(sym_chain, delta=0.5, beta=1.5)
        assert rep.alpha_satisfied and rep.nu_satisfied and rep.applicable
        assert rep.fitted_k is not None and rep.fitted_k > 0

    def test_iid_satisfied_with_zero_alpha(self, bern25):
        rep = check_clt_conditions(bern25, delta=0.5, beta=2.0)
        assert rep.alpha_satisfied and rep.fitted_k == 0.0

    def test_blockwise_not_applicable(self):
        rep = check_clt_conditions(BlockwiseModel(0.1, 1000), delta=0.5, beta=1.5)
        assert not rep.applicable
        assert any("not applicable" in note for note in rep.notes)


class TestMixingProfile:
    def test_invariants(self, asym_chain):
        prof = mixing_profile(asym_chain, max_gap=12, depth=2, delta=0.5)
        phi = prof.phi
        assert all(b <= a + 1e-12 for a, b in zip(phi, phi[1:]))
        assert prof.alpha_upper == phi
        for lo, up in zip(prof.alpha_lower, prof.alpha_upper):
            assert -1e-15 <= lo <= up + 1e-12
        assert all(v == 0.0 for v in prof.nu_delta_values[1:])
        assert prof.geometric_ratio is not None and 0 < prof.geometric_ratio < 1

    def test_serializable(self, sym_chain):
        prof = mixing_profile(sym_chain, max_gap=6)
        doc = prof.to_dict()
        assert doc["fit"]["geometric_ratio"] == pytest.approx(0.8, abs=1e-6)
