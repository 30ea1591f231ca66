import hashlib
import json
import math

import numpy as np
import pytest

from entrokit.coder import c_prime, log_star
from entrokit.errors import BelowThresholdError, GuardExceededError, NonErgodicError, NotStableError, ValidationError
from entrokit.models import Alphabet, MarkovModel
from entrokit.stability import (
    PHI_SUM_CAP,
    bound_concentration1,
    bound_concentration2,
    compute_constants,
    delta_coefficients,
    m_stability,
    phi_prime_matrix,
)

from conftest import A2


class TestMStability:
    def test_iid_bern25(self, bern25):
        res = m_stability(bern25)
        assert res.exact == pytest.approx(math.log2(3), abs=1e-12)
        assert res.bound == pytest.approx(math.log2(4), abs=1e-12)

    def test_symmetric_chain_values(self, sym_chain):
        res = m_stability(sym_chain)
        assert res.exact == pytest.approx(2 * math.log2(9), abs=1e-9)
        assert res.bound == pytest.approx(2 * math.log2(10), abs=1e-9)

    def test_zero_entry_not_stable(self):
        model = MarkovModel(A2, 1, np.array([[0.5, 0.5], [1.0, 0.0]]))
        with pytest.raises(NotStableError):
            m_stability(model)

    def test_random_models_respect_bound(self):
        # smaller copy of the acceptance sweep (full 10^3-model sweep runs there)
        rng = np.random.default_rng(31)
        for _ in range(200):
            l = int(rng.integers(2, 4))
            m = int(rng.integers(0, 3))
            alphabet = Alphabet(tuple(str(i) for i in range(l)))
            rows = rng.dirichlet(np.ones(l), size=l**m) * 0.9 + 0.1 / l
            rows /= rows.sum(axis=1, keepdims=True)
            model = MarkovModel(alphabet, m, rows)
            res = m_stability(model)
            assert res.exact <= res.bound + 1e-9

    def test_exact_values_pinned(self):
        # digest taken from the per-sequence scalar search: the vectorized flip
        # search must keep every bit of M
        rng = np.random.default_rng(606)
        exacts = []
        for _ in range(300):
            l = int(rng.integers(2, 4))
            m = int(rng.integers(0, 3))
            rows = rng.dirichlet(np.ones(l), size=l**m) * 0.9 + 0.1 / l
            rows /= rows.sum(axis=1, keepdims=True)
            model = MarkovModel(Alphabet(tuple(str(i) for i in range(l))), m, rows)
            exacts.append(repr(m_stability(model).exact))
        digest = hashlib.sha256("\n".join(exacts).encode()).hexdigest()
        assert digest == "edf8711a3e546e5158ec55f318be83938ee49d2675b4e17dd2828c58e25669e1"
        # rho > 0 but some contexts have stationary mass 0: pairs of two -inf
        # log-probabilities are skipped, and a flip out of probability 0 is inf
        rows = np.array([[1 - 1e-10, 1e-10]] * 8)
        model = MarkovModel(Alphabet(("0", "1")), 3, rows)
        assert model.stationary_context_law().min() == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            assert m_stability(model).exact == math.inf

    def test_doubling_cap_does_not_increase(self, sym_chain, order2_chain):
        for model in (sym_chain, order2_chain):
            base = m_stability(model)
            doubled = m_stability(model, max_len=2 * (2 * model.order + 3))
            assert doubled.exact <= base.exact + 1e-12


class TestDeltaCoefficients:
    def test_iid_uniform(self, uniform2):
        dc = delta_coefficients(uniform2)
        assert dc.as_pair() == (1.0, 1.0)

    def test_symmetric_series(self, sym_chain):
        dc = delta_coefficients(sym_chain)
        assert dc.sum_phi_from_0 == pytest.approx(2.5, abs=1e-9)
        assert dc.delta_thm == pytest.approx(61.0, abs=1e-7)
        assert dc.delta_proof == pytest.approx(11.0, abs=1e-7)

    def test_k_start_variants(self, sym_chain):
        dc0 = delta_coefficients(sym_chain, k_start=0)
        dc1 = delta_coefficients(sym_chain, k_start=1)
        assert dc1.sum_phi == pytest.approx(dc0.sum_phi - 0.5, abs=1e-9)
        assert dc0.sum_phi_from_1 == dc1.sum_phi

    @pytest.mark.parametrize("fixture, want", [("sym_chain", 2.5), ("asym_chain", 25 / 18)])
    def test_certified_sum_bounds_the_closed_form(self, fixture, want, request):
        # phi(k) = 0.5 * 0.8**k and (5/6) * 0.4**k: the certified sum sits above
        # the closed form, up to the rounding of the kernel powers
        got = delta_coefficients(request.getfixturevalue(fixture)).sum_phi_from_0
        assert got == pytest.approx(want, rel=1e-12)
        assert got >= want * (1 - 1e-14)

    def test_slow_chain_ends_at_the_term_cap(self):
        # phi(k) = (2/3) * 0.9985**k: the cap leaves a tail of about 1e-4, still certified
        slow = MarkovModel(A2, 1, np.array([[1 - 5e-4, 5e-4], [1e-3, 1 - 1e-3]]))
        dc = delta_coefficients(slow)
        want = 444.4444444444768
        assert dc.truncation_index == PHI_SUM_CAP
        assert dc.sum_phi_from_0 == pytest.approx(want, rel=1e-6)
        assert dc.sum_phi_from_0 >= want * (1 - 1e-12)

    def test_kernel_that_does_not_contract_is_a_guard(self):
        # delta(P**16384) rounds to 1 when a switch has probability 1e-300
        model = MarkovModel(A2, 1, np.array([[1.0, 1e-300], [1e-300, 1.0]]))
        with pytest.raises(GuardExceededError, match="does not contract"):
            delta_coefficients(model)

    def test_periodic_rejected_at_validation(self):
        with pytest.raises(NonErgodicError):
            MarkovModel(A2, 1, np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestPhiPrimeMatrix:
    def test_iid_identity_row(self, bern25):
        rows, dn = phi_prime_matrix(bern25, 32)
        assert dn == 1.0
        assert np.allclose(rows, 1.0)

    def test_symmetric_closed_form(self, sym_chain):
        rows, dn = phi_prime_matrix(sym_chain, 50)
        want = 1 + sum(min(4 * 0.5 * 0.8**k, 2.0) for k in range(1, 50))
        assert dn == pytest.approx(want, abs=1e-9)

    def test_monotone_and_below_proof_constant(self, sym_chain):
        dc = delta_coefficients(sym_chain)
        last = 0.0
        for n in (2, 8, 32, 128):
            _, dn = phi_prime_matrix(sym_chain, n)
            assert dn >= last - 1e-12
            assert dn <= dc.delta_proof + 1e-9
            last = dn

    def test_guard(self, sym_chain):
        with pytest.raises(GuardExceededError):
            phi_prime_matrix(sym_chain, 10_001)


class TestConstants:
    def test_gamma_identity(self, sym_chain):
        consts = compute_constants(sym_chain, eta=0.1)
        for n in (256, 4096):
            want = consts.c1(n) / n + (consts.m / n) * consts.h_conditional + n ** (-0.6)
            assert consts.gamma_n(n) == pytest.approx(want, rel=1e-12)

    def test_m_bound_invariant(self, sym_chain, ternary_chain, order2_chain):
        for model in (sym_chain, ternary_chain, order2_chain):
            consts = compute_constants(model)
            assert consts.m_exact <= consts.m_bound + 1e-9

    def test_k1_matches_spec_formula(self, sym_chain):
        consts = compute_constants(sym_chain)
        assert consts.k1("thm") == pytest.approx(2 * consts.m_exact**2 * consts.delta("thm") ** 2)
        n = 4096
        want = 2 * consts.delta("proof") ** 2 * (c_prime(1, n) + log_star(n) + 1) ** 2
        assert consts.k1_prime(n, "proof") == pytest.approx(want)

    def test_serialization(self, sym_chain):
        doc = compute_constants(sym_chain).to_dict((1024,))
        assert doc["delta_thm"] == pytest.approx(61.0, abs=1e-7)
        assert "1024" in doc["per_n"]

    def test_constants_pinned(self, sym_chain):
        # digest taken with the certified phi tail; sharing the phi,
        # log-likelihood and C1 code must keep every bit of the constants
        doc = compute_constants(sym_chain).to_dict((1024, 4096))
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == "352fd732bb15c879fe532674bf2fefe65b5ef87ad1d57062d5f07a0d5637b68a"

    def test_eta_validated(self, sym_chain):
        with pytest.raises(ValidationError):
            compute_constants(sym_chain, eta=0.7)


class TestBounds:
    def test_gate(self, sym_chain):
        consts = compute_constants(sym_chain)
        with pytest.raises(BelowThresholdError):
            bound_concentration2(consts, 1024, consts.gamma_n(1024))
        with pytest.raises(BelowThresholdError):
            bound_concentration1(consts, 1024, 0.0 + consts.gamma_prime(1024))

    def test_large_t_floor(self, sym_chain):
        consts = compute_constants(sym_chain)
        n = 2048
        floor = n * consts.zeta(n) * 2.0 ** (-(n ** (0.5 - consts.eta)))
        val = bound_concentration2(consts, n, 1e9)
        assert val == pytest.approx(floor, rel=1e-9)
        assert val > 0

    def test_zero_stability_coefficient(self, uniform2):
        # fair iid coin: M = 0, so K1 = 0 and the Gaussian term's limit for t > gamma_n is 0
        consts = compute_constants(uniform2)
        assert consts.k1("thm") == 0.0
        n = 256
        floor = n * consts.zeta(n) * 2.0 ** (-(n ** (0.5 - consts.eta)))
        assert bound_concentration2(consts, n, consts.gamma_n(n) + 0.5) == min(1.0, floor)

    def test_monotone_in_t(self, sym_chain):
        consts = compute_constants(sym_chain)
        n = 4096
        ts = np.linspace(consts.gamma_n(n) + 0.01, 40.0, 60)
        v2 = [bound_concentration2(consts, n, float(t)) for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(v2, v2[1:]))
        ts = np.linspace(consts.gamma_prime(n) + 0.01, 40.0, 60)
        v1 = [bound_concentration1(consts, n, float(t)) for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(v1, v1[1:]))

    def test_gaussian_term_monotone_in_n(self, sym_chain):
        consts = compute_constants(sym_chain)
        t = 9.0  # above sup_n gamma_n for this chain
        vals = []
        for n in (512, 1024, 2048, 4096, 8192):
            gauss = 2.0 * math.exp(-n * (t - consts.gamma_n(n)) ** 2 / consts.k1("thm"))
            vals.append(gauss)
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_hand_arithmetic_oracle(self, sym_chain):
        # plug-in evaluation written out literally, independent of the module code
        consts = compute_constants(sym_chain, eta=0.1)
        n, t = 10_000, 1.0
        glen = lambda v: 2 * v.bit_length() - 1
        cprime = 16 + glen(2) + glen(n + 1)
        c1 = cprime + 0 + 2 * 1 + 4 * (n - 1).bit_length() + 1 * 1
        gamma = c1 / n + consts.h_conditional / n + n ** (-0.6)
        k1 = 2 * (2 * math.log2(9)) ** 2 * 61.0**2
        zeta = cprime + 1
        hand = min(1.0, 2 * math.exp(-n * (t - gamma) ** 2 / k1) + n * zeta * 2 ** (-(n**0.4)))
        assert bound_concentration2(consts, n, t, "thm") == pytest.approx(hand, rel=1e-6)
        k1p = 2 * 61.0**2 * (cprime + log_star(n) + 1) ** 2
        gp = (c1 + 1 * consts.h_marginal) / n
        hand1 = min(1.0, 2 * math.exp(-n * (t - gp) ** 2 / k1p))
        assert bound_concentration1(consts, n, t, "thm") == pytest.approx(hand1, rel=1e-6)
