"""Single-flip log-likelihood stability and the concentration-bound constants.

The stability coefficient M is the largest change of log2 P(x_{1:n}) under
one symbol substitution.  A flip only touches the stationary prefix factor
and the m+1 transition windows covering it, so the exhaustive search over
sequences of length 2m+3 already realizes the supremum over all n; tests
double the cap and assert the value does not move.

Both published variants of the mixing inflation factor are computed and
reported side by side (1 + 24 * sum phi and 1 + 4 * sum phi), as is the
choice of starting the sum at k = 0 or k = 1; none of the four is silently
preferred.  The sum of phi is an upper bound: its tail past the last term
is bounded through Dobrushin's ergodicity coefficient of a power of the
context kernel.  All evaluated bounds are exact plug-in arithmetic over
this codec's concrete header constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .analytics import _require_ergodic, entropy_rate, marginal_entropy, phi_sequence
from .coder import c1_budget, c_prime, log_star, symbol_width
from .errors import BelowThresholdError, GuardExceededError, NotStableError, ValidationError
from .models import MarkovModel, path_log_likelihoods

PHI_PRIME_GUARD = 10_000
PHI_SUM_CAP = 10_000
# the phi sum stops once its certified tail is at most this fraction of the sum
PHI_TAIL_RTOL = 1e-12
# sequences per block of the flip search: bounds its temporaries, whatever l**length is
SEARCH_BLOCK = 1 << 16


@dataclass
class StabilityResult:
    exact: float
    bound: float
    rho: float
    search_length: int


def min_conditional_probability(model: MarkovModel) -> float:
    return float(model.transitions.min())


def m_stability(model: MarkovModel, max_len: int | None = None) -> StabilityResult:
    """Exact single-flip stability coefficient and its closed-form bound.

    exact: max over sequences of length <= 2m+3 (default), flip positions
    and replacement symbols of |log2 P(x) - log2 P(x')|.
    bound: (m+1) * log2(1/rho), rho the smallest conditional probability.
    """
    rho = min_conditional_probability(model)
    if rho <= 0.0:
        raise NotStableError("a conditional probability is zero: stability coefficient is infinite")
    m = model.order
    bound = (m + 1) * math.log2(1.0 / rho)
    length = max_len if max_len is not None else 2 * m + 3
    length = max(length, max(m, 1))
    l = model.alphabet.size
    logp = _all_sequence_logprobs(model, length)
    best = 0.0
    for lo in range(0, l**length, SEARCH_BLOCK):
        codes = np.arange(lo, min(lo + SEARCH_BLOCK, l**length))
        base = logp[codes]
        for pos in range(length):
            weight = l ** (length - 1 - pos)
            digit = codes // weight % l
            for repl in range(l):
                # a sequence already holding repl at pos meets itself and adds a 0;
                # a pair of zero-probability sequences gives NaN, which fmax skips
                diff = np.fmax.reduce(np.abs(base - logp[codes + (repl - digit) * weight]))
                if diff > best:
                    best = float(diff)
    return StabilityResult(exact=float(best), bound=float(bound), rho=rho, search_length=length)


def _all_sequence_logprobs(model: MarkovModel, length: int) -> np.ndarray:
    """log2 P(x_{1:length}) for every sequence, indexed by its base-l code."""
    l = model.alphabet.size
    m = model.order
    if length < m:
        raise ValidationError("search length shorter than the model order")
    logpi = np.log2(model.stationary_context_law())
    powers = l ** np.arange(length - 1, -1, -1)
    out = np.empty(l**length)
    for lo in range(0, l**length, SEARCH_BLOCK):
        codes = np.arange(lo, min(lo + SEARCH_BLOCK, l**length))
        seqs = codes[:, None] // powers % l
        # the stationary prefix term is the start value, so it is added before the
        # transition terms; that order of the float additions fixes M_exact's bits
        start = logpi[codes // l ** (length - m)] if m else 0.0
        out[lo : lo + codes.size] = path_log_likelihoods(model, seqs, start)
    return out


@dataclass
class DeltaCoefficients:
    """Mixing inflation constants under both published variants.

    sum_phi_from_1 is phi(1) + ... + phi(K), added left to right, plus
    ``tail``, the certified bound on the terms past K = truncation_index.
    """

    sum_phi_from_0: float
    sum_phi_from_1: float
    k_start: int
    truncation_index: int
    tail: float

    @property
    def sum_phi(self) -> float:
        return self.sum_phi_from_0 if self.k_start == 0 else self.sum_phi_from_1

    def delta(self, variant: str = "thm") -> float:
        if variant not in ("thm", "proof"):
            raise ValidationError("variant must be 'thm' or 'proof'")
        return 1.0 + (24.0 if variant == "thm" else 4.0) * self.sum_phi

    @property
    def delta_thm(self) -> float:
        return self.delta("thm")

    @property
    def delta_proof(self) -> float:
        return self.delta("proof")

    def as_pair(self) -> tuple[float, float]:
        return self.delta_thm, self.delta_proof


def dobrushin(kernel: np.ndarray) -> float:
    """Dobrushin's ergodicity coefficient: half the largest L1 distance between two rows."""
    return 0.5 * max(float(np.abs(kernel - row).sum(axis=1).max()) for row in kernel)


def delta_coefficients(model: MarkovModel, k_start: int = 0) -> DeltaCoefficients:
    """Sum phi(k) with a certified upper bound on the tail.

    For a zero-sum row vector v, ||v P**b||_1 <= delta(P**b) ||v||_1, so
    phi(a + b) <= phi(a) * delta(P**b) for the context kernel P; in
    particular phi never increases. With J the first power of two whose
    theta = delta(P**J) is at most 1/2 (or the first past PHI_SUM_CAP, where
    any theta < 1 will do),

        sum_{k > K} phi(k) = sum_{r=1..J} sum_{q>=0} phi(K + r + qJ)
                           <= J * phi(K) / (1 - theta).

    Terms are added until that tail is at most PHI_TAIL_RTOL times the sum,
    or up to PHI_SUM_CAP terms, where the same (looser) tail is returned.
    """
    if k_start not in (0, 1):
        raise ValidationError("k_start must be 0 or 1")
    _require_ergodic(model)
    power, span = model.context_kernel(), 1
    theta = dobrushin(power)
    while theta > 0.5 and span < PHI_SUM_CAP:
        power, span = power @ power, 2 * span
        theta = dobrushin(power)
    if not theta < 1.0:
        raise GuardExceededError(f"delta(P**{span}) = {theta}: the context kernel does not contract")
    phis = phi_sequence(model)
    phi0 = next(phis)
    head = 0.0
    for k, phi in enumerate(islice(phis, PHI_SUM_CAP), start=1):
        head += phi
        tail = span * phi / (1.0 - theta)
        if tail <= PHI_TAIL_RTOL * head:
            break
    total = head + tail
    return DeltaCoefficients(
        sum_phi_from_0=phi0 + total,
        sum_phi_from_1=total,
        k_start=k_start,
        truncation_index=k,
        tail=tail,
    )


def phi_prime_matrix(model: MarkovModel, n: int) -> tuple[np.ndarray, float]:
    """Row sums of the mixing-weighted Lipschitz matrix and their max.

    Row i of H_n is 1 + sum_{j>i} min(4 phi(j-i), 2); only the row sums are
    materialized (the matrix is Toeplitz above the diagonal).
    """
    if n < 1:
        raise ValidationError("n must be positive")
    if n > PHI_PRIME_GUARD:
        raise GuardExceededError(f"n = {n} above the {PHI_PRIME_GUARD} guard")
    vals = np.array([min(4.0 * phi, 2.0) for phi in islice(phi_sequence(model), 1, n)], dtype=float)
    cums = np.concatenate([[0.0], np.cumsum(vals)])
    row_sums = 1.0 + cums[::-1]
    return row_sums, float(row_sums.max())


@dataclass
class ConcentrationConstants:
    """Everything needed to evaluate both finite-sample tail bounds.

    The n-dependent quantities (C1, gamma, zeta, K1') are methods; variant
    selects the mixing inflation constant: "thm" = 1 + 24 sum phi,
    "proof" = 1 + 4 sum phi.
    """

    m: int
    l: int
    m_exact: float
    m_bound: float
    rho: float
    mixing: DeltaCoefficients
    h_conditional: float
    h_marginal: float
    eta: float

    def delta(self, variant: str = "thm") -> float:
        return self.mixing.delta(variant)

    def k_sym(self) -> int:
        return symbol_width(self.l)

    def c1(self, n: int) -> int:
        """Deterministic header budget of the codec at order m and length n."""
        return c1_budget(self.l, self.m, n)

    def zeta(self, n: int) -> float:
        return c_prime(self.m, n) + self.k_sym()

    def gamma_n(self, n: int) -> float:
        return self.c1(n) / n + (self.m / n) * self.h_conditional + n ** (-0.5 - self.eta)

    def gamma_prime(self, n: int) -> float:
        return (self.c1(n) + self.m * self.h_marginal) / n

    def k1(self, variant: str = "thm") -> float:
        return 2.0 * self.m_exact**2 * self.delta(variant) ** 2

    def k1_prime(self, n: int, variant: str = "thm") -> float:
        return 2.0 * self.delta(variant) ** 2 * (c_prime(self.m, n) + log_star(n) + self.k_sym()) ** 2

    def to_dict(self, n_grid: tuple[int, ...] = ()) -> dict:
        doc = {
            "m": self.m,
            "l": self.l,
            "M_exact": self.m_exact,
            "M_bound": self.m_bound,
            "rho": self.rho,
            "sum_phi_from_0": self.mixing.sum_phi_from_0,
            "sum_phi_from_1": self.mixing.sum_phi_from_1,
            "k_start": self.mixing.k_start,
            "delta_thm": self.delta("thm"),
            "delta_proof": self.delta("proof"),
            "K1_thm": self.k1("thm"),
            "K1_proof": self.k1("proof"),
            "H_conditional": self.h_conditional,
            "H_marginal": self.h_marginal,
            "eta": self.eta,
        }
        if n_grid:
            doc["per_n"] = {
                str(n): {
                    "C1": self.c1(n),
                    "gamma_n": self.gamma_n(n),
                    "gamma_prime": self.gamma_prime(n),
                    "K1_prime_thm": self.k1_prime(n, "thm"),
                    "K1_prime_proof": self.k1_prime(n, "proof"),
                    "zeta": self.zeta(n),
                }
                for n in n_grid
            }
        return doc


def compute_constants(model: MarkovModel, eta: float = 0.1, k_start: int = 0) -> ConcentrationConstants:
    """Assemble every constant of the finite-sample bounds for one model."""
    if not 0.0 < eta < 0.5:
        raise ValidationError("eta must lie in (0, 0.5)")
    stab = m_stability(model)
    return ConcentrationConstants(
        m=model.order,
        l=model.alphabet.size,
        m_exact=stab.exact,
        m_bound=stab.bound,
        rho=stab.rho,
        mixing=delta_coefficients(model, k_start=k_start),
        h_conditional=entropy_rate(model),
        h_marginal=marginal_entropy(model),
        eta=eta,
    )


def bound_concentration2(consts: ConcentrationConstants, n: int, t: float, variant: str = "thm") -> float:
    """Gaussian-plus-floor tail bound: 2 exp(-n (t - gamma_n)^2 / K1) + n zeta 2^(-n^(1/2-eta))."""
    if n < 1:
        raise ValidationError("n must be positive")
    gam = consts.gamma_n(n)
    if t <= gam:
        raise BelowThresholdError(f"t = {t} at or below the threshold gamma_n = {gam}")
    k1 = consts.k1(variant)
    # K1 = 0 when M = 0 (iid uniform): the Gaussian term's limit for t > gamma_n is 0
    gauss = 0.0 if k1 == 0 else 2.0 * math.exp(-n * (t - gam) ** 2 / k1)
    floor = n * consts.zeta(n) * 2.0 ** (-(n ** (0.5 - consts.eta)))
    return min(1.0, gauss + floor)


def bound_concentration1(consts: ConcentrationConstants, n: int, t: float, variant: str = "thm") -> float:
    """Flip-Lipschitz tail bound: 2 exp(-n (t - gamma'(n))^2 / K1'(n))."""
    if n < 1:
        raise ValidationError("n must be positive")
    gam = consts.gamma_prime(n)
    if t <= gam:
        raise BelowThresholdError(f"t = {t} at or below the threshold gamma'(n) = {gam}")
    return min(1.0, 2.0 * math.exp(-n * (t - gam) ** 2 / consts.k1_prime(n, variant)))
