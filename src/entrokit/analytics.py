"""Exact information quantities of the source models.

Everything here is analytic (up to linear-solver tolerance) except where a
Monte Carlo estimate is the declared method:

- entropy_rate: conditional entropy per symbol from the stationary context
  law, in bits.
- sigma_squared: asymptotic variance of the per-symbol log-likelihood,
  var + 2 * sum of lagged covariances on the augmented context chain, in
  closed form (fundamental matrix), with an optional long-run-variance
  Monte Carlo cross-check.
- phi_sequence / phi_mixing: max-over-states total variation of the n-step
  context kernel against the stationary law, from one incremental product
  of kernel powers that every phi consumer reads.  Conditioning on an
  arbitrary past event reduces, by the Markov property, to conditioning on
  the current context, and trajectory-law TV with a shared kernel is
  bounded by initial-law TV by coupling; for order-1 chains the first
  future symbol exposes the whole discrepancy, so the value is exact (it
  is an upper bound for m >= 2, which keeps every downstream bound valid).
- phi_bruteforce / alpha_mixing_bounds: literal enumeration over future
  cylinder event subsets, the independent oracle for the reduction above.
- nu_delta: the (2+delta)/(1+delta)-moment of the log-likelihood gap
  between finite and infinite conditioning windows; identically zero for
  an m-Markov source beyond its order, exact by marginalization below it,
  and a windowed forward-algorithm Monte Carlo estimate for HMMs.

All logarithms are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import (
    BadDeltaError,
    NonErgodicError,
    TooLargeError,
    ValidationError,
    WindowTooShortError,
)
from .models import BlockwiseModel, HMMModel, MarkovModel, sample_hmm_paths, walk_paths
from .models import path_log_likelihoods  # noqa: F401  (the evaluator is also reached from here)

BRUTE_FORCE_GUARD = 12


def _require_ergodic(model: MarkovModel) -> None:
    if not model.ergodic:
        raise NonErgodicError("operation requires an ergodic (aperiodic) model")


def entropy_rate(model: MarkovModel) -> float:
    """H(next symbol | context) in bits per symbol; 0*log0 = 0."""
    pi = model.stationary_context_law()
    p = model.transitions
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return float(-(pi @ terms.sum(axis=1)))


def marginal_entropy(model: MarkovModel) -> float:
    """H(X_1): entropy of the stationary single-symbol law."""
    mu = model.marginal_symbol_law()
    return float(-sum(q * math.log2(q) for q in mu if q > 0))


@dataclass
class VarianceReport:
    """sigma-squared with its parts and the optional Monte Carlo oracle."""

    sigma2: float
    variance_term: float
    covariance_sum: float
    truncation_index: int = 0  # always 0, the closed form sums no series; perfbench's tracer reads it
    mc_estimate: float | None = None
    mc_stderr: float | None = None
    mc_paths: int = 0
    mc_path_length: int = 0


def sigma_squared(
    model: MarkovModel,
    mc_paths: int = 0,
    mc_path_length: int = 100_000,
    base_seed: int = 0,
) -> VarianceReport:
    """Asymptotic variance of log2 P(X_t | context), bits squared.

    var(g) + 2 * sum_{k>=1} cov(g_0, g_k), the covariance sum in closed form
    from one solve with the fundamental matrix (I - K + 1 pi)^-1 of the
    context chain (Kemeny & Snell).  Clamped at zero.  When mc_paths > 0, a
    long-run-variance Monte Carlo oracle runs alongside and is recorded in
    the report; mc_paths must be 0 or at least 2.
    """
    _require_ergodic(model)
    p = model.transitions
    pi = model.stationary_context_law()
    g = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    gbar = (p * g).sum(axis=1)
    mean = float(pi @ gbar)
    var = float((pi[:, None] * p * (g - mean) ** 2).sum())

    # sum_{k>=1} w . (K^(k-1) gbar - mean)[succ] = w . h[succ], h = sum_j K^j (gbar - mean): (I - K + 1 pi) h = gbar - mean
    k = model.n_contexts
    h = np.linalg.solve(np.eye(k) - model.context_kernel() + pi[None, :], gbar - mean)
    cov_sum = float((pi[:, None] * p * g).ravel() @ h[model.successor_table()])
    report = VarianceReport(sigma2=max(var + 2.0 * cov_sum, 0.0), variance_term=var, covariance_sum=cov_sum)
    if mc_paths != 0:
        est, se = long_run_variance_mc(model, mc_paths, mc_path_length, base_seed)
        report.mc_estimate = est
        report.mc_stderr = se
        report.mc_paths = mc_paths
        report.mc_path_length = mc_path_length
    return report


def long_run_variance_mc(
    model: MarkovModel,
    n_paths: int = 1000,
    path_length: int = 100_000,
    base_seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo long-run variance oracle: var(sum log2 P) / (n - m).

    Path r is replicate derive_seed(base_seed, r). All paths go through one
    pass of ``models.walk_paths``, which sums each path's log-likelihood as
    it samples and stores no symbols; its fixed time-chunk budget bounds the
    memory, so there is no batch size to choose.

    Returns (estimate, standard error); the stderr uses the normal
    approximation var(s^2) ~ 2 sigma^4 / (R - 1). Needs n_paths >= 2,
    path_length > m and base_seed >= 0.
    """
    if n_paths < 2:
        raise ValidationError(f"mc_paths: the Monte Carlo oracle needs at least 2 paths, got {n_paths}")
    if path_length <= model.order:
        raise ValidationError(f"mc_path_length: must exceed the order {model.order}, got {path_length}")
    if base_seed < 0:
        raise ValidationError(f"seed: must be non-negative, got {base_seed}")
    _, sums = walk_paths(model, path_length, n_paths, base_seed)
    est = float(np.var(sums, ddof=1) / (path_length - model.order))
    stderr = est * math.sqrt(2.0 / (n_paths - 1))
    return est, stderr


# -- mixing coefficients ------------------------------------------------------


def phi_sequence(model: MarkovModel):
    """Yield phi(0), phi(1), ...: 1/2 max row L1 distance of P**k from 1 pi.

    P**k is built incrementally, power = power @ kernel from the identity,
    so phi(k) costs one k x k product after phi(k - 1). Every phi consumer
    reads this sequence and applies its own stop rule and ergodicity check.
    """
    kernel = model.context_kernel()
    pi = model.stationary_context_law()
    power = np.eye(kernel.shape[0])
    while True:
        yield float(0.5 * np.abs(power - pi[None, :]).sum(axis=1).max())
        power = power @ kernel


def phi_mixing(model: MarkovModel, n: int) -> float:
    """Uniform-mixing coefficient via the context-chain reduction."""
    _require_ergodic(model)
    if n < 0:
        raise ValidationError("gap n must be non-negative")
    return next(islice(phi_sequence(model), n, None))


def _cylinder_laws(model: MarkovModel, n: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """(per-start-context cylinder laws, stationary cylinder law) at gap n.

    Row s holds the law of the next ``depth`` symbols starting n steps after
    a context equal to s.
    """
    k, l = model.n_contexts, model.alphabet.size
    pi = model.stationary_context_law()
    start = np.linalg.matrix_power(model.context_kernel(), n - 1)
    n_cyl = l**depth
    laws = np.zeros((k, n_cyl))
    nxt = model.successor_table().reshape(k, l)

    def walk(dist: np.ndarray) -> np.ndarray:
        out = np.zeros(n_cyl)
        stack = [(dist, 0, 0)]
        while stack:
            vec, depth_done, code = stack.pop()
            if depth_done == depth:
                out[code] = vec.sum()
                continue
            for x in range(l):
                mass = vec * model.transitions[:, x]
                nv = np.zeros(k)
                np.add.at(nv, nxt[:, x], mass)
                stack.append((nv, depth_done + 1, code * l + x))
        return out

    for s in range(k):
        laws[s] = walk(start[s])
    return laws, pi @ laws


def phi_bruteforce(model: MarkovModel, n: int, depth: int) -> float:
    """sup over contexts and depth-d future event subsets of |P(B|A) - P(B)|.

    Independent oracle for phi_mixing: enumerates every subset of the
    depth-d cylinders at gap n (guard: l**d <= 12).
    """
    _require_ergodic(model)
    if n < 1:
        raise ValidationError("brute force needs gap n >= 1")
    if depth < 1:
        raise ValidationError("depth must be positive")
    l = model.alphabet.size
    if l**depth > BRUTE_FORCE_GUARD:
        raise TooLargeError(f"l**d = {l**depth} exceeds the enumeration guard {BRUTE_FORCE_GUARD}")
    laws, base = _cylinder_laws(model, n, depth)
    n_cyl = laws.shape[1]
    best = 0.0
    diffs = laws - base[None, :]
    for mask in range(1, 1 << n_cyl):
        sel = [j for j in range(n_cyl) if mask >> j & 1]
        vals = np.abs(diffs[:, sel].sum(axis=1))
        best = max(best, float(vals.max()))
    return best


def alpha_mixing_bounds(model: MarkovModel, n: int, depth: int) -> tuple[float, float]:
    """(brute-force lower bound, phi upper bound) for the alpha coefficient.

    The lower bound pairs each future event B with its optimal past event
    {P(B | context) >= P(B)}; exact alpha over all events is combinatorially
    out of reach, so the result is an honest interval.
    """
    _require_ergodic(model)
    if n < 1:
        raise ValidationError("brute force needs gap n >= 1")
    return _alpha_lower(model, n, depth), phi_mixing(model, n)


def _alpha_lower(model: MarkovModel, n: int, depth: int) -> float:
    l = model.alphabet.size
    if l**depth > BRUTE_FORCE_GUARD:
        raise TooLargeError(f"l**d = {l**depth} exceeds the enumeration guard {BRUTE_FORCE_GUARD}")
    pi = model.stationary_context_law()
    laws, base = _cylinder_laws(model, n, depth)
    n_cyl = laws.shape[1]
    lower = 0.0
    for mask in range(1, 1 << n_cyl):
        sel = [j for j in range(n_cyl) if mask >> j & 1]
        h = laws[:, sel].sum(axis=1)
        pb = float(pi @ h)
        gain = float(pi @ np.maximum(h - pb, 0.0))
        lower = max(lower, gain)
    return lower


# -- nu_delta -----------------------------------------------------------------


@dataclass
class NuDeltaEstimate:
    value: float
    stderr: float
    exact: bool
    gap: int
    delta: float
    window: int = 0
    reps: int = 0
    value_half_window: float | None = None
    converged: bool = True


def _check_delta(delta: float) -> float:
    if not 0.0 < delta <= 1.0:
        raise BadDeltaError("delta must lie in (0, 1]")
    return (2.0 + delta) / (1.0 + delta)


def nu_delta(
    model: MarkovModel | HMMModel,
    n: int,
    delta: float,
    window: int | None = None,
    reps: int = 2000,
    base_seed: int = 0,
) -> NuDeltaEstimate:
    """Moment of the log-likelihood gap between n-past and infinite-past laws.

    Markov sources: exactly 0 for n >= m, exact marginalization below the
    order.  HMM sources: Monte Carlo with the infinite past approximated by
    a length-``window`` forward pass (window documented in the result;
    halving the window must move the estimate by less than one stderr for
    the convergence flag).
    """
    power = _check_delta(delta)
    if n < 0:
        raise ValidationError("gap n must be non-negative")
    if isinstance(model, MarkovModel):
        if n >= model.order:
            return NuDeltaEstimate(0.0, 0.0, exact=True, gap=n, delta=delta)
        return NuDeltaEstimate(
            _nu_delta_markov_exact(model, n, power), 0.0, exact=True, gap=n, delta=delta
        )
    if window is None:
        window = max(4 * n, 16)
    if window < n:
        raise WindowTooShortError(f"window {window} shorter than gap {n}")
    if reps < 2:
        raise ValidationError("reps must be at least 2")
    return _nu_delta_hmm_mc(model, n, delta, power, window, reps, base_seed)


def _nu_delta_markov_exact(model: MarkovModel, n: int, power: float) -> float:
    pi = model.stationary_context_law()
    p = model.transitions
    k, l = model.n_contexts, model.alphabet.size
    ln = l**n
    short, _ = model.window_laws(n)  # row c % ln: the law given the context's last n symbols
    total = 0.0
    for c in range(k):
        s = c % ln
        for x in range(l):
            wgt = pi[c] * p[c, x]
            if wgt == 0:
                continue
            total += wgt * abs(math.log2(p[c, x]) - math.log2(short[s, x])) ** power
    return total


def _hmm_predictive(model: HMMModel, obs: np.ndarray, start: int, target: int) -> np.ndarray:
    """P(Y_target = y_target | Y_start..Y_{target-1}) for each row, exactly."""
    reps = obs.shape[0]
    alpha = np.tile(model.stationary_hidden_law(), (reps, 1))
    for t in range(start, target):
        like = model.emissions[:, obs[:, t]].T  # (reps, hidden)
        alpha = alpha * like
        alpha = alpha / alpha.sum(axis=1, keepdims=True)
        alpha = alpha @ model.hidden_kernel
    emit = model.emissions[:, obs[:, target]].T
    return (alpha * emit).sum(axis=1)


def _nu_delta_hmm_mc(
    model: HMMModel, n: int, delta: float, power: float, window: int, reps: int, base_seed: int
) -> NuDeltaEstimate:
    length = window + 1
    obs, _ = sample_hmm_paths(model, length, reps, base_seed)
    target = window
    p_long = _hmm_predictive(model, obs, 0, target)
    p_short = _hmm_predictive(model, obs, target - n, target)
    samples = np.abs(np.log2(p_short) - np.log2(p_long)) ** power
    value = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(reps))
    p_half = _hmm_predictive(model, obs, target - max(window // 2, n), target)
    half = float((np.abs(np.log2(p_short) - np.log2(p_half)) ** power).mean())
    converged = abs(value - half) <= max(stderr, 1e-12)
    return NuDeltaEstimate(
        value=value,
        stderr=stderr,
        exact=False,
        gap=n,
        delta=delta,
        window=window,
        reps=reps,
        value_half_window=half,
        converged=converged,
    )


# -- profiles and condition checks -------------------------------------------


@dataclass
class MixingProfile:
    """Tabulated mixing behaviour of one model."""

    model_id: str
    gaps: list[int]
    phi: list[float]
    alpha_lower: list[float]
    alpha_upper: list[float]
    nu_delta_values: list[float]
    delta: float
    depth: int
    geometric_ratio: float | None
    geometric_residual: float | None
    powerlaw_exponent: float | None
    powerlaw_residual: float | None

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "gaps": self.gaps,
            "phi": self.phi,
            "alpha_lower": self.alpha_lower,
            "alpha_upper": self.alpha_upper,
            "nu_delta": self.nu_delta_values,
            "delta": self.delta,
            "depth": self.depth,
            "fit": {
                "geometric_ratio": self.geometric_ratio,
                "geometric_residual": self.geometric_residual,
                "powerlaw_exponent": self.powerlaw_exponent,
                "powerlaw_residual": self.powerlaw_residual,
            },
        }


def _loglinear_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and max abs residual of ys against xs."""
    a = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    resid = float(np.abs(a @ coef - ys).max()) if len(xs) else 0.0
    return float(coef[0]), resid


def mixing_profile(
    model: MarkovModel,
    max_gap: int,
    depth: int = 1,
    delta: float = 0.5,
    model_id: str = "model",
) -> MixingProfile:
    """phi / alpha-interval / nu_delta table with fitted decay parameters."""
    _require_ergodic(model)
    if max_gap < 1:
        raise ValidationError("max_gap must be at least 1")
    gaps = list(range(max_gap + 1))
    phi = list(islice(phi_sequence(model), max_gap + 1))
    alpha_lower = [0.0] + [_alpha_lower(model, g, depth) for g in gaps[1:]]
    nus = [nu_delta(model, g, delta).value for g in gaps]
    tail = [(g, v) for g, v in zip(gaps[1:], phi[1:]) if v > 1e-300]
    geo_ratio = geo_resid = pl_exp = pl_resid = None
    if len(tail) >= 2:
        xs = np.array([g for g, _ in tail], dtype=float)
        ys = np.log([v for _, v in tail])
        slope, geo_resid = _loglinear_fit(xs, ys)
        geo_ratio = float(math.exp(slope))
        pl_exp, pl_resid = _loglinear_fit(np.log(xs), ys)
    return MixingProfile(
        model_id=model_id,
        gaps=gaps,
        phi=phi,
        alpha_lower=alpha_lower,
        alpha_upper=list(phi),  # alpha(n) <= phi(n)
        nu_delta_values=nus,
        delta=delta,
        depth=depth,
        geometric_ratio=geo_ratio,
        geometric_residual=geo_resid,
        powerlaw_exponent=pl_exp,
        powerlaw_residual=pl_resid,
    )


@dataclass
class ConditionReport:
    """Outcome of the moment/mixing condition check behind the CLT result."""

    model_type: str
    delta: float
    beta: float
    alpha_exponent: float
    fitted_k: float | None
    alpha_satisfied: bool | None
    nu_satisfied: bool | None
    applicable: bool
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return self.__dict__ | {"notes": list(self.notes)}


def check_clt_conditions(
    model,
    delta: float = 0.5,
    beta: float = 1.5,
    horizon: int = 256,
) -> ConditionReport:
    """Check the polynomial alpha decay and geometric nu_delta decay requirements."""
    _check_delta(delta)
    if beta <= 1:
        raise ValidationError("beta must exceed 1")
    exponent = beta * (2.0 + delta) * (1.0 + delta) / delta**2
    if isinstance(model, BlockwiseModel):
        return ConditionReport(
            model_type="blockwise",
            delta=delta,
            beta=beta,
            alpha_exponent=exponent,
            fitted_k=None,
            alpha_satisfied=None,
            nu_satisfied=None,
            applicable=False,
            notes=["not applicable: no exact mixing computation for the blockwise model"],
        )
    if isinstance(model, HMMModel):
        est = [nu_delta(model, g, delta, reps=1000).value for g in (2, 4, 8)]
        decaying = all(b <= a + 1e-12 for a, b in zip(est, est[1:]))
        return ConditionReport(
            model_type="hmm",
            delta=delta,
            beta=beta,
            alpha_exponent=exponent,
            fitted_k=None,
            alpha_satisfied=None,
            nu_satisfied=decaying if decaying else None,
            applicable=True,
            notes=["alpha decay inconclusive: no exact phi computation for HMMs; "
                   "nu_delta sampled at gaps 2/4/8"],
        )
    _require_ergodic(model)
    # TV below ~1e-12 is the incremental kernel product's rounding noise around
    # an exact geometric zero; multiplying it by the huge polynomial would fake
    # a growing tail
    phis = [p if p > 1e-12 else 0.0 for p in islice(phi_sequence(model), 1, horizon + 1)]
    needed = [p * g**exponent for g, p in enumerate(phis, start=1)]
    fitted_k = max(needed) if needed else 0.0
    # geometric phi beats any polynomial: the needed K must peak strictly inside the horizon
    peak = int(np.argmax(needed)) if needed else 0
    tail_ok = fitted_k == 0.0 or peak < horizon - 1
    notes = [f"alpha(n) <= phi(n); fitted K = {fitted_k:.6g} over horizon {horizon}"]
    if not tail_ok:
        notes.append("inconclusive: needed K still growing at the horizon")
    nu_note = "nu_delta identically 0 beyond the model order (exact)"
    notes.append(nu_note)
    return ConditionReport(
        model_type="markov",
        delta=delta,
        beta=beta,
        alpha_exponent=exponent,
        fitted_k=float(fitted_k),
        alpha_satisfied=bool(tail_ok),
        nu_satisfied=True,
        applicable=True,
        notes=notes,
    )
