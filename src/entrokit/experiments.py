"""Monte Carlo harness: CLT verification, tail-bound comparison, slow-rate scaling.

Replicates are keyed by derive_seed(base_seed, index), reductions are
ordered by replicate index, and all per-replicate work is a pure function
of (model, n, seed), so results are byte-identical across runs.  Everything
runs in one process, since a codelength costs well under a millisecond and a
worker pool would not pay for itself.

Deviation statistics use the codec length as the complexity surrogate.  The
deterministic header cost does not vanish at desk scale, so the normalized
deviations are median-centered before the distributional comparison and
the raw offset is reported against its predicted budget separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytics import entropy_rate, sigma_squared
from .coder import CodecParams, _check_guard, c1_budget, codelength_from_counts
from .errors import EmptySampleError, TooShortError, ValidationError
from .models import (
    Alphabet,
    BlockwiseModel,
    MarkovModel,
    SymbolSequence,
    sample_blockwise,
    walk_paths,
)
from .seeding import derive_seed
from .stability import ConcentrationConstants, bound_concentration1, bound_concentration2, compute_constants
from .typeclass import BlockFrequencyVector, block_frequencies

WILSON_Z = 1.959963984540054  # two-sided 95%


def empirical_entropy(seq, m: int) -> float:
    """Per-transition entropy of the sequence's own conditional counts."""
    n = len(seq)
    if n <= m:
        raise TooShortError(f"need n > m, got n = {n}, m = {m}")
    desc = block_frequencies(seq, m)
    counts = np.asarray(desc.counts, dtype=float).reshape(-1, seq.alphabet.size)
    ctx_totals = counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(counts > 0, counts * np.log2(counts), 0.0).sum()
        outer = np.where(ctx_totals > 0, ctx_totals * np.log2(ctx_totals), 0.0).sum()
    return float((outer - inner) / (n - m))


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Sup-distance between the empirical CDF and a reference CDF.

    Evaluated exactly at the empirical jump points with right-continuous
    empirical values (ties collapse to their last index), so a sample
    checked against its own empirical CDF scores exactly 0; against a
    continuous reference the unrestricted sup exceeds this by at most 1/N.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise EmptySampleError("KS statistic of an empty sample")
    uniq, counts = np.unique(x, return_counts=True)
    ecdf = np.cumsum(counts) / x.size
    f = np.asarray([cdf(v) for v in uniq], dtype=float)
    return float(np.abs(ecdf - f).max())


def normal_cdf(x: float, sigma: float = 1.0) -> float:
    return 0.5 * (1.0 + math.erf(x / (sigma * math.sqrt(2.0))))


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


# -- codelength evaluation ------------------------------------------------------


def _codelengths(paths: np.ndarray, l: int, m: int) -> np.ndarray:
    """Codec length of every row."""
    alphabet = Alphabet(tuple(str(i) for i in range(l)))
    return np.asarray(
        [codelength_from_counts(block_frequencies(SymbolSequence(alphabet, row), m)) for row in paths],
        dtype=np.int64,
    )


# Most entries one walk's block-count table may hold (2 MiB of int64):
# reps * l**(m+1). Past it the replicates are walked in groups of consecutive
# index offsets, which tile the run exactly.
COUNT_BUDGET = 1 << 18


def _walk_codelengths(
    model: MarkovModel, n: int, reps: int, base_seed: int, index_offset: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Codec length at order m and full log2 P of each of ``reps`` sampled paths.

    Every length is computed from the walker's block counts and prefix, so
    no path matrix is built. The replicates are walked in groups of
    consecutive offsets whose count table stays within COUNT_BUDGET entries.
    """
    group = max(1, COUNT_BUDGET // model.alphabet.size ** (m + 1))
    lens = np.empty(reps, dtype=np.int64)
    logliks = np.empty(reps)
    for start in range(0, reps, group):
        size = min(group, reps - start)
        (counts, heads), cond = walk_paths(model, n, size, base_seed, index_offset + start, block_order=m)
        for r in range(size):
            desc = BlockFrequencyVector(model.alphabet, m, tuple(heads[r, :m].tolist()), tuple(counts[r].tolist()), n)
            lens[start + r] = codelength_from_counts(desc)
        # full log2 P: the walker's conditional sums plus the law of the first symbols
        logliks[start : start + size] = cond + model.prefix_log2_probs(heads)
    return lens, logliks


# -- CLT experiment ------------------------------------------------------------


@dataclass
class CLTCell:
    n: int
    codelengths: np.ndarray
    logliks: np.ndarray
    deviations: np.ndarray  # sqrt(n) * (len/n - H)
    ks: float | None
    mean: float
    std: float
    offset_pred: float
    lower_bound_events: int


@dataclass
class CLTReport:
    model_id: str
    n_grid: list[int]
    reps: int
    base_seed: int
    codec_m: int
    entropy: float
    sigma2: float
    cells: list[CLTCell] = field(default_factory=list)

    def ks_values(self) -> list[float | None]:
        return [c.ks for c in self.cells]

    def samples_rows(self):
        for cell in self.cells:
            for r in range(len(cell.codelengths)):
                yield (cell.n, r, int(cell.codelengths[r]), float(cell.logliks[r]), float(cell.deviations[r]))

    def summary_rows(self):
        for c in self.cells:
            yield (c.n, "" if c.ks is None else c.ks, c.mean, c.std, c.offset_pred, c.lower_bound_events)


def run_clt(
    model: MarkovModel,
    n_grid: list[int],
    reps: int,
    base_seed: int,
    codec_params: CodecParams | None = None,
    model_id: str = "model",
) -> CLTReport:
    """Normalized-deviation sample per grid point plus KS against N(0, sigma^2).

    The codec order defaults to the model order (exact entropy target, zero
    conditioning gap); KS is computed on median-centered deviations and the
    raw mean is reported against the deterministic header budget C1(n)/sqrt(n).
    """
    if reps < 2:
        raise ValidationError("reps must be at least 2")
    params = codec_params if codec_params is not None else CodecParams.fixed(model.order)
    h = entropy_rate(model)
    sigma2 = sigma_squared(model).sigma2
    report = CLTReport(
        model_id=model_id,
        n_grid=list(n_grid),
        reps=reps,
        base_seed=base_seed,
        codec_m=params.m if params.m is not None else -1,
        entropy=h,
        sigma2=sigma2,
    )
    l = model.alphabet.size
    orders = [params.resolve_m(n, l) for n in n_grid]
    for n, m in zip(n_grid, orders):
        _check_guard(l, m, n)
    for gi, (n, m) in enumerate(zip(n_grid, orders)):
        lens, logliks = _walk_codelengths(model, n, reps, base_seed, gi * reps, m)
        dev = np.sqrt(n) * (lens / n - h)
        delta_n = n ** (-2.0 / 3.0)
        lb_events = int((lens < -logliks - n * delta_n).sum())
        ks = None
        if sigma2 > 0:
            sigma = math.sqrt(sigma2)
            centered = dev - np.median(dev)
            ks = ks_statistic(centered, lambda v: normal_cdf(v, sigma))
        offset_pred = c1_budget(l, m, n) / math.sqrt(n)
        report.cells.append(
            CLTCell(
                n=n,
                codelengths=lens,
                logliks=logliks,
                deviations=dev,
                ks=ks,
                mean=float(dev.mean()),
                std=float(dev.std(ddof=1)),
                offset_pred=offset_pred,
                lower_bound_events=lb_events,
            )
        )
    return report


# -- concentration experiment ---------------------------------------------------

BOUND_VARIANTS = ("conc1_thm", "conc1_proof", "conc2_thm", "conc2_proof")


@dataclass
class TailRow:
    t: float
    empirical: float
    wilson_lower: float
    wilson_upper: float
    bounds: dict[str, float | None]
    vacuous: dict[str, bool]
    violations: dict[str, bool]


@dataclass
class TailReport:
    model_id: str
    n: int
    reps: int
    base_seed: int
    entropy: float
    constants: ConcentrationConstants
    codelengths: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    logliks: np.ndarray = field(default_factory=lambda: np.empty(0))
    rows: list[TailRow] = field(default_factory=list)
    lower_bound_events: int = 0

    @property
    def any_violation(self) -> bool:
        return any(v for row in self.rows for v in row.violations.values())

    def samples_rows(self):
        scale = math.sqrt(self.n)
        for r in range(len(self.codelengths)):
            dev = scale * (self.codelengths[r] / self.n - self.entropy)
            yield (self.n, r, int(self.codelengths[r]), float(self.logliks[r]), float(dev))

    def summary_rows(self):
        for row in self.rows:
            yield (
                row.t,
                row.empirical,
                row.wilson_lower,
                row.wilson_upper,
                *[("" if row.bounds[k] is None else row.bounds[k]) for k in BOUND_VARIANTS],
                int(any(row.violations.values())),
            )


def run_concentration(
    model: MarkovModel,
    n: int,
    t_grid: list[float],
    reps: int,
    base_seed: int,
    eta: float = 0.1,
    k_start: int = 0,
    model_id: str = "model",
) -> TailReport:
    """Empirical deviation tails with Wilson intervals against all four bounds.

    A soundness violation (Wilson lower limit above an applicable bound) is
    flagged per grid point; rows below a bound's threshold are marked
    not-applicable rather than asserted.
    """
    if reps < 2:
        raise ValidationError("reps must be at least 2")
    consts = compute_constants(model, eta=eta, k_start=k_start)
    h = consts.h_conditional
    _check_guard(model.alphabet.size, model.order, n)
    lens, logliks = _walk_codelengths(model, n, reps, base_seed, 0, model.order)
    dev = np.abs(lens / n - h)
    delta_n = n ** (-2.0 / 3.0)
    report = TailReport(
        model_id=model_id,
        n=n,
        reps=reps,
        base_seed=base_seed,
        entropy=h,
        constants=consts,
        codelengths=lens,
        logliks=logliks,
        lower_bound_events=int((lens < -logliks - n * delta_n).sum()),
    )
    for t in t_grid:
        hits = int((dev >= t).sum())
        emp = hits / reps
        lo, hi = wilson_interval(hits, reps)
        bounds: dict[str, float | None] = {}
        vacuous: dict[str, bool] = {}
        violations: dict[str, bool] = {}
        for key in BOUND_VARIANTS:
            fn = bound_concentration1 if key.startswith("conc1") else bound_concentration2
            variant = "thm" if key.endswith("thm") else "proof"
            threshold = consts.gamma_prime(n) if key.startswith("conc1") else consts.gamma_n(n)
            if t <= threshold:
                bounds[key] = None
                vacuous[key] = False
                violations[key] = False
                continue
            val = fn(consts, n, t, variant)
            bounds[key] = val
            vacuous[key] = val >= 1.0
            violations[key] = lo > val
        report.rows.append(
            TailRow(
                t=t, empirical=emp, wilson_lower=lo, wilson_upper=hi,
                bounds=bounds, vacuous=vacuous, violations=violations,
            )
        )
    return report


# -- slow-convergence experiment -------------------------------------------------


@dataclass
class ScalingCell:
    n: int
    median_dev: float
    sqrt_n_dev: float
    deviations: np.ndarray
    codec_m: int
    tail_capped: int


@dataclass
class Example1Report:
    epsilon: float
    n_grid: list[int]
    reps: int
    base_seed: int
    tail_cap: int
    truncated_mass: float
    cells: list[ScalingCell] = field(default_factory=list)
    control_cells: list[ScalingCell] = field(default_factory=list)
    slope: float = float("nan")
    control_slope: float = float("nan")

    def summary_rows(self):
        for arm, cells in (("blockwise", self.cells), ("control", self.control_cells)):
            for c in cells:
                yield (arm, c.n, c.codec_m, c.median_dev, c.sqrt_n_dev, c.tail_capped)


def run_example1(
    epsilon: float,
    n_grid: list[int],
    reps: int,
    base_seed: int,
    tail_cap: int = 10**8,
    schedule_epsilon: float = 0.1,
) -> Example1Report:
    """Median deviation scaling of the heavy-tail block source vs an iid control.

    The block source is encoded with the growing-order schedule; the control
    (fair iid bits) is encoded at its true order 0, the regime where the
    root-n normalization is provably tight, making the contrast visible as
    sqrt(n)-scaled medians that rise for the block source and fall for the
    control.  Each deviation is measured against the 1/2-entropy target.
    """
    model = BlockwiseModel(epsilon, tail_cap)
    params = CodecParams.schedule(schedule_epsilon)
    report = Example1Report(
        epsilon=epsilon,
        n_grid=list(n_grid),
        reps=reps,
        base_seed=base_seed,
        tail_cap=tail_cap,
        truncated_mass=model.truncated_mass,
    )
    target = 0.5
    n_arms = len(n_grid)
    orders = [params.resolve_m(n, 2) for n in n_grid]
    for n, m in zip(n_grid, orders):
        _check_guard(2, m, n)  # and so the control's order-0 table too
    for gi, (n, m) in enumerate(zip(n_grid, orders)):
        rows = []
        capped = 0
        for r in range(reps):
            seq, log = sample_blockwise(model, n, derive_seed(base_seed, gi * reps + r))
            rows.append(seq.data)
            capped += log.n_tail_capped
        lens = _codelengths(np.asarray(rows), 2, m)
        dev = np.abs(lens / n - target)
        med = float(np.median(dev))
        report.cells.append(
            ScalingCell(n=n, median_dev=med, sqrt_n_dev=float(math.sqrt(n) * med),
                        deviations=dev, codec_m=m, tail_capped=capped)
        )
    control = MarkovModel.iid([0.5, 0.5], Alphabet(("0", "1")))
    control_target = entropy_rate(control)  # each arm deviates from its own rate
    for gi, n in enumerate(n_grid):
        lens, _ = _walk_codelengths(control, n, reps, base_seed, (n_arms + gi) * reps, 0)
        dev = np.abs(lens / n - control_target)
        med = float(np.median(dev))
        report.control_cells.append(
            ScalingCell(n=n, median_dev=med, sqrt_n_dev=float(math.sqrt(n) * med),
                        deviations=dev, codec_m=0, tail_capped=0)
        )
    report.slope = _fit_slope(n_grid, [c.median_dev for c in report.cells])
    report.control_slope = _fit_slope(n_grid, [c.median_dev for c in report.control_cells])
    return report


def _fit_slope(ns, medians) -> float:
    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.maximum(np.asarray(medians, dtype=float), 1e-300))
    a = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    return float(coef[0])
