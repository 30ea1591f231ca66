"""Command-line entry point wiring models, codec, analytics and experiments.

Exit codes are part of the contract: 0 success, 2 validation/corruption,
3 guard or feasibility stop, 4 soundness-violation flag from the
concentration experiment.  Experiment commands write a manifest.json with
digests of every emitted file; rerunning the same manifest reproduces the
CSV outputs byte for byte.  Config keys that no command reads any more
(``config.RETIRED_KEYS``) are dropped from an old manifest's parameters,
so its rerun still validates.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .analytics import check_clt_conditions, entropy_rate, mixing_profile, nu_delta, sigma_squared
from .coder import Bitstream, CodecParams, decode, encode, log_star
from .config import RETIRED_KEYS, validate_config
from .errors import (
    BelowThresholdError,
    CorruptError,
    EntrokitError,
    GuardExceededError,
    IndexOutOfRangeError,
    InfeasibleError,
    NonErgodicError,
    NotStableError,
    TooLargeError,
    ValidationError,
    ZeroProbabilityBlockError,
)
from .experiments import (
    empirical_entropy,
    ks_statistic,
    normal_cdf,
    run_clt,
    run_concentration,
    run_example1,
)
from .manifest import ExperimentManifest, load_manifest, sha256_file, write_csv, write_json
from .models import (
    Alphabet,
    BlockwiseModel,
    HMMModel,
    MarkovModel,
    SymbolSequence,
    conditional_law,
    load_model,
    model_from_dict,
    sample,
    sample_blockwise,
    stationary_distribution,
)
from .stability import (
    bound_concentration1,
    bound_concentration2,
    compute_constants,
    delta_coefficients,
    m_stability,
    phi_prime_matrix,
)
from .typeclass import BlockFrequencyVector, block_frequencies, rank_in_type_class, type_class_size, unrank

VALIDATION_EXIT = 2
GUARD_EXIT = 3
SOUNDNESS_EXIT = 4

_GUARD_ERRORS = (
    GuardExceededError,
    TooLargeError,
    NotStableError,
    InfeasibleError,
    BelowThresholdError,
)


# -- sequence text files -------------------------------------------------------


def _parse_alphabet(spec: str | None) -> Alphabet | None:
    if spec is None:
        return None
    return Alphabet(tuple(spec.split(",")))


def read_sequence_file(path: str, alphabet: Alphabet | None = None) -> SymbolSequence:
    """One label per line, or a compact single line of 0/1 for binary data."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh.readlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) == 1 and len(lines[0]) > 1 and set(lines[0]) <= {"0", "1"}:
        labels = list(lines[0])
    else:
        labels = lines
    if alphabet is None:
        uniq = sorted(set(labels))
        if set(uniq) <= {"0", "1"}:
            uniq = ["0", "1"]
        if len(uniq) < 2:
            raise ValidationError("sequence file: need at least 2 distinct symbols or an --alphabet")
        alphabet = Alphabet(tuple(uniq))
    return SymbolSequence.from_labels(alphabet, labels)


def format_sequence(seq: SymbolSequence) -> str:
    if set(seq.alphabet.symbols) == {"0", "1"}:
        return "".join(seq.labels()) + "\n"
    return "\n".join(seq.labels()) + "\n"


# -- command implementations -----------------------------------------------------


def _require_markov(model, command: str) -> MarkovModel:
    if not isinstance(model, MarkovModel):
        raise ValidationError(f"{command}: requires a markov model file")
    return model


def _print(args, payload: dict, plain: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)


def cmd_entropy(args) -> int:
    model = _require_markov(load_model(args.model), "entropy")
    h = entropy_rate(model)
    _print(args, {"entropy_bits_per_symbol": h}, f"{h:.6f}")
    return 0


def cmd_sigma(args) -> int:
    model = _require_markov(load_model(args.model), "sigma")
    rep = sigma_squared(model, mc_paths=args.mc_paths, mc_path_length=args.mc_length, base_seed=args.seed)
    payload = {
        "sigma2_bits2": rep.sigma2,
        "variance_term": rep.variance_term,
        "covariance_sum": rep.covariance_sum,
        "mc_estimate": rep.mc_estimate,
        "mc_stderr": rep.mc_stderr,
    }
    _print(args, payload, f"{rep.sigma2:.6f}")
    return 0


def cmd_mixing(args) -> int:
    model = _require_markov(load_model(args.model), "mixing")
    prof = mixing_profile(model, max_gap=args.max_gap, depth=args.depth, delta=args.delta,
                          model_id=os.path.basename(args.model))
    write_json(args.out, prof.to_dict())
    print(f"wrote {args.out} (phi(1) = {prof.phi[1]:.6g}, geometric ratio = {prof.geometric_ratio})")
    return 0


def cmd_stability(args) -> int:
    model = _require_markov(load_model(args.model), "stability")
    consts = compute_constants(model, eta=args.eta, k_start=args.k_start)
    n_grid = tuple(_parse_list(args.n_grid, "--n-grid", int)) if args.n_grid else ()
    if any(v < 1 for v in n_grid):
        raise ValidationError("--n-grid: entries must be integers >= 1")
    write_json(args.out, consts.to_dict(n_grid))
    print(f"wrote {args.out} (M = {consts.m_exact:.6g}, bound = {consts.m_bound:.6g})")
    return 0


def cmd_conditions(args) -> int:
    model = load_model(args.model)
    rep = check_clt_conditions(model, delta=args.delta, beta=args.beta)
    payload = rep.to_dict()
    plain = (
        f"model type: {rep.model_type}\n"
        f"alpha condition: {rep.alpha_satisfied} (exponent {rep.alpha_exponent:.4g}, K = {rep.fitted_k})\n"
        f"nu condition: {rep.nu_satisfied}\n" + "\n".join(rep.notes)
    )
    _print(args, payload, plain)
    return 0


def cmd_encode(args) -> int:
    seq = read_sequence_file(args.infile, _parse_alphabet(args.alphabet))
    params = CodecParams.fixed(args.m) if args.m is not None else CodecParams.schedule(args.schedule_eps)
    bits = encode(seq, params)
    with open(args.out, "wb") as fh:
        fh.write(bits.to_bytes())
    print(f"wrote {args.out}: {len(bits)} bits for {len(seq)} symbols")
    return 0


def cmd_decode(args) -> int:
    with open(args.infile, "rb") as fh:
        bits = Bitstream.from_bytes(fh.read())
    seq = decode(bits, _parse_alphabet(args.alphabet))
    text = format_sequence(seq)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.out}: {len(seq)} symbols")
    else:
        sys.stdout.write(text)
    return 0


def _parse_list(text: str, flag: str, kind) -> list:
    """The comma-separated numbers of a list flag, each converted by ``kind``."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag}: expected comma-separated numbers, got {text!r}") from None


def _merged_config(args, required: tuple[str, ...] = ()) -> dict:
    cfg = validate_config(args.config) if args.config else validate_config({})
    if args.seed is not None:
        if args.seed < 0:
            raise ValidationError("config.seed: must be at least 0")
        cfg["seed"] = args.seed
    if getattr(args, "reps", None) is not None:
        cfg["reps"] = args.reps
    if getattr(args, "n", None) is not None:
        cfg["n"] = args.n
    if getattr(args, "t_grid", None):
        cfg["t_grid"] = _parse_list(args.t_grid, "--t-grid", float)
    if getattr(args, "eta", None) is not None:
        cfg["eta"] = args.eta
    cfg = validate_config({k: v for k, v in cfg.items() if v is not None or k == "codec_m"})
    for key in required:
        if cfg.get(key) is None:
            raise ValidationError(f"config.{key}: required for this command")
    return cfg


def _start_manifest(command: str, cfg: dict, model_doc: dict | None, model_file: str | None) -> ExperimentManifest:
    man = ExperimentManifest(
        command=command,
        params=cfg,
        base_seed=cfg["seed"],
        model=model_doc,
        model_file=model_file,
        model_digest=sha256_file(model_file) if model_file else None,
    )
    man.start()
    return man


def _emit(out_dir: str, man: ExperimentManifest, csvs: dict[str, tuple[list[str], object]], results: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, (header, rows) in csvs.items():
        path = os.path.join(out_dir, name)
        write_csv(path, header, rows)
        man.add_output(path)
    rpath = os.path.join(out_dir, "results.json")
    write_json(rpath, results)
    man.add_output(rpath)
    man.finish()
    man.write(out_dir)


def _run_clt_command(model_doc: dict, model_file: str | None, cfg: dict, out_dir: str) -> int:
    model = _require_markov(model_from_dict(model_doc), "clt")
    if cfg["codec_m"] == "schedule":
        params = CodecParams.schedule(cfg["schedule_epsilon"])
    elif cfg["codec_m"] is not None:
        params = CodecParams.fixed(cfg["codec_m"])
    else:
        params = None  # default: codec order = model order
    man = _start_manifest("clt", cfg, model_doc, model_file)
    rep = run_clt(model, cfg["n_grid"], cfg["reps"], cfg["seed"], codec_params=params, model_id=cfg["model_id"])
    results = {
        "entropy": rep.entropy,
        "sigma2": rep.sigma2,
        "codec_m": rep.codec_m,
        "ks": {str(c.n): c.ks for c in rep.cells},
        "mean_deviation": {str(c.n): c.mean for c in rep.cells},
        "std_deviation": {str(c.n): c.std for c in rep.cells},
        "offset_pred": {str(c.n): c.offset_pred for c in rep.cells},
        "lower_bound_events": {str(c.n): c.lower_bound_events for c in rep.cells},
    }
    _emit(out_dir, man, {
        "samples.csv": (["n", "replicate", "codelength", "loglik", "D"], rep.samples_rows()),
        "summary.csv": (["n", "ks", "mean", "std", "offset_pred", "lower_bound_events"], rep.summary_rows()),
    }, results)
    print(f"clt: wrote {out_dir} (ks = {[c.ks for c in rep.cells]})")
    return 0


def cmd_clt(args) -> int:
    cfg = _merged_config(args, required=("n_grid",))
    model = load_model(args.model)
    return _run_clt_command(model.to_dict(), args.model, cfg, args.out)


def _run_concentration_command(model_doc: dict, model_file: str | None, cfg: dict, out_dir: str) -> int:
    model = _require_markov(model_from_dict(model_doc), "concentration")
    man = _start_manifest("concentration", cfg, model_doc, model_file)
    rep = run_concentration(
        model, cfg["n"], cfg["t_grid"], cfg["reps"], cfg["seed"],
        eta=cfg["eta"], k_start=cfg["k_start"], model_id=cfg["model_id"],
    )
    dev_header = ["t", "empirical", "wilson_lower", "wilson_upper",
                  "conc1_thm", "conc1_proof", "conc2_thm", "conc2_proof", "violation"]
    results = {
        "constants": rep.constants.to_dict((cfg["n"],)),
        "entropy": rep.entropy,
        "n": rep.n,
        "any_violation": rep.any_violation,
        "lower_bound_events": rep.lower_bound_events,
        "vacuous": {row.t: row.vacuous for row in rep.rows},
    }
    _emit(out_dir, man, {
        "samples.csv": (["n", "replicate", "codelength", "loglik", "D"], rep.samples_rows()),
        "summary.csv": (dev_header, rep.summary_rows()),
    }, results)
    print(f"concentration: wrote {out_dir} (violation = {rep.any_violation})")
    return SOUNDNESS_EXIT if rep.any_violation else 0


def cmd_concentration(args) -> int:
    cfg = _merged_config(args, required=("n", "t_grid"))
    model = load_model(args.model)
    return _run_concentration_command(model.to_dict(), args.model, cfg, args.out)


def _run_example1_command(cfg: dict, out_dir: str) -> int:
    eps = cfg.get("epsilon") if cfg.get("epsilon") is not None else 0.1
    man = _start_manifest("example1", cfg, {"type": "blockwise", "epsilon": eps, "tail_cap": cfg["tail_cap"]}, None)
    rep = run_example1(
        eps, cfg["n_grid"], cfg["reps"], cfg["seed"],
        tail_cap=cfg["tail_cap"], schedule_epsilon=cfg["schedule_epsilon"],
    )
    def sample_rows():
        for cell in rep.cells:
            for r, d in enumerate(cell.deviations):
                yield (cell.n, r, "", "", float(d))
    results = {
        "epsilon": eps,
        "slope": rep.slope,
        "control_slope": rep.control_slope,
        "sqrt_n_dev": {str(c.n): c.sqrt_n_dev for c in rep.cells},
        "control_sqrt_n_dev": {str(c.n): c.sqrt_n_dev for c in rep.control_cells},
        "truncated_mass": rep.truncated_mass,
        "tail_capped_draws": {str(c.n): c.tail_capped for c in rep.cells},
    }
    _emit(out_dir, man, {
        "samples.csv": (["n", "replicate", "codelength", "loglik", "D"], sample_rows()),
        "summary.csv": (["arm", "n", "codec_m", "median_dev", "sqrt_n_dev", "tail_capped"], rep.summary_rows()),
    }, results)
    print(f"example1: wrote {out_dir} (slope = {rep.slope:.4f}, control slope = {rep.control_slope:.4f})")
    return 0


def cmd_example1(args) -> int:
    cfg = _merged_config(args, required=("n_grid",))
    return _run_example1_command(cfg, args.out)


def cmd_rerun(args) -> int:
    doc = load_manifest(args.manifest)
    command = doc["command"]
    cfg = validate_config({k: v for k, v in doc["params"].items() if v is not None and k not in RETIRED_KEYS})
    if command == "clt":
        return _run_clt_command(doc["model"], None, cfg, args.out)
    if command == "concentration":
        return _run_concentration_command(doc["model"], None, cfg, args.out)
    if command == "example1":
        return _run_example1_command(cfg, args.out)
    raise ValidationError(f"manifest command {command!r} is not rerunnable")


# -- selftest -------------------------------------------------------------------


def _selftest_checks():
    a2 = Alphabet(("0", "1"))
    sym = MarkovModel(a2, 1, np.array([[0.9, 0.1], [0.1, 0.9]]))
    uni = MarkovModel.iid([0.5, 0.5], a2)
    bern = MarkovModel.iid([0.75, 0.25], a2)
    seq01001 = SymbolSequence(a2, np.array([0, 1, 0, 0, 1]))

    def check_stationary():
        pi = stationary_distribution(sym)
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    def check_reducible():
        try:
            MarkovModel(a2, 1, np.array([[1.0, 0.0], [0.0, 1.0]]))
        except NonErgodicError:
            return
        raise AssertionError("reducible chain accepted")

    def check_empty_sample():
        assert len(sample(uni, 0, seed=1)) == 0

    def check_hmm_empty_sample():
        obs, hidden = sample(HMMModel(np.full((2, 2), 0.5), np.array([[0.9, 0.1], [0.2, 0.8]])), 0, seed=1)
        assert len(obs) == 0 and hidden.size == 0

    def check_conditional():
        row = conditional_law(sym, (0,))
        assert np.allclose(row, [0.9, 0.1])
        try:
            conditional_law(sym, (0, 1))
        except EntrokitError:
            return
        raise AssertionError("BadContext not raised")

    def check_entropy():
        assert abs(entropy_rate(uni) - 1.0) < 1e-12
        cyc = MarkovModel(a2, 1, np.array([[0.0, 1.0], [1.0, 0.0]]), ergodic=False)
        assert abs(entropy_rate(cyc)) < 1e-12

    def check_sigma_zero():
        assert sigma_squared(uni).sigma2 == 0.0

    def check_phi_iid():
        from .analytics import phi_mixing
        assert phi_mixing(uni, 0) == 0.0 and phi_mixing(uni, 3) == 0.0

    def check_alpha_iid():
        from .analytics import alpha_mixing_bounds
        lo, up = alpha_mixing_bounds(uni, 1, 2)
        assert lo <= 1e-15 and up <= 1e-15

    def check_nu():
        assert nu_delta(sym, 1, 0.5).value == 0.0
        assert nu_delta(uni, 0, 0.5).value == 0.0

    def check_log_star():
        assert log_star(1) == 0 and log_star(2) == 1 and log_star(16) == 3

    def check_histogram():
        desc = block_frequencies(seq01001, 0)
        assert desc.counts == (3, 2)
        boundary = block_frequencies(SymbolSequence(a2, np.array([0, 1])), 2)
        assert sum(boundary.counts) == 0

    def check_type_class():
        zeros = SymbolSequence(a2, np.zeros(100, dtype=np.int64))
        assert type_class_size(block_frequencies(zeros, 1)) == 1
        bad = BlockFrequencyVector(a2, 1, (0,), (0, 0, 0, 2), 3)
        assert type_class_size(bad) == 0

    def check_rank_roundtrip():
        desc = block_frequencies(seq01001, 1)
        assert type_class_size(desc) == 2
        r = rank_in_type_class(seq01001, 1)
        assert r == 1
        assert np.array_equal(unrank(desc, r).data, seq01001.data)

    def check_codec_roundtrip():
        bits = encode(seq01001, CodecParams.fixed(1))
        out = decode(bits, a2)
        assert np.array_equal(out.data, seq01001.data)

    def check_sparse_codec_roundtrip():
        # at m = 6 most contexts of 64 fair-coin symbols carry one block
        from .coder import codelength
        seq = sample(uni, 64, seed=6)
        bits = encode(seq, CodecParams.fixed(6))
        assert np.array_equal(decode(bits, a2).data, seq.data)
        assert len(bits) == codelength(seq, CodecParams.fixed(6))

    def check_zero_probability_block():
        from .coder import paper_upper_bound
        det = MarkovModel(a2, 1, np.array([[0.0, 1.0], [1.0, 0.0]]), ergodic=False)
        try:
            paper_upper_bound(seq01001, CodecParams.fixed(1), det)
        except ZeroProbabilityBlockError:
            return
        raise AssertionError("ZeroProbabilityBlock not raised")

    def check_not_stable():
        half = MarkovModel(a2, 1, np.array([[0.5, 0.5], [1.0, 0.0]]))
        try:
            m_stability(half)
        except NotStableError:
            return
        raise AssertionError("NotStable not raised")

    def check_deltas():
        dc = delta_coefficients(uni)
        assert dc.as_pair() == (1.0, 1.0)
        rows, dn = phi_prime_matrix(uni, 16)
        assert dn == 1.0
        assert dn <= delta_coefficients(sym).delta_proof

    def check_slow_chain_certified():
        # phi(k) ~ 0.9985**k: the sum needs the certified tail at the term cap
        slow = MarkovModel(a2, 1, np.array([[0.9995, 0.0005], [0.001, 0.999]]))
        dc = delta_coefficients(slow)
        assert 0.0 < dc.tail < float("inf")
        assert 444.4444444444768 <= dc.sum_phi_from_0 <= 444.4444444444768 * (1 + 1e-6)

    def check_bound_gate():
        consts = compute_constants(sym)
        try:
            bound_concentration2(consts, 100, 1e-9)
        except BelowThresholdError:
            pass
        else:
            raise AssertionError("threshold gate missing")
        big_t = bound_concentration2(consts, 4096, 50.0)
        floor = 4096 * consts.zeta(4096) * 2.0 ** (-(4096 ** 0.4))
        assert big_t >= floor > 0.0
        assert bound_concentration1(consts, 4096, 0.5) >= bound_concentration1(consts, 4096, 0.9)

    def check_ks():
        assert ks_statistic(np.zeros(10), lambda v: normal_cdf(v)) == 0.5
        xs = np.arange(10.0)
        ecdf = lambda v: float((xs <= v).mean())
        assert ks_statistic(xs, ecdf) == 0.0

    def check_empirical_entropy():
        const = SymbolSequence(a2, np.zeros(32, dtype=np.int64))
        assert empirical_entropy(const, 1) == 0.0

    def check_blockwise_empty():
        bw = BlockwiseModel(0.1, 10**6)
        seq, log = sample_blockwise(bw, 0, seed=1)
        assert len(seq) == 0 and log.starts == []

    def check_config():
        cfg = validate_config({})
        assert cfg["eta"] == 0.1 and cfg["k_start"] == 0 and not set(cfg) & set(RETIRED_KEYS)
        for bad, frag in (({"seed": -1}, "seed"), ({"epsilon": 0.2}, "epsilon must lie in (0, 1/6)"), ({"bogus": 1}, "unknown"),
                          ({"tol": 1e-14}, "unknown")):
            try:
                validate_config(bad)
            except ValidationError as exc:
                assert frag in str(exc), (bad, str(exc))
            else:
                raise AssertionError(f"config {bad} accepted")

    return [
        ("stationary law of the symmetric chain", check_stationary),
        ("reducible chain rejected", check_reducible),
        ("empty sample", check_empty_sample),
        ("HMM empty sample", check_hmm_empty_sample),
        ("conditional law read-back and BadContext", check_conditional),
        ("entropy rate closed forms", check_entropy),
        ("uniform iid variance is zero", check_sigma_zero),
        ("phi vanishes for iid", check_phi_iid),
        ("alpha interval for iid", check_alpha_iid),
        ("nu_delta zero beyond the order", check_nu),
        ("log_star values", check_log_star),
        ("block histogram and boundary", check_histogram),
        ("type-class size extremes", check_type_class),
        ("rank/unrank on the worked example", check_rank_roundtrip),
        ("codec round trip", check_codec_roundtrip),
        ("sparse high-order codec round trip", check_sparse_codec_roundtrip),
        ("zero-probability block is typed", check_zero_probability_block),
        ("zero row is not stable", check_not_stable),
        ("mixing inflation constants", check_deltas),
        ("slow chain gets a certified phi sum", check_slow_chain_certified),
        ("bound threshold gate and floor", check_bound_gate),
        ("KS edge cases", check_ks),
        ("empirical entropy of a constant", check_empirical_entropy),
        ("blockwise empty sample", check_blockwise_empty),
        ("config defaults and rejections", check_config),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for name, fn in _selftest_checks():
        try:
            fn()
            print(f"ok - {name}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL - {name}: {exc}")
    if failures:
        print(f"{failures} selftest check(s) failed")
        return 1
    print("selftest passed")
    return 0


# -- parser ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Every default is immutable and ``parse_args`` returns a fresh namespace,
    so one parser serves every ``dispatch``. An argparse parser is a web of
    reference cycles, which a parser per call left for the collector.
    """
    parser = argparse.ArgumentParser(prog="entrokit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"entrokit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True, config=True):
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        if config:
            p.add_argument("--config", help="experiment config JSON file")
            p.add_argument("--out", required=True, help="output directory")
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--reps", type=int, default=None)
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--t-grid", dest="t_grid", default=None, help="comma-separated thresholds")
            p.add_argument("--eta", type=float, default=None)

    p = sub.add_parser("encode", help="encode a sequence file into a codeword")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--m", type=int, default=None, help="fixed block order (default: schedule)")
    p.add_argument("--schedule-eps", type=float, default=0.1)
    p.add_argument("--alphabet", help="comma-separated symbol labels")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a codeword file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--alphabet", help="comma-separated symbol labels")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("entropy", help="entropy rate of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("sigma", help="asymptotic variance of the log-likelihood")
    p.add_argument("--model", required=True)
    p.add_argument("--mc-paths", type=int, default=0)
    p.add_argument("--mc-length", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("mixing", help="phi/alpha/nu mixing profile")
    p.add_argument("--model", required=True)
    p.add_argument("--max-gap", type=int, default=32)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mixing)

    p = sub.add_parser("stability", help="stability coefficient and bound constants")
    p.add_argument("--model", required=True)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--k-start", type=int, default=0, choices=(0, 1))
    p.add_argument("--n-grid", default="", help="comma-separated n values for the per-n table")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("conditions", help="CLT mixing/moment condition check")
    p.add_argument("--model", required=True)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=1.5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("clt", help="normalized-deviation CLT experiment")
    add_common(p)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("concentration", help="tail bounds against empirical tails")
    add_common(p)
    p.set_defaults(func=cmd_concentration)

    p = sub.add_parser("example1", help="heavy-tail block source scaling experiment")
    add_common(p, model=False)
    p.set_defaults(func=cmd_example1)

    p = sub.add_parser("rerun", help="re-execute an experiment from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rerun)

    p = sub.add_parser("selftest", help="run the built-in example checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else VALIDATION_EXIT
    try:
        return args.func(args)
    except _GUARD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return GUARD_EXIT
    except (ValidationError, CorruptError, IndexOutOfRangeError, ZeroProbabilityBlockError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except EntrokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
