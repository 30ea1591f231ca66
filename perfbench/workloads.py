"""The benchmark's workloads: inputs from a seed, one round of fixed work, checks.

A workload is built from a seed (inputs and models only), runs the same
fixed work on every ``run_round`` call, and ``check``s a round's outputs
against values computed apart from the program or against properties the
method must have.  ``same`` compares a later round's outputs with the first
round's, since every round repeats the same work on the same inputs.

Every call into entrokit goes through its module attribute (``coder.encode``
rather than a name bound here), so the tracer's wrappers see it.

``tiny=True`` shrinks every input so the benchmark's tests can run each
workload to its end in seconds.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from entrokit import analytics, cli, coder, experiments, models, seeding

import oracle

BINARY = ("0", "1")
# alphabet labels, order, one transition row per context (oldest symbol most significant)
MODELS = {
    "bern25": (BINARY, 0, ((0.75, 0.25),)),
    "sym": (BINARY, 1, ((0.9, 0.1), (0.1, 0.9))),
    "ternary": (("a", "b", "c"), 1, ((0.6, 0.3, 0.1), (0.2, 0.5, 0.3), (0.25, 0.25, 0.5))),
    "order2": (BINARY, 2, ((0.8, 0.2), (0.4, 0.6), (0.3, 0.7), (0.1, 0.9))),
    "fair": (BINARY, 0, ((0.5, 0.5),)),
}
BERN25_SIGMA2 = 0.25 * 0.75 * math.log2(3.0) ** 2
SIGMA_STDERRS = 4.0


def build_model(key: str) -> models.MarkovModel:
    labels, order, rows = MODELS[key]
    return models.MarkovModel(models.Alphabet(labels), order, np.array(rows, dtype=float))


@dataclass
class Round:
    """One round's outputs and wall time per operation; an output is None where it failed.

    ``calibrate``, when given, runs after every operation and its times are
    kept in ``calibrations``: the runner scales each operation's time by the
    host's speed around it.
    """

    calibrate: Callable[[], float] | None = None
    outputs: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    failed: int = 0

    def attempt(self, fn, *args):
        """Run one operation; a failure is counted and reported on stderr, and the round goes on."""
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # noqa: BLE001 - an operation that raises is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            out = None
            self.failed += 1
        self.seconds.append(time.perf_counter() - t0)
        self.outputs.append(out)
        if self.calibrate is not None:
            self.calibrations.append(self.calibrate())
        return out


class CodecRoundtrip:
    """encode -> to_bytes -> from_bytes -> decode over a pinned set of sequences.

    Long low-order sequences make the index field thousands of bits, so each
    rank/unrank step is big-integer work; short high-order sequences make
    the Laplacian minor and its adjugate dominate.  Lengths and orders are
    fixed; the seed draws the symbols, a stream per case.  The decoder's time
    on a short sequence depends on the sequence, so the short cases are many
    and small, and come from a fair coin, which visits most contexts
    whatever the seed: drawn from the persistent chains, the number of
    contexts and with it the decoder's time varied up to fourfold between
    seeds.
    """

    name = "codec_roundtrip"
    # (generating model, codec order m, n)
    FULL = (
        ("bern25", 0, 1 << 15),
        ("sym", 1, 1 << 14),
        ("ternary", 1, 1 << 13),
        ("order2", 2, 1 << 13),
        *[("fair", 5, 128)] * 2,
        *[("fair", 6, 64)] * 3,
        *[("fair", 7, 24)] * 3,
    )
    TINY = (("bern25", 0, 300), ("ternary", 1, 200), ("order2", 2, 150), ("sym", 5, 40))

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        self.models = {key: build_model(key) for key in MODELS}
        self.cases = []
        for i, (key, m, n) in enumerate(self.TINY if tiny else self.FULL):
            labels, order, rows = MODELS[key]
            data = oracle.markov_walk(rows, order, n, np.random.default_rng([seed, i]))
            seq = models.SymbolSequence(self.models[key].alphabet, data)
            self.cases.append((key, coder.CodecParams.fixed(m), seq))

    def ops(self) -> int:
        return len(self.cases)

    @staticmethod
    def _roundtrip(params, seq):
        bits = coder.encode(seq, params)
        raw = bits.to_bytes()
        decoded = coder.decode(coder.Bitstream.from_bytes(raw), seq.alphabet)
        return len(bits), raw, decoded.data

    def run_round(self, index: int, calibrate=None) -> Round:
        rnd = Round(calibrate)
        for _, params, seq in self.cases:
            rnd.attempt(self._roundtrip, params, seq)
        return rnd

    def check(self, rnd: Round) -> list[str]:
        errors = []
        for (key, params, seq), out in zip(self.cases, rnd.outputs):
            if out is None:
                continue
            n_bits, raw, decoded = out
            l, m, n = seq.alphabet.size, params.m, len(seq)
            case = f"{key} l={l} m={m} n={n}"
            if not np.array_equal(decoded, seq.data):
                errors.append(f"{case}: decode(encode(x)) != x")
            if len(raw) != (n_bits + 3 + 7) // 8:
                errors.append(f"{case}: {len(raw)} bytes for a {n_bits}-bit codeword")
            expected_len = coder.codelength(seq, params)
            if n_bits != expected_len:
                errors.append(f"{case}: len(encode(x)) = {n_bits} but codelength(x) = {expected_len}")
            want = oracle.expected_index_bits(oracle.log2_type_class_size(seq.data, l, m))
            index_bits = n_bits - oracle.header_bits(l, m, n)
            if want is not None and index_bits != want:
                errors.append(f"{case}: index field of {index_bits} bits, ceil(log2 |T|) = {want}")
            bound = coder.paper_upper_bound(seq, params, self.models[key])
            if expected_len > bound:
                errors.append(f"{case}: codelength {expected_len} above the paper bound {bound}")
        return errors

    @staticmethod
    def same(a: Round, b: Round) -> bool:
        return [o and o[1] for o in a.outputs] == [o and o[1] for o in b.outputs]


class CltExperiment:
    """The clt and concentration commands run in-process through cli.dispatch."""

    name = "clt_experiment"
    T_GRID = [0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0]
    # (command, model, config without its seed)
    FULL = (
        ("clt", "bern25", {"n_grid": [1 << 10, 1 << 12, 1 << 14], "reps": 60}),
        ("clt", "sym", {"n_grid": [1 << 10, 1 << 12, 1 << 13], "reps": 60}),
        ("concentration", "sym", {"n": 1 << 12, "reps": 300, "t_grid": T_GRID}),
    )
    TINY = (
        ("clt", "bern25", {"n_grid": [64, 128], "reps": 6}),
        ("clt", "sym", {"n_grid": [64], "reps": 4}),
        ("concentration", "sym", {"n": 128, "reps": 20, "t_grid": T_GRID}),
    )
    OUTPUTS = ("samples.csv", "summary.csv", "results.json")
    PINNED_REPLICATES = (0, -1)

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        self.workdir = workdir
        self.models = {}
        self.commands = []
        for i, (command, key, cfg) in enumerate(self.TINY if tiny else self.FULL):
            model = self.models.setdefault(key, build_model(key))
            model_path = os.path.join(workdir, f"{key}.json")
            cfg_path = os.path.join(workdir, f"{command}-{key}.json")
            cfg = dict(cfg, seed=seed * 10 + i)
            for path, doc in ((model_path, model.to_dict()), (cfg_path, cfg)):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            self.commands.append((command, key, cfg, model_path, cfg_path))

    def ops(self) -> int:
        return len(self.commands)

    @staticmethod
    def _dispatch(argv: list[str], out_dir: str) -> str:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.dispatch(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)}: exit code {code}")
        return out_dir

    def run_round(self, index: int, calibrate=None) -> Round:
        rnd = Round(calibrate)
        for command, key, _, model_path, cfg_path in self.commands:
            out_dir = os.path.join(self.workdir, f"round{index}", f"{command}-{key}")
            argv = [command, "--model", model_path, "--config", cfg_path, "--out", out_dir]
            rnd.attempt(self._dispatch, argv, out_dir)
        return rnd

    def output_bytes(self, rnd: Round) -> int:
        return sum(os.path.getsize(os.path.join(d, f)) for d in rnd.outputs if d for f in self.OUTPUTS)

    def check(self, rnd: Round) -> list[str]:
        errors = []
        for (command, key, cfg, _, _), out_dir in zip(self.commands, rnd.outputs):
            if out_dir is None:
                continue
            with open(os.path.join(out_dir, "results.json"), encoding="utf-8") as fh:
                results = json.load(fh)
            with open(os.path.join(out_dir, "samples.csv"), encoding="utf-8", newline="") as fh:
                rows = [(int(r["n"]), int(r["replicate"]), int(r["codelength"])) for r in csv.DictReader(fh)]
            errors += self._check_codelengths(f"{command} {key}", self.models[key], cfg, rows)
            if command == "clt" and key == "bern25" and abs(results["sigma2"] - BERN25_SIGMA2) > 1e-9:
                errors.append(f"clt bern25: sigma2 {results['sigma2']!r}, closed form {BERN25_SIGMA2!r}")
            if command == "concentration" and results["any_violation"]:
                errors.append(f"concentration {key}: a soundness violation was flagged")
        return errors

    def _check_codelengths(self, label: str, model, cfg: dict, rows) -> list[str]:
        """Reported codelengths against regenerated replicates: bound and real codewords."""
        errors = []
        reps, seed = cfg["reps"], cfg["seed"]
        grid = cfg.get("n_grid") or [cfg["n"]]
        if len(rows) != reps * len(grid):
            return [f"{label}: {len(rows)} sample rows, expected {reps * len(grid)}"]
        params = coder.CodecParams.fixed(model.order)
        for gi, n in enumerate(grid):
            lengths = {r: length for rn, r, length in rows if rn == n}
            if sorted(lengths) != list(range(reps)):
                errors.append(f"{label}: replicates of n = {n} are not 0..{reps - 1}")
                continue
            paths = models.sample_paths(model, n, reps, seed, index_offset=gi * reps)
            for r, path in enumerate(paths):
                bound = coder.paper_upper_bound(models.SymbolSequence(model.alphabet, path), params, model)
                if lengths[r] > bound:
                    errors.append(f"{label}: n = {n} replicate {r} codelength {lengths[r]} above bound {bound}")
            for r in sorted({p % reps for p in self.PINNED_REPLICATES}):
                alone = models.sample_paths(model, n, 1, seed, index_offset=gi * reps + r)[0]
                if not np.array_equal(alone, paths[r]):
                    errors.append(f"{label}: n = {n} replicate {r} differs when sampled alone")
                n_bits = len(coder.encode(models.SymbolSequence(model.alphabet, alone), params))
                if n_bits != lengths[r]:
                    errors.append(f"{label}: n = {n} replicate {r} reported {lengths[r]} bits, codeword has {n_bits}")
        return errors

    def same(self, a: Round, b: Round) -> bool:
        def contents(rnd):
            out = []
            for d in rnd.outputs:
                for f in self.OUTPUTS if d else ():
                    with open(os.path.join(d, f), "rb") as fh:
                        out.append(fh.read())
            return out

        return contents(a) == contents(b)


class Example1Scaling:
    """run_example1: the heavy-tail block source and its iid control, scheduled order.

    ``tail_cap`` is 2**20, 32 times the largest n: with the default 10**8 the
    sampler materializes whole capped blocks (see the README), which makes
    run time and peak memory swing with the seed.
    """

    name = "example1_scaling"
    FULL = {"epsilon": 0.1, "n_grid": [1 << 11, 1 << 13, 1 << 15], "reps": 16, "tail_cap": 1 << 20}
    TINY = {"epsilon": 0.1, "n_grid": [1 << 8, 1 << 10, 1 << 12], "reps": 16, "tail_cap": 1 << 16}
    SCHEDULE_EPSILON = 0.1
    PINNED_REPLICATES = (0, 1)
    CONTROL_FROM_N = 1 << 12

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        self.cfg = dict(self.TINY if tiny else self.FULL, seed=seed)
        self.block_model = models.BlockwiseModel(self.cfg["epsilon"], self.cfg["tail_cap"])
        self.control = models.MarkovModel.iid([0.5, 0.5], models.Alphabet(BINARY))

    def ops(self) -> int:
        return 1

    def run_round(self, index: int, calibrate=None) -> Round:
        c = self.cfg
        rnd = Round(calibrate)
        rnd.attempt(
            lambda: experiments.run_example1(
                c["epsilon"], c["n_grid"], c["reps"], c["seed"],
                tail_cap=c["tail_cap"], schedule_epsilon=self.SCHEDULE_EPSILON,
            )
        )
        return rnd

    def check(self, rnd: Round) -> list[str]:
        report = rnd.outputs[0]
        if report is None:
            return []
        errors = []
        block = [c.sqrt_n_dev for c in report.cells]
        rise = np.polyfit(np.log([c.n for c in report.cells]), np.log(block), 1)[0]
        if not rise > 0.0:
            errors.append(f"block source sqrt(n)-scaled medians do not rise over n: {block}, log-log slope {rise!r}")
        control = [c.sqrt_n_dev for c in report.control_cells if c.n >= self.CONTROL_FROM_N]
        if any(b > a for a, b in zip(control, control[1:])):
            errors.append(f"control sqrt(n)-scaled medians increase beyond n = {self.CONTROL_FROM_N}: {control}")
        reps, seed, n_arms = self.cfg["reps"], self.cfg["seed"], len(self.cfg["n_grid"])
        control_target = analytics.entropy_rate(self.control)
        for gi, (cell, ctrl) in enumerate(zip(report.cells, report.control_cells)):
            for r in self.PINNED_REPLICATES:
                seq, _ = models.sample_blockwise(self.block_model, cell.n, seeding.derive_seed(seed, gi * reps + r))
                params = coder.CodecParams.schedule(self.SCHEDULE_EPSILON)
                errors += self._check_replicate(f"block n = {cell.n} replicate {r}", seq, params, cell, r, 0.5)
                path = models.sample_paths(self.control, ctrl.n, 1, seed, index_offset=(n_arms + gi) * reps + r)[0]
                seq = models.SymbolSequence(self.control.alphabet, path)
                params = coder.CodecParams.fixed(0)
                errors += self._check_replicate(f"control n = {ctrl.n} replicate {r}", seq, params, ctrl, r, control_target)
        return errors

    @staticmethod
    def _check_replicate(label, seq, params, cell, r, target) -> list[str]:
        """The reported deviation is that of a codelength whose index field is ceil(log2 |T|)."""
        n, m = len(seq), cell.codec_m
        length = coder.codelength(seq, params)
        errors = []
        if abs(length / n - target) != cell.deviations[r]:
            errors.append(f"{label}: reported deviation {cell.deviations[r]!r}, codelength {length} gives "
                          f"{abs(length / n - target)!r}")
        want = oracle.expected_index_bits(oracle.log2_type_class_size(seq.data, 2, m))
        index_bits = length - oracle.header_bits(2, m, n)
        if want is not None and index_bits != want:
            errors.append(f"{label}: index field of {index_bits} bits, ceil(log2 |T|) = {want}")
        return errors

    @staticmethod
    def same(a: Round, b: Round) -> bool:
        rows = lambda rnd: rnd.outputs[0] and list(rnd.outputs[0].summary_rows())  # noqa: E731
        return rows(a) == rows(b)


class SigmaOracle:
    """sigma_squared with its Monte Carlo long-run-variance oracle on three chains."""

    name = "sigma_oracle"
    MODEL_KEYS = ("sym", "ternary", "order2")
    FULL = {"paths": 400, "length": 10_000}
    TINY = {"paths": 200, "length": 400}

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        self.size = self.TINY if tiny else self.FULL
        self.runs = [(key, build_model(key), seed * 10 + i) for i, key in enumerate(self.MODEL_KEYS)]

    def ops(self) -> int:
        return len(self.runs)

    def run_round(self, index: int, calibrate=None) -> Round:
        rnd = Round(calibrate)
        for _, model, base_seed in self.runs:
            rnd.attempt(
                lambda: analytics.sigma_squared(
                    model, mc_paths=self.size["paths"], mc_path_length=self.size["length"], base_seed=base_seed
                )
            )
        return rnd

    def check(self, rnd: Round) -> list[str]:
        """The series lies within SIGMA_STDERRS standard errors of the oracle.

        The standard error is that of a sample variance of mc_paths normal
        path sums whose variance is the series value, sigma2 * sqrt(2 / (R - 1)).
        The program's own stderr scales the estimate instead, which makes a
        low estimate look further off than it is.
        """
        errors = []
        for (key, _, _), rep in zip(self.runs, rnd.outputs):
            if rep is None:
                continue
            stderr = rep.sigma2 * math.sqrt(2.0 / (rep.mc_paths - 1))
            if abs(rep.sigma2 - rep.mc_estimate) > SIGMA_STDERRS * stderr:
                errors.append(f"{key}: series sigma2 {rep.sigma2!r} is more than {SIGMA_STDERRS} standard "
                              f"errors ({stderr!r}) from the oracle {rep.mc_estimate!r}")
        return errors

    @staticmethod
    def same(a: Round, b: Round) -> bool:
        values = lambda rnd: [o and (o.sigma2, o.mc_estimate) for o in rnd.outputs]  # noqa: E731
        return values(a) == values(b)


WORKLOADS = {w.name: w for w in (CodecRoundtrip, CltExperiment, Example1Scaling, SigmaOracle)}
