"""Tests of the benchmark itself: tiny workloads run to their end, checks catch corruption.

Run from the repository root with
    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from entrokit import coder, models, typeclass  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 3


def tiny(name: str, tmp_path) -> tuple[object, workloads.Round]:
    w = workloads.WORKLOADS[name](SEED, str(tmp_path), tiny=True)
    return w, w.run_round(0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_and_passes_its_checks(name, tmp_path):
    w, first = tiny(name, tmp_path)
    second = w.run_round(1)
    assert first.failed == 0 and second.failed == 0
    assert len(first.outputs) == len(first.seconds) == w.ops()
    assert w.check(first) == []
    assert w.same(first, second)


def test_traced_round_counts_repeat_and_tracer_restores(tmp_path):
    w, plain = tiny("codec_roundtrip", tmp_path)
    original = coder.encode
    tracers = [Tracer(), Tracer()]
    rounds = []
    for i, tr in enumerate(tracers, start=1):
        with tr:
            assert coder.encode is not original
            rounds.append(w.run_round(i))
    assert coder.encode is original and typeclass.type_class_size.__module__ == "entrokit.typeclass"
    assert all(w.same(plain, r) for r in rounds)
    assert tracers[0].counters == tracers[1].counters
    counts = tracers[0].counters
    n_steps = sum(len(seq) - params.m for _, params, seq in w.cases)
    assert counts["typeclass.steps"] == 2 * n_steps  # one rank and one unrank per case
    assert counts["coder.codeword_bits"] == sum(o[0] for o in plain.outputs)
    assert counts["coder.bitstream.bits"] > counts["coder.codeword_bits"]
    for name in ("coder.encode", "coder.decode", "typeclass.rank_in_type_class", "typeclass.unrank", "coder.bitstream"):
        assert tracers[0].calls[name] > 0
        assert 0.0 <= tracers[0].self_s[name] <= tracers[0].total_s[name]


def test_best_theorem_size_matches_exact_counts():
    rng = np.random.default_rng(7)
    for _ in range(60):
        l, m = int(rng.integers(2, 4)), int(rng.integers(0, 4))
        n = int(rng.integers(m + 1, 120))
        seq = models.SymbolSequence(models.Alphabet(tuple(str(i) for i in range(l))), rng.integers(0, l, n))
        exact = typeclass.type_class_size(typeclass.block_frequencies(seq, m))
        assert abs(oracle.log2_type_class_size(seq.data, l, m) - math.log2(exact)) < 1e-9
        assert oracle.header_bits(l, m, n) == coder.header_length(l, m, n)


def test_codec_check_fails_on_a_flipped_codeword_bit(tmp_path):
    w, rnd = tiny("codec_roundtrip", tmp_path)
    n_bits, raw, _ = rnd.outputs[0]
    bits = coder.Bitstream.from_bytes(raw)
    last = len(bits) - 1  # lowest bit of the enumerative index
    flipped = bytearray(raw)
    flipped[last // 8] ^= 0x80 >> (last % 8)
    decoded = coder.decode(coder.Bitstream.from_bytes(bytes(flipped)), w.cases[0][2].alphabet)
    rnd.outputs[0] = (n_bits, bytes(flipped), decoded.data)
    assert any("decode(encode(x)) != x" in e for e in w.check(rnd))


def test_codec_check_fails_on_an_off_by_one_length(tmp_path):
    w, rnd = tiny("codec_roundtrip", tmp_path)
    n_bits, raw, decoded = rnd.outputs[1]
    rnd.outputs[1] = (n_bits + 1, raw, decoded)
    errors = w.check(rnd)
    assert any("codelength(x)" in e for e in errors)
    assert any("ceil(log2 |T|)" in e for e in errors)


def _rewrite_samples(out_dir: str, bump: int) -> None:
    path = os.path.join(out_dir, "samples.csv")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][2] = str(int(rows[1][2]) + bump)  # replicate 0 of the first n
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_clt_check_fails_on_an_off_by_one_codelength(tmp_path):
    w, rnd = tiny("clt_experiment", tmp_path)
    _rewrite_samples(rnd.outputs[0], -1)
    assert any("codeword has" in e for e in w.check(rnd))
    _rewrite_samples(rnd.outputs[0], +1000)
    assert any("above bound" in e for e in w.check(rnd))


def test_clt_check_fails_on_a_perturbed_sigma2_or_a_violation(tmp_path):
    w, rnd = tiny("clt_experiment", tmp_path)
    for out_dir, key, value in ((rnd.outputs[0], "sigma2", workloads.BERN25_SIGMA2 + 1e-8), (rnd.outputs[2], "any_violation", True)):
        path = os.path.join(out_dir, "results.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[key] = value
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    errors = w.check(rnd)
    assert any("closed form" in e for e in errors)
    assert any("soundness violation" in e for e in errors)


def test_example1_check_fails_on_an_off_by_one_length_or_a_falling_scaling(tmp_path):
    w, rnd = tiny("example1_scaling", tmp_path)
    cell = rnd.outputs[0].cells[0]
    cell.deviations = cell.deviations.copy()
    cell.deviations[0] = abs(cell.deviations[0] - 1.0 / cell.n)
    assert any("reported deviation" in e for e in w.check(rnd))
    w, rnd = tiny("example1_scaling", tmp_path / "again")
    cells = rnd.outputs[0].cells
    for cell, value in zip(cells, reversed([c.sqrt_n_dev for c in cells])):
        cell.sqrt_n_dev = value
    assert any("do not rise" in e for e in w.check(rnd))


def test_sigma_check_fails_on_a_perturbed_sigma2(tmp_path):
    w, rnd = tiny("sigma_oracle", tmp_path)
    rnd.outputs[1].sigma2 *= 2.0
    errors = w.check(rnd)
    assert len(errors) == 1 and errors[0].startswith("ternary")


def test_times_are_scaled_by_the_calibrations_around_them():
    ref = run.REFERENCE_CALIBRATION_S
    rounds = [workloads.Round(seconds=[1.0, 2.0]), workloads.Round(seconds=[3.0])]
    # operation k lies between calibrations k and k + 1
    calibrations = [ref, ref, 4 * ref, 4 * ref]
    assert run.scaled_round_times(rounds, calibrations) == pytest.approx([1.0 + 2.0 / 2, 3.0 / 4])
    assert 0.0 < run.calibrate() < 60 * ref


def test_round_calibrates_after_every_operation(tmp_path):
    w = workloads.WORKLOADS["sigma_oracle"](SEED, str(tmp_path), tiny=True)
    rnd = w.run_round(0, lambda: 0.5)
    assert rnd.calibrations == [0.5] * w.ops() and len(rnd.seconds) == w.ops()


def test_metric_tables_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work", "traces"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec_roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
