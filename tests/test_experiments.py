import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from entrokit import coder, experiments, typeclass
from entrokit.coder import CodecParams
from entrokit.errors import EmptySampleError, TooShortError
from entrokit.experiments import (
    c1_budget,
    empirical_entropy,
    ks_statistic,
    normal_cdf,
    run_clt,
    run_concentration,
    run_example1,
    wilson_interval,
)
from entrokit.manifest import write_csv
from entrokit.models import SymbolSequence, sample, sample_paths

from conftest import A2, binseq


class TestEmpiricalEntropy:
    def test_worked_example(self):
        want = (math.log2(3) + 2 * math.log2(1.5)) / 4
        assert empirical_entropy(binseq("01001"), 1) == pytest.approx(want, abs=1e-12)
        assert empirical_entropy(binseq("01001"), 1) == pytest.approx(0.68872, abs=1e-5)

    def test_constant_sequence(self):
        seq = SymbolSequence(A2, np.zeros(64, dtype=np.int64))
        assert empirical_entropy(seq, 1) == 0.0

    def test_lln(self, bern25):
        seq = sample(bern25, 100_000, seed=1)
        hb = 0.25 * 2 + 0.75 * math.log2(4 / 3)
        assert abs(empirical_entropy(seq, 0) - hb) < 0.01

    def test_too_short(self):
        with pytest.raises(TooShortError):
            empirical_entropy(binseq("01"), 2)


class TestKS:
    def test_point_mass_vs_normal(self):
        assert ks_statistic(np.zeros(100), lambda v: normal_cdf(v)) == pytest.approx(0.5)

    def test_quantile_grid(self):
        n = 200
        qs = np.array([NormalDist().inv_cdf((i - 0.5) / n) for i in range(1, n + 1)])
        assert ks_statistic(qs, lambda v: normal_cdf(v)) <= 1 / (2 * n) + 1e-9

    def test_own_ecdf_zero(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=64)
        sorted_xs = np.sort(xs)
        ecdf = lambda v: float((sorted_xs <= v).mean())
        assert ks_statistic(xs, ecdf) == 0.0

    def test_empty(self):
        with pytest.raises(EmptySampleError):
            ks_statistic(np.array([]), lambda v: 0.5)


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert wilson_interval(0, 100)[0] == 0.0
        lo_all, hi_all = wilson_interval(100, 100)
        assert hi_all == 1.0 and lo_all < 1.0


class TestRunCLT:
    def test_uniform_iid_degenerate(self, uniform2):
        rep = run_clt(uniform2, [256, 1024, 4096], 60, base_seed=4)
        assert rep.sigma2 == 0.0
        stds = [c.std for c in rep.cells]
        assert stds[-1] < stds[0]
        assert stds[-1] < 0.05
        for c in rep.cells:
            assert c.ks is None
            assert c.lower_bound_events == 0

    def test_mean_offset_band(self, bern25):
        rep = run_clt(bern25, [512, 2048], 400, base_seed=9)
        sigma = math.sqrt(rep.sigma2)
        for c in rep.cells:
            mean_dev = c.mean / math.sqrt(c.n)  # back to codelength/n - H units
            upper = c1_budget(2, 0, c.n) / c.n + 3 * sigma / math.sqrt(c.n * rep.reps)
            assert 0.0 <= mean_dev <= upper, (c.n, mean_dev, upper)

    def test_loglik_of_paths_shorter_than_the_model_order(self, order2_chain):
        # n = 1 below the model order 2: the loglik is the law of the first symbol
        rep = run_clt(order2_chain, [1], 4, base_seed=3, codec_params=CodecParams.fixed(1))
        paths = sample_paths(order2_chain, 1, 4, base_seed=3)
        want = [order2_chain.sequence_log2_prob(SymbolSequence(A2, row)) for row in paths]
        assert rep.cells[0].logliks.tolist() == want
        assert want[0] == pytest.approx(-0.7303, abs=1e-4)

    def test_schedule_variant_reports_offset(self, bern25):
        rep = run_clt(bern25, [512], 50, base_seed=2, codec_params=CodecParams.schedule(0.1))
        assert rep.cells[0].offset_pred > 0

    def test_rows_align(self, bern25):
        rep = run_clt(bern25, [128, 256], 25, base_seed=6)
        rows = list(rep.samples_rows())
        assert len(rows) == 2 * 25
        assert {r[0] for r in rows} == {128, 256}
        summary = list(rep.summary_rows())
        assert len(summary) == 2


class TestRunConcentration:
    def test_no_violations_and_monotone(self, sym_chain):
        t_grid = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0]
        rep = run_concentration(sym_chain, 1024, t_grid, 300, base_seed=15)
        emps = [row.empirical for row in rep.rows]
        assert all(b <= a + 1e-12 for a, b in zip(emps, emps[1:]))
        assert all(0.0 <= e <= 1.0 for e in emps)
        assert not rep.any_violation
        assert rep.lower_bound_events == 0
        # thresholds gate low t rows; bounds at this n are vacuous where defined
        gated = [row for row in rep.rows if row.bounds["conc2_thm"] is None]
        assert gated, "expected at least one below-threshold row"
        for row in rep.rows:
            for key, val in row.bounds.items():
                if val is not None and val >= 1.0:
                    assert row.vacuous[key]

    def test_summary_rows_shape(self, sym_chain):
        rep = run_concentration(sym_chain, 512, [0.1, 0.4], 50, base_seed=8)
        rows = list(rep.summary_rows())
        assert len(rows) == 2 and len(rows[0]) == 9


class TestReplicateGroups:
    # past COUNT_BUDGET the replicates are walked in groups of consecutive
    # offsets; a budget of 8 entries walks 2 paths at a time at m = 1 and 1 at m = 4
    @pytest.mark.parametrize("codec", ["model-order", "schedule"])
    def test_grouped_walks_give_the_same_reports(self, sym_chain, codec, monkeypatch):
        params = CodecParams.schedule(0.1) if codec == "schedule" else None

        def rows():
            clt = run_clt(sym_chain, [100, 3000], 9, base_seed=5, codec_params=params)
            conc = run_concentration(sym_chain, 3000, [0.1], 9, base_seed=5)
            return list(clt.samples_rows()), list(conc.samples_rows())

        whole = rows()
        monkeypatch.setattr(experiments, "COUNT_BUDGET", 8)
        assert rows() == whole


class TestBatchedWidths:
    """Each walk group's codelengths come from one ``coder.codelengths`` call, never from per-row widths."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []

        def batch(alphabet, m, n, counts, heads):
            calls.append((n, m, len(counts)))
            return coder.codelengths(alphabet, m, n, counts, heads)

        def per_row(*args, **kwargs):
            raise AssertionError("a per-row width was computed")

        # experiments reaches coder.codelengths through its own name
        monkeypatch.setattr(experiments, "codelengths", batch)
        monkeypatch.setattr(coder, "codelength_from_counts", per_row)
        monkeypatch.setattr(typeclass, "index_width", per_row)
        return calls

    def test_one_call_per_walk_group(self, sym_chain, spy, monkeypatch):
        run_clt(sym_chain, [100, 3000], 9, base_seed=5)
        run_concentration(sym_chain, 3000, [0.1], 9, base_seed=5)
        assert spy == [(100, 1, 9), (3000, 1, 9), (3000, 1, 9)]
        # 8 count entries hold 2 paths at m = 1: groups of 2, 2, 2, 2 and 1
        spy.clear()
        monkeypatch.setattr(experiments, "COUNT_BUDGET", 8)
        run_concentration(sym_chain, 3000, [0.1], 9, base_seed=5)
        assert spy == [(3000, 1, 2)] * 4 + [(3000, 1, 1)]

    def test_example1_batches_each_grid_point(self, spy):
        rep = run_example1(0.1, [256, 1024], 6, base_seed=5, tail_cap=10**6)
        # the blockwise arm at its scheduled orders, then the order-0 control
        assert spy == [(256, rep.cells[0].codec_m, 6), (1024, rep.cells[1].codec_m, 6), (256, 0, 6), (1024, 0, 6)]


class TestMemory:
    # the walker counts each path's blocks and keeps no (reps, n) path matrix;
    # as uint8 the matrix alone was 16 MiB here, and the peak 22 MiB. Measured
    # now: 4.3 MiB at the model order, 7.5 MiB at the scheduled order 7
    @pytest.mark.parametrize("command", ["concentration", "clt-schedule"])
    def test_peak_holds_no_path_matrix(self, sym_chain, command):
        n, reps = 1 << 18, 64
        run_concentration(sym_chain, 1024, [0.1], 8, base_seed=1)  # first-call caches outside the trace
        tracemalloc.start()
        try:
            if command == "concentration":
                rep = run_concentration(sym_chain, n, [0.05, 0.1], reps, base_seed=3)
                outputs = rep.codelengths.nbytes + rep.logliks.nbytes
            else:
                rep = run_clt(sym_chain, [n], reps, base_seed=3, codec_params=CodecParams.schedule(0.1))
                outputs = sum(c.codelengths.nbytes + c.logliks.nbytes + c.deviations.nbytes for c in rep.cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - outputs < 10 << 20, peak


class TestRunExample1:
    def test_smoke_shapes_and_contrast(self):
        rep = run_example1(0.1, [256, 1024], 24, base_seed=5, tail_cap=10**6)
        assert len(rep.cells) == 2 and len(rep.control_cells) == 2
        assert rep.cells[0].codec_m >= 3  # schedule order grows with n
        assert rep.control_cells[0].codec_m == 0
        # the control converges fast: its sqrt(n)-scaled median already falls
        assert rep.control_cells[1].sqrt_n_dev < rep.control_cells[0].sqrt_n_dev
        assert rep.control_slope < 0
        rows = list(rep.summary_rows())
        assert len(rows) == 4


class TestReproducibility:
    def test_thread_count_does_not_change_results(self, bern25, tmp_path, monkeypatch):
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("ENTROKIT_THREADS", threads)
            rep = run_clt(bern25, [256, 512], 40, base_seed=12)
            path = tmp_path / f"samples_{threads}.csv"
            write_csv(str(path), ["n", "replicate", "codelength", "loglik", "D"], rep.samples_rows())
            outputs[threads] = path.read_bytes()
        assert outputs["1"] == outputs["2"]

    def test_same_seed_identical(self, sym_chain):
        a = run_concentration(sym_chain, 256, [0.1], 30, base_seed=3)
        b = run_concentration(sym_chain, 256, [0.1], 30, base_seed=3)
        assert [r.empirical for r in a.rows] == [r.empirical for r in b.rows]
