import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from entrokit.cli import dispatch, read_sequence_file
from entrokit.config import RETIRED_KEYS, validate_config
from entrokit.errors import ValidationError
from entrokit.manifest import sha256_file
from entrokit.models import Alphabet

# sum over k >= 0 of phi(k) = (2/3) 0.9985**k on the "slow" chain, up to the rounding of its entries
SLOW_SUM_PHI = 444.4444444444768

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


@pytest.fixture()
def model_files(tmp_path):
    files = {}
    docs = {
        "bern25": {"type": "markov", "alphabet": ["0", "1"], "order": 0, "transitions": {"": [0.75, 0.25]}},
        "sym": {
            "type": "markov",
            "alphabet": ["0", "1"],
            "order": 1,
            "transitions": {"0": [0.9, 0.1], "1": [0.1, 0.9]},
        },
        "uni": {"type": "markov", "alphabet": ["0", "1"], "order": 0, "transitions": {"": [0.5, 0.5]}},
        "slow": {
            "type": "markov",
            "alphabet": ["0", "1"],
            "order": 1,
            "transitions": {"0": [1 - 5e-4, 5e-4], "1": [1e-3, 1 - 1e-3]},
        },
        "blockwise": {"type": "blockwise", "epsilon": 0.1, "tail_cap": 1000000},
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = str(path)
    return files


class TestValidateConfig:
    def test_defaults_echoed(self):
        cfg = validate_config({})
        assert cfg["eta"] == 0.1
        assert not set(cfg) & set(RETIRED_KEYS)
        assert cfg["k_start"] == 0
        assert cfg["seed"] == 0

    @pytest.mark.parametrize("key", RETIRED_KEYS)
    def test_retired_key_rejected(self, key, model_files, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64, "t_grid": [0.5], "reps": 4, key: 1}))
        assert dispatch(["concentration", "--model", model_files["sym"], "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert f"config.{key}: unknown key" in capsys.readouterr().err

    def test_blockwise_epsilon_message(self):
        with pytest.raises(ValidationError, match=r"epsilon must lie in \(0, 1/6\)"):
            validate_config({"epsilon": 0.2})

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            validate_config({"seed": -1})

    def test_unknown_key_named(self):
        with pytest.raises(ValidationError, match="config.bogus"):
            validate_config({"bogus": 1})

    def test_grid_checks(self):
        with pytest.raises(ValidationError, match="n_grid"):
            validate_config({"n_grid": []})
        with pytest.raises(ValidationError, match="t_grid"):
            validate_config({"t_grid": [0.1, -0.5]})


class TestScalarCommands:
    def test_entropy_prints_value(self, model_files, capsys):
        assert dispatch(["entropy", "--model", model_files["bern25"]]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.811278"

    def test_entropy_json(self, model_files, capsys):
        assert dispatch(["entropy", "--model", model_files["bern25"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entropy_bits_per_symbol"] == pytest.approx(0.8112781244591328)

    def test_sigma(self, model_files, capsys):
        assert dispatch(["sigma", "--model", model_files["bern25"]]) == 0
        assert capsys.readouterr().out.strip() == "0.471020"

    def test_sigma_json_on_slowly_mixing_chain(self, model_files, capsys):
        assert dispatch(["sigma", "--model", model_files["slow"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["covariance_sum", "mc_estimate", "mc_stderr", "sigma2_bits2", "variance_term"]
        assert doc["sigma2_bits2"] == pytest.approx(0.083462453486291894, abs=1e-15)

    def test_sigma_tol_flag_removed(self, model_files, capsys):
        assert dispatch(["sigma", "--model", model_files["bern25"], "--tol", "1e-14"]) == 2

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--mc-paths", "1"], "mc_paths"),
            (["--mc-paths", "-3"], "mc_paths"),
            (["--seed", "-1", "--mc-paths", "5"], "seed"),
            (["--mc-paths", "5", "--mc-length", "1"], "mc_path_length"),
            (["--mc-paths", "5", "--mc-length", "0"], "mc_path_length"),
        ],
        ids=["one-path", "negative-paths", "negative-seed", "length-at-order", "zero-length"],
    )
    def test_sigma_monte_carlo_arguments_are_typed(self, model_files, capsys, flags, field):
        # an order-1 chain: --mc-length 1 leaves no step to vary
        assert dispatch(["sigma", "--model", model_files["sym"], "--json", *flags]) == 2
        assert field in capsys.readouterr().err

    def test_conditions(self, model_files, capsys):
        assert dispatch(["conditions", "--model", model_files["sym"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha_satisfied"] is True

    def test_missing_model_file(self, tmp_path, capsys):
        assert dispatch(["entropy", "--model", str(tmp_path / "nope.json")]) == 2

    def test_unknown_flag_exits_2(self, model_files, capsys):
        assert dispatch(["entropy", "--model", model_files["bern25"], "--bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        assert dispatch(["frobnicate"]) == 2


class TestCodecCommands:
    def test_binary_roundtrip_compact(self, tmp_path, capsys):
        seq_path = tmp_path / "seq.txt"
        seq_path.write_text("0100110101110\n")
        code_path = tmp_path / "code.bin"
        out_path = tmp_path / "roundtrip.txt"
        assert dispatch(["encode", "--in", str(seq_path), "--m", "2", "--out", str(code_path)]) == 0
        assert dispatch(["decode", "--in", str(code_path), "--out", str(out_path)]) == 0
        assert out_path.read_text().strip() == "0100110101110"

    def test_label_lines_roundtrip(self, tmp_path):
        seq_path = tmp_path / "seq.txt"
        seq_path.write_text("a\nb\nc\na\nb\n")
        code_path = tmp_path / "code.bin"
        out_path = tmp_path / "out.txt"
        assert dispatch(["encode", "--in", str(seq_path), "--m", "1", "--out", str(code_path),
                         "--alphabet", "a,b,c"]) == 0
        assert dispatch(["decode", "--in", str(code_path), "--out", str(out_path),
                         "--alphabet", "a,b,c"]) == 0
        assert out_path.read_text().split() == ["a", "b", "c", "a", "b"]

    def test_schedule_default(self, tmp_path):
        seq_path = tmp_path / "seq.txt"
        seq_path.write_text("01" * 200 + "\n")
        code_path = tmp_path / "code.bin"
        assert dispatch(["encode", "--in", str(seq_path), "--out", str(code_path)]) == 0
        assert dispatch(["decode", "--in", str(code_path)]) == 0

    def test_decode_garbage_exits_2(self, model_files, capsys):
        assert dispatch(["decode", "--in", model_files["sym"]]) == 2
        assert "error" in capsys.readouterr().err

    def test_guard_exits_3(self, tmp_path, capsys):
        seq_path = tmp_path / "seq.txt"
        seq_path.write_text("01" * 15 + "\n")  # n = 30 >= m, but 2**24 count fields trip the guard
        assert dispatch(["encode", "--in", str(seq_path), "--m", "23", "--out", str(tmp_path / "c.bin")]) == 3

    def test_too_short_exits_2(self, tmp_path, capsys):
        seq_path = tmp_path / "seq.txt"
        seq_path.write_text("0101\n")
        assert dispatch(["encode", "--in", str(seq_path), "--m", "10", "--out", str(tmp_path / "c.bin")]) == 2


class TestAnalysisCommands:
    def test_mixing_profile_file(self, model_files, tmp_path):
        out = tmp_path / "profile.json"
        assert dispatch(["mixing", "--model", model_files["sym"], "--max-gap", "8",
                         "--depth", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["phi"][1] == pytest.approx(0.4, abs=1e-12)
        assert len(doc["phi"]) == 9

    def test_stability_constants_file(self, model_files, tmp_path):
        out = tmp_path / "consts.json"
        assert dispatch(["stability", "--model", model_files["sym"], "--out", str(out),
                         "--n-grid", "1024,4096"]) == 0
        doc = json.loads(out.read_text())
        assert doc["delta_thm"] == pytest.approx(61.0, abs=1e-6)
        assert "4096" in doc["per_n"]

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["stability", "--n-grid", "a"], "--n-grid"),
            (["stability", "--n-grid", "1,,"], "--n-grid"),
            (["stability", "--n-grid", "0"], "--n-grid"),
            (["stability", "--n-grid", "-5"], "--n-grid"),
            (["concentration", "--t-grid", "x"], "--t-grid"),
            (["concentration", "--t-grid", ","], "--t-grid"),
            (["mixing", "--depth", "-1"], "depth"),
            (["mixing", "--depth", "0"], "depth"),
        ],
        ids=["n-grid-word", "n-grid-empty-entry", "n-grid-zero", "n-grid-negative",
             "t-grid-word", "t-grid-empty", "depth-negative", "depth-zero"],
    )
    def test_malformed_numbers_exit_2(self, argv, fragment, model_files, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert dispatch([argv[0], "--model", model_files["sym"], "--out", str(out), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err, err
        assert not out.exists()

    def test_stability_on_slowly_mixing_chain(self, model_files, tmp_path):
        # phi(k) = (2/3) 0.9985**k sums to 444.44...: the term cap ends the sum
        out = tmp_path / "consts.json"
        assert dispatch(["stability", "--model", model_files["slow"], "--out", str(out)]) == 0
        got = json.loads(out.read_text())["sum_phi_from_0"]
        assert got == pytest.approx(SLOW_SUM_PHI, rel=1e-6)
        assert got >= SLOW_SUM_PHI * (1 - 1e-12)


class TestExperimentCommands:
    def test_clt_outputs_and_manifest(self, model_files, tmp_path):
        cfg = tmp_path / "clt.json"
        cfg.write_text(json.dumps({"n_grid": [128, 256], "reps": 20, "seed": 3}))
        out_dir = tmp_path / "out"
        assert dispatch(["clt", "--model", model_files["bern25"], "--config", str(cfg),
                         "--out", str(out_dir)]) == 0
        names = sorted(os.listdir(out_dir))
        assert names == ["manifest.json", "results.json", "samples.csv", "summary.csv"]
        man = json.loads((out_dir / "manifest.json").read_text())
        for fname, digest in man["outputs"].items():
            assert sha256_file(str(out_dir / fname)) == digest
        assert man["params"]["reps"] == 20
        assert man["model"]["type"] == "markov"

    def test_concentration_exit_codes(self, model_files, tmp_path):
        cfg = tmp_path / "conc.json"
        cfg.write_text(json.dumps({"n": 256, "t_grid": [0.1, 0.4], "reps": 40, "seed": 4}))
        out_dir = tmp_path / "cout"
        code = dispatch(["concentration", "--model", model_files["sym"], "--config", str(cfg),
                         "--out", str(out_dir)])
        assert code == 0  # sound bounds: no violation flag
        doc = json.loads((out_dir / "results.json").read_text())
        assert doc["any_violation"] is False

    def test_clt_on_slowly_mixing_chain(self, model_files, tmp_path):
        cfg = tmp_path / "clt.json"
        cfg.write_text(json.dumps({"n_grid": [128], "reps": 10, "seed": 3}))
        out_dir = tmp_path / "slow"
        assert dispatch(["clt", "--model", model_files["slow"], "--config", str(cfg),
                         "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "results.json").read_text())
        assert doc["sigma2"] == pytest.approx(0.083462453486291894, abs=1e-15)

    def test_concentration_on_slowly_mixing_chain(self, model_files, tmp_path):
        out_dir = tmp_path / "slow"
        assert dispatch(["concentration", "--model", model_files["slow"], "--out", str(out_dir),
                         "--n", "256", "--t-grid", "0.1,0.5", "--reps", "20"]) == 0
        got = json.loads((out_dir / "results.json").read_text())["constants"]["sum_phi_from_0"]
        assert got == pytest.approx(SLOW_SUM_PHI, rel=1e-6)
        assert got >= SLOW_SUM_PHI * (1 - 1e-12)

    def test_rerun_drops_retired_config_keys(self, model_files, tmp_path):
        out1 = tmp_path / "run1"
        assert dispatch(["concentration", "--model", model_files["sym"], "--out", str(out1),
                         "--n", "256", "--t-grid", "0.1,0.5", "--reps", "20", "--seed", "6"]) == 0
        man_path = out1 / "manifest.json"
        man = json.loads(man_path.read_text())
        # the values older versions recorded (window was optional)
        retired = {"tol": 1e-14, "delta": 0.5, "beta": 1.5, "max_gap": 32, "depth": 1, "window": 8}
        assert sorted(retired) == sorted(RETIRED_KEYS)
        man["params"].update(retired)
        man_path.write_text(json.dumps(man))
        out2 = tmp_path / "rerun"
        assert dispatch(["rerun", "--manifest", str(man_path), "--out", str(out2)]) == 0
        for name in ("samples.csv", "summary.csv", "results.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_concentration_on_fair_coin(self, model_files, tmp_path):
        # M = 0 makes K1 = 0: the Gaussian term of the second bound is 0, leaving the floor
        out_dir = tmp_path / "uni"
        assert dispatch(["concentration", "--model", model_files["uni"], "--out", str(out_dir),
                         "--n", "256", "--t-grid", "0.1,0.5", "--reps", "20"]) == 0
        rows = (out_dir / "summary.csv").read_text().splitlines()
        assert rows[0].split(",")[6] == "conc2_thm"
        assert float(rows[2].split(",")[6]) == 1.0  # min(1, floor) at n = 256

    def test_manifest_environment_and_rerun_without_it(self, model_files, tmp_path):
        cfg = tmp_path / "clt.json"
        cfg.write_text(json.dumps({"n_grid": [128], "reps": 10, "seed": 5}))
        out1 = tmp_path / "run1"
        assert dispatch(["clt", "--model", model_files["sym"], "--config", str(cfg), "--out", str(out1)]) == 0
        man_path = out1 / "manifest.json"
        man = json.loads(man_path.read_text())
        env = man.pop("environment")
        assert sorted(env) == ["numpy", "platform", "python"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        # manifests written before the environment was recorded still rerun,
        # and so do those that also recorded a scipy version
        for i, old_env in enumerate([None, {**env, "scipy": "1.17.1"}]):
            man_path.write_text(json.dumps(man if old_env is None else {**man, "environment": old_env}))
            out2 = tmp_path / f"rerun{i}"
            assert dispatch(["rerun", "--manifest", str(man_path), "--out", str(out2)]) == 0
            for name in ("samples.csv", "summary.csv", "results.json"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_example1_and_rerun_identical(self, tmp_path):
        cfg = tmp_path / "ex1.json"
        cfg.write_text(json.dumps({"n_grid": [64, 128], "reps": 8, "seed": 9,
                                   "epsilon": 0.1, "tail_cap": 100000}))
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert dispatch(["example1", "--config", str(cfg), "--out", str(out1)]) == 0
        assert dispatch(["rerun", "--manifest", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        for name in ("samples.csv", "summary.csv", "results.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_flag_overrides(self, model_files, tmp_path):
        out_dir = tmp_path / "out"
        code = dispatch(["concentration", "--model", model_files["sym"], "--out", str(out_dir),
                         "--n", "128", "--t-grid", "0.2,0.5", "--reps", "30", "--seed", "2"])
        assert code == 0
        man = json.loads((out_dir / "manifest.json").read_text())
        assert man["params"]["n"] == 128
        assert man["params"]["t_grid"] == [0.2, 0.5]
        assert (out_dir / "samples.csv").exists()

    def test_clt_schedule_codec_variant(self, model_files, tmp_path):
        cfg = tmp_path / "clt.json"
        cfg.write_text(json.dumps({"n_grid": [256], "reps": 15, "seed": 1, "codec_m": "schedule"}))
        out_dir = tmp_path / "sched"
        assert dispatch(["clt", "--model", model_files["bern25"], "--config", str(cfg),
                         "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "results.json").read_text())
        assert doc["codec_m"] == -1  # schedule marker in the report

    # the count table's size is checked before any path is walked: at m = 30
    # a binary count table of one replicate would take 16 GiB, and at m = 23
    # its 2**24 bins were counted before the guard tripped
    @pytest.mark.parametrize("codec_m", [23, 30])
    def test_clt_guard_trips_before_sampling(self, model_files, tmp_path, codec_m):
        cfg = tmp_path / "clt.json"
        cfg.write_text(json.dumps({"n_grid": [128], "reps": 4, "seed": 1, "codec_m": codec_m}))
        argv = ["clt", "--model", model_files["bern25"], "--config", str(cfg), "--out", str(tmp_path / "out")]
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run([sys.executable, "-m", "entrokit.cli", *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        tracemalloc.start()
        try:
            assert dispatch(argv) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak
        assert not (tmp_path / "out").exists()


class TestPinnedExperimentOutputs:
    """Experiment outputs stay byte-identical to those of the symbol-matrix harness.

    The sha256 of samples.csv, summary.csv and results.json of each run were
    taken from the harness that sampled a (reps, n) path matrix and counted
    every row with ``block_frequencies``. At 150 replicates a walker chunk is
    1747 steps, so n = 4000 crosses two chunk boundaries.
    """

    MODEL_DOCS = {
        "bern25": {"type": "markov", "alphabet": ["0", "1"], "order": 0, "transitions": {"": [0.75, 0.25]}},
        "sym": {"type": "markov", "alphabet": ["0", "1"], "order": 1,
                "transitions": {"0": [0.9, 0.1], "1": [0.1, 0.9]}},
        "ternary": {"type": "markov", "alphabet": ["a", "b", "c"], "order": 1,
                    "transitions": {"a": [0.6, 0.3, 0.1], "b": [0.2, 0.5, 0.3], "c": [0.25, 0.25, 0.5]}},
        "order2": {"type": "markov", "alphabet": ["0", "1"], "order": 2,
                   "transitions": {"0,0": [0.8, 0.2], "0,1": [0.4, 0.6], "1,0": [0.3, 0.7], "1,1": [0.1, 0.9]}},
    }
    CLT = {"n_grid": [100, 4000], "reps": 150, "seed": 11}
    # label: (command, model, config, sha256 of samples.csv, summary.csv, results.json)
    RUNS = {
        # codec order = model order
        "clt-bern25": ("clt", "bern25", CLT, (
            "07bd39d23ee8f7ec4beb54a940c7f66c732e74a0dfe26d7017d85882adbb8048",
            "361f6775aabcb226667cbb357d1ccd7af87cd65f83cd6e781da5ad9653705442",
            "5fae1dcf205eda6455bc830d54c6b0d36a88ed318dfb0cc89a812c3ae26d0711")),
        "clt-sym": ("clt", "sym", CLT, (
            "7d83f8dd46a9ab0e7c02a8cef937f125fd821a85330f5329757d3fda64bccd77",
            "e81b46aa7844ea4b51f23253846b6314725dc6799a902e212abe404471ceec65",
            "1b1be5f04e42802cf3bbbcd9a17f1a237bb79a82029d316e756b9b56f0bad0c8")),
        "clt-ternary": ("clt", "ternary", CLT, (
            "b5b7750205a340e7e19904d359e00ed907116f3da7f4a35f67125507724c5cab",
            "3e98a1c434cc9cd36881336687b8ec871992f56065020e5eb53dde2136103e0f",
            "b1aefda91e3804792e64028d7717ef69c0fb4a9bc66cbf7d1638e3280fdd8ee8")),
        "clt-order2": ("clt", "order2", CLT, (
            "ba77e2064b163a533ffe2e6c615656c289ae226c678836893c9c9dc512dffab3",
            "4b636b5f08385cc00010ba91a9b1488868f118ae4b2dc58c492133f5f190b207",
            "570f2457410f00c0b2f7ddc32eb7406eb069d550aeb06e5626db30a34e25c29d")),
        # codec order above the model order
        "clt-bern25-m1": ("clt", "bern25", {**CLT, "codec_m": 1}, (
            "4df20600f20c82a9c8b5d3cbb77fac9b74434bca673dee5d3564875fc33d338c",
            "d183c870ad89f8479379239f924576437b7109ae602851e819e4bd76f865c234",
            "c24feee2aaa617f293276ae8437cbe0493c1a2a8c24f43999bdc903b5baa7b27")),
        "clt-sym-m2": ("clt", "sym", {**CLT, "codec_m": 2}, (
            "a8186461e8660ba9e59fda6e4fa5f4ef26237cbac5ec4fc359e3dfa99fae64f2",
            "5e414eaec161ef9a3092d0eaa6d74d0df59a61e5e489d32e2bf8f340f37c6027",
            "301bcad2f8b91b1ea44e497f67a57c59a5cd2d62d7ee18696e66bcdb98349fab")),
        # codec order below the model order
        "clt-order2-m1": ("clt", "order2", {**CLT, "codec_m": 1}, (
            "8df249bda973c8738148a988b111b187a1214428cd701e63c7338ee15259fba0",
            "297bfe4f2128c12534f39734975101c63a486c3ab8714e6e2a03521258df964a",
            "3b6f2ae70279f7d8ce8ce3402e4203e0260f6bc1e16cf30de65b86243de27bd8")),
        # the scheduled codec: m = 2 at n = 100 and m = 4 at n = 4000
        "clt-sym-schedule": ("clt", "sym", {**CLT, "codec_m": "schedule"}, (
            "810f28af6f38ca8d43f2bdcb11cd2984f232cc9d1986266193079460eb69f87f",
            "7b112bd9142d363b9ae27327a04ef619bfdc2436b0d7fb923cac78a44b837ffa",
            "49abf60bd9e4c677cc5cdb4c1c991036f27443b06e2b31ebf3ac4739307a2aab")),
        # results.json taken with the certified phi tail, whose constants it reports
        "concentration-sym": ("concentration", "sym", {"n": 4000, "t_grid": [0.05, 0.1, 0.2], "reps": 150,
                                                       "seed": 12}, (
            "ca85ac3c3a4beb0ad5a2d80517f2d90be06d072683048b84980873d30b40ffdf",
            "4188318bd95985e89ea8defa7467fb6979b0e4af7b29dafd98ffa09383724a6b",
            "934ac69326b9c2008910bab53e0f394dfafd87dcd11b7093aad7857d21dfbaf3")),
        "example1": ("example1", None, {"n_grid": [64, 256, 1024], "reps": 8, "seed": 9, "epsilon": 0.1,
                                        "tail_cap": 100000}, (
            "eb0079816ae68860ac04e923c7c9998164d4502bc2d59f34bd3661445fef21be",
            "405df7ccb7ff483283d311c909603533f81a30f8703d487da39d370dc1ee4c3a",
            "8146581b8d02de40d54c72cf9adafe1c39a315302ea14bf322a170dc243be0a0")),
    }

    @pytest.mark.parametrize("label", list(RUNS))
    def test_outputs_match_pinned_digests(self, label, tmp_path):
        command, key, cfg, digests = self.RUNS[label]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        if key is not None:
            model_path = tmp_path / "model.json"
            model_path.write_text(json.dumps(self.MODEL_DOCS[key]))
            argv += ["--model", str(model_path)]
        assert dispatch(argv) == 0
        names = ("samples.csv", "summary.csv", "results.json")
        got = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in names)
        assert got == digests


class TestSequenceIO:
    def test_compact_detection(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("00110\n")
        seq = read_sequence_file(str(p))
        assert list(seq.data) == [0, 0, 1, 1, 0]

    def test_explicit_alphabet_order(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("b\na\nb\n")
        seq = read_sequence_file(str(p), Alphabet(("b", "a")))
        assert list(seq.data) == [0, 1, 0]


class TestSelftestAndEntryPoint:
    def test_selftest_passes(self, capsys):
        assert dispatch(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "entrokit.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "entrokit" in proc.stdout

    def test_dispatch_leaves_little_cyclic_garbage(self, model_files, tmp_path):
        # the parser is built once per process; rebuilt on every dispatch it
        # left about 600 objects in reference cycles per clt run
        cfg = tmp_path / "clt.json"
        cfg.write_text(json.dumps({"n_grid": [128], "reps": 10, "seed": 5}))
        argv = ["clt", "--model", model_files["sym"], "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert dispatch(argv) == 0
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                assert dispatch(argv) == 0
            freed = gc.collect()
        finally:
            gc.enable()
        assert freed <= 5 * 150


class TestColdStart:
    """entrokit loads numpy only: scipy stays unloaded, blockwise models included.

    Each check runs in a fresh interpreter: this test session may have scipy loaded.
    """

    # reprs at the parent of the lazy scipy import: normalizer, truncated_mass and
    # P(tau > t) at t = 1, 7, 10**6 of BlockwiseModel(0.1)
    BLOCKWISE_REPRS = ["0.3221680741669224", "0.0005079276587516457",
                       "0.6779955639087137", "0.35941642756996706", "0.0032048062329881892"]

    SCRIPT = """
import sys
loaded = {}
import entrokit
loaded["entrokit"] = "scipy" in sys.modules
import entrokit.cli
loaded["entrokit.cli"] = "scipy" in sys.modules
from entrokit.models import BlockwiseModel
model = BlockwiseModel(0.1)
loaded["BlockwiseModel"] = "scipy" in sys.modules
values = [model.normalizer, model.truncated_mass] + [model._untruncated_cdf_complement(t) for t in (1, 7, 10**6)]
print(loaded)
print([repr(v) for v in values])
"""

    # the same model and the selftest where no scipy can be imported at all
    WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy.special
    raise SystemExit("scipy was importable")
except ModuleNotFoundError:
    pass
from entrokit.cli import dispatch
from entrokit.models import BlockwiseModel
model = BlockwiseModel(0.1)
values = [model.normalizer, model.truncated_mass] + [model._untruncated_cdf_complement(t) for t in (1, 7, 10**6)]
code = dispatch(["selftest"])
print(code)
print([repr(v) for v in values])
"""

    @staticmethod
    def _python(*args):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=True)

    def test_imports_leave_scipy_unloaded_until_blockwise(self):
        loaded, values = self._python("-c", self.SCRIPT).stdout.splitlines()
        assert loaded == repr({"entrokit": False, "entrokit.cli": False, "BlockwiseModel": False})
        assert values == repr(self.BLOCKWISE_REPRS)

    def test_blockwise_and_selftest_without_scipy(self):
        lines = self._python("-c", self.WITHOUT_SCIPY).stdout.splitlines()
        assert "selftest passed" in lines
        assert lines[-2:] == ["0", repr(self.BLOCKWISE_REPRS)]

    def test_version_command_leaves_scipy_unloaded(self):
        # -X importtime lists every module the command imports on stderr
        proc = self._python("-X", "importtime", "-m", "entrokit.cli", "--version")
        assert proc.stdout.strip() == "entrokit 0.1.0"
        assert "entrokit.models" in proc.stderr
        assert "scipy" not in proc.stderr
