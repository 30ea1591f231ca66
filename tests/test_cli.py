import gc
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from entrokit.cli import dispatch, read_sequence_file
from entrokit.config import validate_config
from entrokit.errors import ValidationError
from entrokit.manifest import sha256_file
from entrokit.models import Alphabet

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
        assert cfg["tol"] == 1e-14
        assert cfg["k_start"] == 0
        assert cfg["seed"] == 0

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
