import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphyper as sp
from sphyper.cli import config_from_file, main


def write_config(tmp_path, text, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL_SWEEP = """\
# minimal grid
experiment = demo
function = f1
points = random
n = 2
m = 60
repetitions = 2
seed = 9
"""


class TestPoints:
    def test_random_to_file(self, tmp_path):
        out = tmp_path / "pts.txt"
        rc = main(["points", "--kind", "random", "--m", "30", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        pts = np.loadtxt(out)
        assert pts.shape == (30, 3)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 1e-12

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["points", "--kind", "random", "--m", "20", "--seed", "4",
              "--out", str(a)])
        main(["points", "--kind", "random", "--m", "20", "--seed", "4",
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gauss_includes_weights(self, tmp_path):
        out = tmp_path / "g.txt"
        rc = main(["points", "--kind", "gauss-product", "--gauss-order", "3",
                   "--out", str(out)])
        assert rc == 0
        rows = np.loadtxt(out)
        assert rows.shape == (18, 4)
        assert rows[:, 3].sum() == pytest.approx(4 * np.pi, rel=1e-12)

    def test_equal_area_count(self, capsys):
        rc = main(["points", "--kind", "equal-area", "--m", "7"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7

    def test_missing_m_fails(self, capsys):
        rc = main(["points", "--kind", "random"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_kind_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["points", "--kind", "hexagonal", "--m", "5"])
        assert exc.value.code == 2


class TestEta:
    def test_row_output(self, capsys):
        rc = main(["eta", "--kind", "random", "--m", "200", "--seed", "3",
                   "--n", "3"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "n,dim,m,eta,lambda_min,lambda_max,rank_deficient"
        fields = out[1].split(",")
        assert fields[0] == "3" and fields[1] == "16" and fields[2] == "200"
        assert 0 < float(fields[3]) < 1
        assert fields[6] == "false"

    def test_exact_rule_tiny_eta(self, capsys):
        rc = main(["eta", "--kind", "gauss-product", "--gauss-order", "8",
                   "--n", "7"])
        assert rc == 0
        fields = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(fields[3]) < 1e-10

    def test_rank_deficient_flagged(self, capsys):
        rc = main(["eta", "--kind", "random", "--m", "10", "--seed", "0",
                   "--n", "5"])
        assert rc == 0
        fields = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert fields[6] == "true"

    def test_load_kind(self, tmp_path, capsys):
        pts_file = tmp_path / "p.txt"
        main(["points", "--kind", "equal-area", "--m", "150",
              "--out", str(pts_file)])
        rc = main(["eta", "--kind", "load", "--path", str(pts_file),
                   "--n", "2"])
        assert rc == 0
        fields = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(fields[3]) < 0.5


    def test_load_nan_row_exits_two(self, tmp_path, capsys):
        pts_file = tmp_path / "p.txt"
        pts_file.write_text("0 0 1\nnan nan nan\n1 0 0\n")
        rc = main(["eta", "--kind", "load", "--path", str(pts_file), "--n", "1"])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

class TestSweep:
    def test_writes_three_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, SMALL_SWEEP)
        rc = main(["sweep", "--config", cfg])
        assert rc == 0
        assert (tmp_path / "demo.csv").exists()
        assert (tmp_path / "demo_agg.csv").exists()
        assert (tmp_path / "demo_times.csv").exists()
        assert "demo: 2 cells" in capsys.readouterr().out
        cells = (tmp_path / "demo.csv").read_text().splitlines()
        assert cells[0] == "experiment,n,m,seed,eta,l2_error"
        assert len(cells) == 3

    def test_out_override_and_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SWEEP)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        agg = tmp_path / "demo_agg.csv"
        times = tmp_path / "demo_times.csv"
        cfg_text = SMALL_SWEEP + f"aggregate_out = {agg}\ntimes_out = {times}\n"
        cfg = write_config(tmp_path, cfg_text)
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_key_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment = x\nfunction = f1\n")
        assert main(["sweep", "--config", cfg]) == 2
        assert "missing config keys" in capsys.readouterr().err

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SWEEP + "colour = blue\n")
        assert main(["sweep", "--config", cfg]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_malformed_line_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiment x\n")
        assert main(["sweep", "--config", cfg]) == 2
        assert ":1:" in capsys.readouterr().err

    def test_unknown_schedule_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SWEEP + "schedule = linear\n")
        assert main(["sweep", "--config", cfg]) == 2
        assert "unknown m-schedule" in capsys.readouterr().err

    def test_rank_deficient_grid_needs_force(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = SMALL_SWEEP.replace("n = 2", "n = 9").replace("m = 60", "m = 25")
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", cfg]) == 2
        assert main(["sweep", "--config", cfg, "--force"]) == 0

    def test_missing_file_exits_two(self, capsys):
        assert main(["sweep", "--config", "/nonexistent/x.cfg"]) == 2

    def test_repeated_key_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SWEEP + "n = 3\n")
        assert main(["sweep", "--config", cfg]) == 2
        assert ":9: key 'n' is set twice" in capsys.readouterr().err

    def test_m_list_needs_fixed_list_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SWEEP + "schedule = (n+1)^2\n")
        assert main(["sweep", "--config", cfg]) == 2
        assert "an m list goes with 'fixed-list' only" in capsys.readouterr().err


class TestConfigFromFile:
    def test_required_keys_and_m(self, tmp_path):
        # the default schedule, fixed-list, also needs m
        cfg = write_config(tmp_path, "experiment = e\nfunction = f3\n"
                                     "points = random\nn = 4,6\nm = 100\n")
        config, outs = config_from_file(cfg)
        assert config == sp.SweepConfig("e", "f3", "random", (4, 6), (100,))
        assert outs == {"out": "e.csv", "aggregate_out": "e_agg.csv",
                        "times_out": "e_times.csv"}

    def test_every_key(self, tmp_path):
        cfg = write_config(tmp_path, """\
experiment = e
function = f4_2
points = equal_area
n = 4,5
m = 100,200
schedule = fixed-list
sigma = 3
beta = 2
seed = 17
repetitions = 4
out = a.csv
aggregate_out = b.csv
times_out = c.csv
""")
        config, outs = config_from_file(cfg)
        assert config == sp.SweepConfig(
            experiment="e", function="f4_2", points="equal_area", n_list=(4, 5),
            m_list=(100, 200), schedule="fixed-list", sigma=3, beta=2, seed=17,
            repetitions=4)
        assert outs == {"out": "a.csv", "aggregate_out": "b.csv",
                        "times_out": "c.csv"}


class TestCheck:
    def test_single_check_passes(self, capsys):
        rc = main(["check", "--filter", "wendland"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS wendland-values" in out
        assert "1/1 checks passed" in out

    def test_unknown_filter_exits_two(self, capsys):
        assert main(["check", "--filter", "nosuchcheck"]) == 2
        assert "no checks match" in capsys.readouterr().err

    def test_full_suite_passes(self, capsys):
        assert main(["check"]) == 0
        assert "9/9 checks passed" in capsys.readouterr().out


# config keys and values, valid and invalid, with small degrees and sizes
_REQUIRED_VALUES = {
    "experiment": ["fz"],
    "function": ["f1", "f3", "f4_2", "f9"],
    "points": ["random", "equal_area", "gauss_product", "pts.txt",
               "missing.txt"],
    "n": ["2", "0", "1,3", "-1", "3,"],
}
# an m list, or a schedule that sets m itself
_SIZE_LINES = ["m = 40", "m = 30,90", "m = 1", "m = 0", "m = -5",
               *(f"schedule = {name}" for name in sp.SCHEDULES),
               "schedule = linear"]
_OPTIONAL_VALUES = {
    "sigma": ["-1", "0", "2"],
    "beta": ["2", "0", "-1"],
    "seed": ["7", "-3"],
    "repetitions": ["2", "0", "-1"],
    "out": ["a.csv", "nodir/a.csv"],
}
_MALFORMED_VALUES = ["x", "1.5", "nan", "inf", "1e400", "2 3", "="]
_JUNK_LINES = ["colour = blue", "force = true", "workers = 2", "n_list = 2",
               "# note", "n 3", "= 2", "m =", ""]


@st.composite
def config_texts(draw):
    """Config text: every required key, m or a schedule, some optional
    keys, and up to two lines of junk (unknown keys, malformed lines or
    malformed values)."""
    config = {key: draw(st.sampled_from(values))
              for key, values in _REQUIRED_VALUES.items()}
    optional = draw(st.sets(st.sampled_from(list(_OPTIONAL_VALUES)), max_size=3))
    for key in optional:
        config[key] = draw(st.sampled_from(_OPTIONAL_VALUES[key]))
    lines = [f"{key} = {value}" for key, value in config.items()]
    lines.append(draw(st.sampled_from(_SIZE_LINES)))
    keys = [*_REQUIRED_VALUES, *_OPTIONAL_VALUES, "m", "schedule"]
    lines += draw(st.lists(st.one_of(
        st.sampled_from(_JUNK_LINES),
        st.tuples(st.sampled_from(keys), st.sampled_from(_MALFORMED_VALUES))
        .map(" = ".join)), max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


# point-file rows: unit vectors with and without weights, and rows of 0-5
# fields mixing numbers with non-finite, overflowing and non-numeric tokens
_POINT_FIELDS = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.6", "0.8", "1e308", "1e-320"]),
    st.floats(-2, 2).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "x", "1,0", "#"]))
_POINT_ROWS = st.one_of(
    st.sampled_from(["0 0 1", "1 0 0", "0.6 0.8 0", "0 0 -1 1.7e308",
                     "0 -1 0 2"]),
    st.lists(_POINT_FIELDS, max_size=5).map(" ".join))


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(text=config_texts(), force=st.booleans())
    def test_sweep_config_exits_zero_or_two(self, text, force):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)   # the sweep writes its CSVs to relative paths
            try:
                np.savetxt("pts.txt", sp.equal_area(40))
                Path("sweep.cfg").write_text(text)
                rc = main(["sweep", "--config", "sweep.cfg"]
                          + (["--force"] if force else []))
            finally:
                os.chdir(cwd)
        assert rc in (0, 2)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(_POINT_ROWS, max_size=8), n=st.integers(0, 3))
    def test_point_file_exits_zero_or_two(self, rows, n):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.txt"
            path.write_text("\n".join(rows) + "\n")
            rc = main(["eta", "--kind", "load", "--path", str(path),
                       "--n", str(n)])
        assert rc in (0, 2)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sphyper.cli", "check",
             "--filter", "wendland"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
