import subprocess
import sys

import numpy as np
import pytest

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

    def test_fast_subset_passes(self, capsys):
        for name in ("addition-theorem", "gauss-exactness", "kernel"):
            assert main(["check", "--filter", name]) == 0


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
