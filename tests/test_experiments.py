import re
from types import SimpleNamespace

import numpy as np
import pytest

import sphyper as sp
from sphyper import experiments
from sphyper.experiments import (
    AGGREGATE_HEADER,
    CELL_HEADER,
    TIMES_HEADER,
    advisory_lines,
    aggregate,
    sweep_cells,
    write_aggregates,
    write_cells,
    write_times,
)


def config(**kw):
    base = dict(experiment="t", function="f1", points="random",
                n_list=(2,), m_list=(50,), seed=1)
    base.update(kw)
    return sp.SweepConfig(**base)


class TestSchedules:
    def test_registry_keys(self):
        assert set(sp.SCHEDULES) == {
            "fixed-list",
            "(n+1)^2",
            "ceil((n+1)^2 * n^(2/(sigma+3/2)))",
            "beta * ceil((n+1)^2 * n^(2 + 2/(sigma+3/2)))",
        }

    def test_square_schedule(self):
        cfg = config(schedule="(n+1)^2", m_list=(), n_list=(4, 9))
        assert sp.SCHEDULES["(n+1)^2"](4, cfg) == [25]
        assert sp.SCHEDULES["(n+1)^2"](9, cfg) == [100]

    def test_boundary_schedule_values(self):
        cfg = config(schedule="ceil((n+1)^2 * n^(2/(sigma+3/2)))",
                     m_list=(), function="f4_2", n_list=(4,))
        sched = sp.SCHEDULES[cfg.schedule]
        assert sched(4, cfg) == [56]
        assert sched(16, cfg) == [1410]

    def test_rate_schedule_values(self):
        cfg = config(schedule="beta * ceil((n+1)^2 * n^(2 + 2/(sigma+3/2)))",
                     m_list=(), function="f4_2", beta=2, n_list=(4,))
        sched = sp.SCHEDULES[cfg.schedule]
        assert sched(4, cfg) == [1768]
        cfg1 = config(schedule=cfg.schedule, m_list=(), function="f4_2", beta=1,
                      n_list=(12,))
        assert sched(12, cfg1) == [100676]

    def test_sigma_from_function_name(self):
        cfg = config(function="f4_3", schedule="(n+1)^2", m_list=())
        assert cfg.schedule_sigma() == 3

    def test_sigma_required_for_boundary(self):
        cfg = config(schedule="ceil((n+1)^2 * n^(2/(sigma+3/2)))", m_list=())
        with pytest.raises(ValueError, match="sigma"):
            sweep_cells(cfg)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="n grid"):
            config(n_list=())
        with pytest.raises(ValueError, match="degrees must be >= 0"):
            config(n_list=(2, -1), m_list=(), schedule="(n+1)^2")
        with pytest.raises(ValueError, match="schedule"):
            config(schedule="linear")
        with pytest.raises(ValueError, match="fixed-list"):
            config(m_list=())
        with pytest.raises(ValueError, match="repetitions"):
            config(repetitions=-1)
        with pytest.raises(ValueError, match="point source"):
            config(points="hexagonal")
        with pytest.raises(ValueError, match="unknown test function"):
            config(function="f9")
        for name in ("a,b", "a\nb", "a\rb"):
            with pytest.raises(ValueError, match="experiment .* comma or line break"):
                config(experiment=name)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            config(seed=-3)
        rate = "beta * ceil((n+1)^2 * n^(2 + 2/(sigma+3/2)))"
        for beta in (0, -1):
            with pytest.raises(ValueError, match="beta must be >= 1"):
                config(function="f4_2", schedule=rate, m_list=(), beta=beta)
        for beta in (-7, 2):   # fixed-list: only the rate schedule takes beta
            with pytest.raises(ValueError, match="beta"):
                config(beta=beta)
        assert config(function="f4_2", schedule=rate, m_list=(), beta=3).beta == 3

    @pytest.mark.parametrize("kw", [dict(n_list=(2, 2)), dict(n_list=(2, 3, 2)),
                                    dict(m_list=(50, 50))])
    def test_repeated_degrees_or_sizes_rejected(self, kw):
        with pytest.raises(ValueError, match="repeats .* would run twice"):
            config(**kw)

    @pytest.mark.parametrize("field, value", [
        ("n_list", (2.5,)), ("n_list", (True,)), ("n_list", (2, "3")), ("m_list", (50.5,)),
        ("m_list", (100.0,)), ("seed", 1.5), ("seed", None), ("repetitions", 1.5),
        ("repetitions", False), ("beta", 2.0)])
    def test_non_integer_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} takes integers only, got {value!r}")):
            config(**{field: value})

    def test_integer_fields_stored_as_ints(self):
        cfg = config(n_list=[np.int64(3), 5], m_list=(np.int32(60),), seed=np.uint16(4),
                     repetitions=np.int64(2))
        assert (cfg.n_list, cfg.m_list, cfg.seed, cfg.repetitions) == ((3, 5), (60,), 4, 2)
        assert all(type(v) is int for v in (*cfg.n_list, *cfg.m_list, cfg.seed, cfg.repetitions))

    @pytest.mark.parametrize("m", [0, -5])
    def test_sizes_below_one_rejected(self, m):
        with pytest.raises(ValueError, match=f"sizes must be >= 1, got {m}"):
            config(m_list=(50, m))

    @pytest.mark.parametrize("kw", [dict(m_list=(1, 8)),
                                    dict(n_list=(0, 1), m_list=(), schedule="(n+1)^2")])
    def test_gauss_product_below_two_nodes_rejected(self, kw):
        # the order-1 rule has 2 nodes; m = 1 would run it and write m = 2
        with pytest.raises(ValueError, match="gauss_product cell needs m >= 2"):
            sp.run_sweep(config(points="gauss_product", **kw))

    def test_txt_path_accepted(self):
        cfg = config(points="designs/my_points.txt")
        assert cfg.points_is_file()
        assert cfg.deterministic()

    def test_effective_repetitions(self):
        assert config().effective_repetitions() == 10
        assert config(points="equal_area").effective_repetitions() == 1
        assert config(repetitions=3).effective_repetitions() == 3
        assert config(points="equal_area",
                      repetitions=7).effective_repetitions() == 7


class TestCellSeeds:
    def test_deterministic(self):
        assert sp.cell_seed(5, 3, 100, 0) == sp.cell_seed(5, 3, 100, 0)

    def test_distinct_across_grid(self):
        seeds = {sp.cell_seed(1, n, m, r)
                 for n in (2, 3) for m in (50, 80) for r in range(5)}
        assert len(seeds) == 20

    def test_distinct_across_config_seeds(self):
        assert sp.cell_seed(1, 2, 50, 0) != sp.cell_seed(2, 2, 50, 0)


class TestSweepCells:
    def test_row_order(self):
        cfg = config(n_list=(2, 3), m_list=(50, 80), repetitions=2)
        cells = sweep_cells(cfg)
        assert cells[:4] == [(2, 50, 0), (2, 50, 1), (2, 80, 0), (2, 80, 1)]
        assert len(cells) == 8


class TestRunSweep:
    def test_random_sweep_rows(self):
        cfg = config(n_list=(2,), m_list=(60, 90), repetitions=2)
        rows = sp.run_sweep(cfg)
        assert [(r.n, r.m) for r in rows] == [(2, 60), (2, 60), (2, 90), (2, 90)]
        assert all(r.experiment == "t" for r in rows)
        assert all(r.eta > 0 and r.l2 >= 0 and r.wall_time >= 0 for r in rows)
        assert rows[0].seed != rows[1].seed  # distinct repetitions
        assert rows[0].l2 != rows[1].l2

    def test_reproducible(self):
        cfg = config(n_list=(2,), m_list=(60,), repetitions=2)
        a = sp.run_sweep(cfg)
        b = sp.run_sweep(cfg)
        assert [(r.seed, r.eta, r.l2) for r in a] == [
            (r.seed, r.eta, r.l2) for r in b]

    def test_gauss_product_snaps_m(self):
        # gauss_product uses N = floor(sqrt(m/2)) and records the actual
        # node count 2 N^2
        cfg = config(points="gauss_product", n_list=(3,), m_list=(100,))
        rows = sp.run_sweep(cfg)
        assert len(rows) == 1
        assert rows[0].m == 98
        assert rows[0].eta < 1e-10  # exact to 13 >= 2n

    def test_refuses_rank_deficient_grid(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            sp.run_sweep(config(n_list=(7,), m_list=(10,)))

    def test_force_allows(self):
        rows = sp.run_sweep(config(n_list=(7,), m_list=(10,), repetitions=1),
                            force=True)
        assert [(r.n, r.m) for r in rows] == [(7, 10)]
        assert rows[0].eta >= 1.0

    def test_gauss_product_rank_checked_on_node_count(self):
        # m = 100 gives order 7, a 98-node rule: too few for dim (9+1)^2
        cfg = config(points="gauss_product", n_list=(9,), m_list=(100,))
        with pytest.raises(ValueError, match="exceeds the rule's 98 nodes"):
            sp.run_sweep(cfg)
        rows = sp.run_sweep(config(points="gauss_product", n_list=(9,),
                                   m_list=(100,)), force=True)
        assert [(r.n, r.m) for r in rows] == [(9, 98)]
        assert rows[0].eta >= 1.0

    def test_polynomial_reproduced_exactly(self):
        cfg = config(points="gauss_product", function="f1",
                     n_list=(2,), m_list=(100,))
        rows = sp.run_sweep(cfg)
        assert rows[0].l2 < 1e-12

    def test_loaded_pointset(self, tmp_path):
        pts = sp.equal_area(120)
        path = tmp_path / "grid.txt"
        np.savetxt(path, pts)
        cfg = config(points=str(path), n_list=(2,), m_list=(120,))
        rows = sp.run_sweep(cfg)
        assert rows[0].m == 120
        assert rows[0].eta < 1.0

    def test_loaded_pointset_m_must_be_node_count(self, tmp_path):
        path = tmp_path / "pts.txt"
        np.savetxt(path, sp.random_uniform(10, seed=0))
        cfg = config(points=str(path), n_list=(6,), m_list=(1000, 2000))
        with pytest.raises(ValueError, match="has 10 nodes, and m must equal"):
            sp.run_sweep(cfg)

    def test_loaded_pointset_rank_deficient_needs_force(self, tmp_path):
        path = tmp_path / "pts.txt"
        np.savetxt(path, sp.random_uniform(10, seed=0))
        cfg = config(points=str(path), n_list=(6,), m_list=(10,))
        with pytest.raises(ValueError, match="rank-deficient"):
            sp.run_sweep(cfg)
        rows = sp.run_sweep(config(points=str(path), n_list=(6,), m_list=(10,)),
                            force=True)
        assert [(r.n, r.m) for r in rows] == [(6, 10)]
        assert rows[0].eta >= 1.0

    def test_workers_build_one_rule_per_size(self, monkeypatch):
        built = []

        def counting_source_rule(source, m=None, **kw):
            built.append(m)
            return sp.source_rule(source, m=m, **kw)

        monkeypatch.setattr(experiments, "source_rule", counting_source_rule)
        rows = sp.run_sweep(config(points="equal_area", n_list=(2, 3, 4),
                                   m_list=(60, 90)))
        assert built == [60, 90]
        assert [(r.n, r.m) for r in rows] == [
            (n, m) for n in (2, 3, 4) for m in (60, 90)]

    def test_deterministic_repetitions_identical(self):
        rows = sp.run_sweep(config(points="equal_area", function="f3",
                                   n_list=(3, 5), m_list=(200,), repetitions=2))
        for a, b in zip(rows[::2], rows[1::2]):
            assert a.seed != b.seed
            assert (a.n, a.m, a.eta, a.l2, a.coeff_norm) == (
                b.n, b.m, b.eta, b.l2, b.coeff_norm)


class TestSharedBasisPass:
    """A deterministic rule's cells share one Gram at their largest degree;
    the per-n path (mz_constant, fit, l2_error) is the oracle."""

    def check_against_per_n(self, cfg):
        rows = sp.run_sweep(cfg)
        f = sp.by_name(cfg.function)
        assert [(r.n, r.m) for r in rows] == [
            (n, experiments._cell_rule(cfg, m).m) for n, m, _ in sweep_cells(cfg)]
        for row, (n, m, _) in zip(rows, sweep_cells(cfg)):
            rule = experiments._cell_rule(cfg, m)
            h = sp.fit(rule, f, n)
            assert abs(row.eta - sp.mz_constant(rule, n).eta) <= 1e-14
            assert abs(row.l2 - sp.l2_error(f, h, sp.reference_rule_for(n))) <= 1e-14
            assert abs(row.coeff_norm - np.linalg.norm(h.coeffs)) <= 1e-14
        return rows

    def test_equal_area_grid(self):
        self.check_against_per_n(config(points="equal_area", function="f4_2",
                                        n_list=(3, 6, 10), m_list=(500, 1500)))

    def test_gauss_product_grid(self):
        rows = self.check_against_per_n(config(
            points="gauss_product", function="f3", n_list=(3, 5, 9),
            m_list=(300, 800)))
        assert max(r.eta for r in rows) < 1e-12   # exact to degree >= 2n

    def test_leading_block_on_the_lanczos_branch(self):
        # dim 2025 > 625: Lanczos on the n = 44 leading block of the n = 46 Gram
        self.check_against_per_n(config(
            points="equal_area", function="f3", n_list=(44, 46), m_list=(9000,)))

    def test_antipodal_map_keeps_eta(self, tmp_path):
        pts = sp.equal_area(700)
        etas = []
        for sign in (1, -1):
            path = tmp_path / f"pts{sign}.txt"
            np.savetxt(path, sign * pts)
            rows = sp.run_sweep(config(points=str(path), function="f3",
                                       n_list=(2, 5, 9, 14), m_list=(700,)))
            etas.append(np.array([r.eta for r in rows]))
        assert np.max(np.abs(etas[0] - etas[1])) <= 1e-14

    def test_shared_walk_charged_to_the_top_degree(self, monkeypatch):
        clock = iter(range(1000))
        monkeypatch.setattr(experiments, "time",
                            SimpleNamespace(perf_counter=lambda: next(clock)))
        rows = sp.run_sweep(config(points="equal_area", n_list=(2, 4, 3),
                                   m_list=(60,), repetitions=2))
        # one tick per cell, plus one for the shared Gram, on (4, 60, rep 0) only
        assert [(r.n, r.wall_time) for r in rows] == [
            (2, 1), (2, 1), (4, 2), (4, 1), (3, 1), (3, 1)]


class TestAggregate:
    def rows(self):
        cfg = config(n_list=(2,), m_list=(60, 90), repetitions=3)
        return sp.run_sweep(cfg)

    def test_mean_min_max(self):
        rows = self.rows()
        agg = aggregate(rows)
        assert len(agg) == 2
        exp, n, m, mean, lo, hi = agg[0]
        errs = [r.l2 for r in rows if r.m == 60]
        assert (exp, n, m) == ("t", 2, 60)
        assert mean == pytest.approx(sum(errs) / 3, rel=1e-15)
        assert lo == min(errs) and hi == max(errs)

    def test_advisory_picks_smallest_mean(self):
        cfg = config(n_list=(2, 5), m_list=(200,), repetitions=2)
        rows = sp.run_sweep(cfg)
        lines = advisory_lines(rows)
        assert len(lines) == 1
        agg = {n: mean for _, n, _, mean, _, _ in aggregate(rows)}
        best = min(agg, key=agg.get)
        assert lines[0] == f"advisory: m=200 -> smallest mean error at n={best}"

    def test_no_advisory_for_single_degree(self):
        assert advisory_lines(self.rows()) == []


class TestWriters:
    def test_cells_format(self, tmp_path):
        rows = sp.run_sweep(config(n_list=(2,), m_list=(60,), repetitions=2))
        path = tmp_path / "cells.csv"
        write_cells(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == CELL_HEADER
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "t" and int(fields[1]) == 2 and int(fields[2]) == 60
        assert float(fields[4]) == rows[0].eta  # 17 digits round-trips

    def test_aggregate_and_times_headers(self, tmp_path):
        rows = sp.run_sweep(config(n_list=(2,), m_list=(60,), repetitions=2))
        agg_path = tmp_path / "agg.csv"
        times_path = tmp_path / "times.csv"
        write_aggregates(agg_path, rows)
        write_times(times_path, rows)
        assert agg_path.read_text().splitlines()[0] == AGGREGATE_HEADER
        assert times_path.read_text().splitlines()[0] == TIMES_HEADER

    def test_cells_file_deterministic(self, tmp_path):
        cfg = config(n_list=(2,), m_list=(60,), repetitions=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cells(p1, sp.run_sweep(cfg))
        write_cells(p2, sp.run_sweep(cfg))
        assert p1.read_bytes() == p2.read_bytes()
