"""Reproducible (n, m, repetition) sweep harness with CSV output.

A sweep fits one hyperinterpolant per cell, records the rule's spectral
deviation eta and the L2 error against a high-exactness reference rule, and
writes three CSV files: per-cell rows, per-(n, m) aggregates, and wall
times.  Rows are ordered deterministically and every random cell derives
its seed from (config seed, n, m, repetition), so the per-cell and
aggregate files are byte-identical across runs; wall times live in a
separate file for that reason.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analysis import l2_error, reference_rule_for
from .hyperinterp import fit
from .pointsets import source_rule
from .quadrature import mz_constant
from .testfuncs import by_name

CELL_HEADER = "experiment,n,m,seed,eta,l2_error"
AGGREGATE_HEADER = "experiment,n,m,mean,min,max"
TIMES_HEADER = "experiment,n,m,seed,wall_time"

POINT_SOURCES = ("random", "equal_area", "gauss_product")


def _schedule_fixed(n, config):
    return list(config.m_list)


def _schedule_square(n, config):
    return [(n + 1) ** 2]


def _schedule_boundary(n, config):
    s = config.schedule_sigma() + 1.5
    return [math.ceil((n + 1) ** 2 * n ** (2.0 / s))]


def _schedule_rate(n, config):
    s = config.schedule_sigma() + 1.5
    return [config.beta * math.ceil((n + 1) ** 2 * n ** (2.0 + 2.0 / s))]


SCHEDULES = {
    "fixed-list": _schedule_fixed,
    "(n+1)^2": _schedule_square,
    "ceil((n+1)^2 * n^(2/(sigma+3/2)))": _schedule_boundary,
    "beta * ceil((n+1)^2 * n^(2 + 2/(sigma+3/2)))": _schedule_rate,
}


@dataclass(frozen=True)
class SweepConfig:
    """One experiment grid: function, point source, degrees, sizes, seeds."""

    experiment: str
    function: str
    points: str
    n_list: tuple
    m_list: tuple = ()
    schedule: str = "fixed-list"
    sigma: int = -1
    beta: int = 1
    seed: int = 0
    repetitions: int = 0
    # per-run settings: flags of the sweep command, not config-file keys
    force: bool = field(default=False, metadata={"per_run": True})
    workers: int = field(default=1, metadata={"per_run": True})

    def __post_init__(self):
        if not self.n_list:
            raise ValueError("n grid is empty")
        if min(self.n_list) < 0:
            raise ValueError(f"degrees must be >= 0, got {min(self.n_list)}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown m-schedule {self.schedule!r}; "
                             f"registered: {sorted(SCHEDULES)}")
        if self.schedule == "fixed-list" and not self.m_list:
            raise ValueError("schedule 'fixed-list' needs a nonempty m list")
        if self.schedule != "fixed-list" and self.m_list:
            raise ValueError(f"schedule {self.schedule!r} sets m itself; an m list "
                             "goes with 'fixed-list' only")
        if self.repetitions < 0:
            raise ValueError("repetitions must be >= 1 (or 0 for the default)")
        if self.points not in POINT_SOURCES and self.points_is_file() is False:
            raise ValueError(f"unknown point source {self.points!r}")
        by_name(self.function)

    def points_is_file(self):
        return self.points not in POINT_SOURCES and self.points.endswith(".txt")

    def deterministic(self):
        return self.points != "random"

    def effective_repetitions(self):
        """Default: 10 repetitions for random points, 1 for deterministic."""
        if self.repetitions:
            return self.repetitions
        return 1 if self.deterministic() else 10

    def schedule_sigma(self):
        if self.sigma >= 0:
            return self.sigma
        if self.function.startswith("f4_"):
            return int(self.function.split("_")[1])
        raise ValueError("this m-schedule needs sigma (set it explicitly or "
                         "use an f4_<sigma> function)")


@dataclass(frozen=True)
class CellResult:
    """One fitted cell; coeff_norm is kept in memory only (not in the CSV)."""

    experiment: str
    n: int
    m: int
    seed: int
    eta: float
    l2: float
    wall_time: float
    coeff_norm: float


def cell_seed(config_seed, n, m, rep):
    """Derived per-cell seed: first word of SeedSequence((seed, n, m, rep))."""
    return int(np.random.SeedSequence((config_seed, n, m, rep)).generate_state(1)[0])


def _cell_rule(config, m, seed):
    """The cell's rule; gauss_product gets the largest order N with 2N^2 <= m."""
    order = max(1, int(math.floor(math.sqrt(m / 2.0))))
    return source_rule(config.points, m=m, seed=seed, order=order)


def sweep_cells(config, nodes=None):
    """The (n, m, rep) grid in deterministic row order.

    `nodes` is the node count of a file source, which every m must equal.
    """
    reps = config.effective_repetitions()
    cells = []
    for n in config.n_list:
        for m in SCHEDULES[config.schedule](n, config):
            if nodes is not None and m != nodes:
                raise ValueError(
                    f"cell n={n}, m={m}: the point file {config.points} has "
                    f"{nodes} nodes, and m must equal its node count")
            if (n + 1) ** 2 > m and not config.force:
                raise ValueError(
                    f"cell n={n}, m={m}: basis dimension {(n + 1) ** 2} exceeds "
                    f"the point count (rank-deficient); pass force to run anyway")
            for rep in range(reps):
                cells.append((n, m, rep))
    return cells


def run_sweep(config):
    """Execute every cell; returns rows in deterministic (n, m, rep) order."""
    rules = {}   # deterministic sources: one rule per size
    nodes = None
    if config.points_is_file():
        rule = source_rule("loaded", path=config.points)
        nodes = rule.m
        rules[nodes] = rule
    cells = sweep_cells(config, nodes)
    f = by_name(config.function)
    # one reference rule per degree, built before any thread starts
    refs = {n: reference_rule_for(n) for n in dict.fromkeys(n for n, _, _ in cells)}

    def run_cell(cell):
        n, m, rep = cell
        seed = cell_seed(config.seed, n, m, rep)
        start = time.perf_counter()
        if not config.deterministic():
            rule = _cell_rule(config, m, seed)
        else:
            if m not in rules:
                rules[m] = _cell_rule(config, m, seed)
            rule = rules[m]
        eta = mz_constant(rule, n).eta
        h = fit(rule, f, n)
        err = l2_error(f, h, refs[n])
        elapsed = time.perf_counter() - start
        return CellResult(config.experiment, n, rule.m, seed, eta, err,
                          elapsed, float(np.linalg.norm(h.coeffs)))

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(run_cell, cells))
    else:
        rows = [run_cell(cell) for cell in cells]
    return rows


def aggregate(rows):
    """Per-(n, m) mean/min/max of the L2 error, in row order."""
    grouped = {}
    order = []
    for row in rows:
        key = (row.experiment, row.n, row.m)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(row.l2)
    out = []
    for key in order:
        errs = grouped[key]
        out.append((*key, sum(errs) / len(errs), min(errs), max(errs)))
    return out


def advisory_lines(rows):
    """Rule-of-thumb report: per m, the degree with the smallest mean error."""
    means = {}
    for exp, n, m, mean, _, _ in aggregate(rows):
        means.setdefault(m, []).append((mean, n))
    lines = []
    for m in sorted(means):
        if len(means[m]) > 1:
            best = min(means[m])
            lines.append(f"advisory: m={m} -> smallest mean error at n={best[1]}")
    return lines


def write_cells(path, rows):
    lines = [CELL_HEADER]
    lines += [f"{r.experiment},{r.n},{r.m},{r.seed},{r.eta:.17g},{r.l2:.17g}"
              for r in rows]
    _write(path, lines)


def write_aggregates(path, rows):
    lines = [AGGREGATE_HEADER]
    lines += [f"{exp},{n},{m},{mean:.17g},{lo:.17g},{hi:.17g}"
              for exp, n, m, mean, lo, hi in aggregate(rows)]
    _write(path, lines)


def write_times(path, rows):
    lines = [TIMES_HEADER]
    lines += [f"{r.experiment},{r.n},{r.m},{r.seed},{r.wall_time:.6f}" for r in rows]
    _write(path, lines)


def _write(path, lines):
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
