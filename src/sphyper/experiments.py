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
from dataclasses import dataclass

import numpy as np

from .analysis import l2_error, reference_rule_for
from .hyperinterp import Hyperinterpolant, _gram_fit
from .pointsets import source_rule
from .quadrature import mz_report
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
    beta: int = 1
    seed: int = 0
    repetitions: int = 0

    def __post_init__(self):
        if set(",\r\n") & set(self.experiment):
            raise ValueError(f"experiment {self.experiment!r} has a comma or line break")
        for field in ("n_list", "m_list", "beta", "seed", "repetitions"):
            value = getattr(self, field)
            values = value if field.endswith("_list") else (value,)
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                       for v in values):
                raise ValueError(f"{field} takes integers only, got {value!r}")
            ints = tuple(int(v) for v in values)
            object.__setattr__(self, field, ints if field.endswith("_list") else ints[0])
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.beta < 1:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if self.beta != 1 and SCHEDULES.get(self.schedule) is not _schedule_rate:
            raise ValueError(f"beta = {self.beta} has no effect under schedule "
                             f"{self.schedule!r}; only the rate schedule takes beta")
        if not self.n_list:
            raise ValueError("n grid is empty")
        for name, values, least in (("degree", self.n_list, 0), ("size", self.m_list, 1)):
            if values and min(values) < least:
                raise ValueError(f"{name}s must be >= {least}, got {min(values)}")
            if len(set(values)) < len(values):
                raise ValueError(f"a {name} repeats in {values}: its cells would run twice")
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
        if self.function.startswith("f4_"):
            return int(self.function.split("_")[1])
        raise ValueError("this m-schedule needs sigma, which only an f4_<sigma> "
                         f"function gives, not {self.function!r}")


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


def _cell_rule(config, m, seed=0):
    """The cell's rule: a .txt source is its file's rule, and gauss_product
    gets the largest order N with 2N^2 <= m.  Only random uses the seed."""
    if config.points_is_file():
        return source_rule("loaded", path=config.points)
    if config.points == "gauss_product" and m < 2:
        raise ValueError(f"a gauss_product cell needs m >= 2 (2N^2 <= m), got m = {m}")
    return source_rule(config.points, m=m, seed=seed, order=math.isqrt(m // 2))


def sweep_cells(config):
    """The (n, m, rep) grid in deterministic row order."""
    reps = config.effective_repetitions()
    return [(n, m, rep) for n in config.n_list
            for m in SCHEDULES[config.schedule](n, config) for rep in range(reps)]


def run_sweep(config, force=False):
    """Execute every cell, a rank-deficient one only with `force`; returns
    rows in deterministic (n, m, rep) order.

    Each rule takes one Gram and one fit, at the largest degree of its
    cells (`_gram_fit`: on a ring rule, one run Gram and one run-sum pass).
    Each cell adds an eigensolve of its leading block (`mz_report`) and its
    L2 error, whose synthesis runs over the reference rule's rings.
    """
    cells = sweep_cells(config)
    # deterministic sources: one rule per size, built before any cell runs;
    # the checks run on its node count (a random rule has exactly m nodes)
    rules = ({m: _cell_rule(config, m) for m in dict.fromkeys(m for _, m, _ in cells)}
             if config.deterministic() else {})
    for n, m in dict.fromkeys((n, m) for n, m, _ in cells):
        nodes = rules[m].m if config.deterministic() else m
        if config.points_is_file() and m != nodes:
            raise ValueError(
                f"cell n={n}, m={m}: the point file {config.points} has "
                f"{nodes} nodes, and m must equal its node count")
        if (n + 1) ** 2 > nodes and not force:
            raise ValueError(
                f"cell n={n}, m={m}: basis dimension {(n + 1) ** 2} exceeds "
                f"the rule's {nodes} nodes (rank-deficient); pass force to "
                "run anyway")
    f = by_name(config.function)
    # one reference rule per degree
    refs = {n: reference_rule_for(n) for n in dict.fromkeys(n for n, _, _ in cells)}
    seeds = [cell_seed(config.seed, n, m, rep) for n, m, rep in cells]
    # one pass per rule: a deterministic rule's cells share the Gram and the
    # coefficients at their largest degree, whose leading blocks and slices
    # are each cell's; a random cell is a group of one, because its seed
    # includes n
    groups = {}
    for i, (n, m, rep) in enumerate(cells):
        groups.setdefault(m if config.deterministic() else i, []).append(i)
    rows = [None] * len(cells)
    for members in groups.values():
        m = cells[members[0]][1]
        top = max(cells[i][0] for i in members)
        start = time.perf_counter()
        rule = (rules[m] if config.deterministic()
                else _cell_rule(config, m, seeds[members[0]]))
        G, h = _gram_fit(rule, f, top)
        # the pass's time goes to the first cell at the top degree, the cell
        # that would have done that work anyway
        shared = time.perf_counter() - start
        for i in members:
            n = cells[i][0]
            start = time.perf_counter()
            dim = (n + 1) ** 2
            eta = mz_report(G[:dim, :dim]).eta
            hn = Hyperinterpolant(n=n, coeffs=h.coeffs[:dim])
            err = l2_error(f, hn, refs[n])
            elapsed = time.perf_counter() - start
            if n == top:
                elapsed, shared = elapsed + shared, 0.0
            rows[i] = CellResult(config.experiment, n, rule.m, seeds[i], eta, err,
                                 elapsed, float(np.linalg.norm(hn.coeffs)))
        del G, h   # at most one Gram alive: drop it before the next group
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
