"""The library's numbers are the same bytes at any BLAS thread count."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import sphyper as sp

SRC = Path(sp.__file__).resolve().parents[1]

# Two sweeps, random and equal-area, each with a cell at n = 22: the random
# rules' one Fourier pass spans several node blocks (m = 5000) and their
# Gram is the grid twin's, the equal-area rule's is its run Gram (its n = 22
# block, dim 529, on Lanczos).  Then eta of a random rule above dim 400
# (Lanczos on the twin Gram's triangle), audited_fit on an equal-area rule
# at n = 30 (eta from its run operator), the exactness scan of an
# equal-area rule (its moments), a reference projection, and the L2 error
# of two random fits at n = 60 on the 10082-node reference rule (the
# synthesis over its runs and the weighted sum of squares).
CHILD = """
import sphyper as sp
from sphyper.cli import main

for points, m in (("random", "1000, 5000"), ("equal_area", "10000")):
    with open(f"{points}.cfg", "w") as cfg:
        cfg.write(f"experiment = {points}\\nfunction = f3\\npoints = {points}\\n"
                  f"n = 6, 22\\nm = {m}\\nrepetitions = 1\\nseed = 5\\n"
                  f"out = {points}.csv\\naggregate_out = {points}_agg.csv\\n"
                  f"times_out = {points}_times.csv\\n")
    assert main(["sweep", "--config", f"{points}.cfg"]) == 0
rule = sp.equal_weight_rule(sp.random_uniform(4 * 676, seed=3), "random")
print(repr(sp.mz_constant(rule, 25)))
h = sp.audited_fit(sp.equal_weight_rule(sp.equal_area(4 * 961), "equal_area"), sp.by_name("f3"), 30)
print(repr(h.eta_used), repr(h.coeffs.tolist()))
rule = sp.equal_weight_rule(sp.equal_area(10 ** 5), "equal_area")
print(repr(sp.exactness_degree(rule, 40).residuals))
print(repr(sp.project_reference(sp.by_name("f3"), 22, sp.reference_rule_for(22)).coeffs.tolist()))
for seed in (2, 3):
    rule = sp.equal_weight_rule(sp.random_uniform(4000, seed=seed), "random")
    h = sp.fit(rule, sp.by_name("f3"), 60)
    print(repr(sp.l2_error(sp.by_name("f3"), h, sp.reference_rule_for(60))))
"""


def test_same_bytes_at_one_and_two_blas_threads(tmp_path):
    children = {}
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        children[threads] = subprocess.Popen([sys.executable, "-c", CHILD], cwd=cwd, env=env,
                                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = {}
    for threads, child in children.items():
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr.decode()
        out[threads] = stdout
    assert out["1"] == out["2"]
    for name in ("random.csv", "random_agg.csv", "equal_area.csv", "equal_area_agg.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_no_module_reads_the_environment():
    """No setting of the library comes in from environment variables."""
    readers = []
    for path in sorted((SRC / "sphyper").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & {"environ", "environb", "getenv", "getenvb"}:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_no_module_starts_a_thread():
    """The library starts no thread or process: no module imports
    concurrent.futures or multiprocessing, or names threading.Thread."""
    starters = []
    for path in sorted((SRC / "sphyper").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {f"{node.value.id}.{node.attr}"}
            else:
                continue
            if any(name.split(".")[0] in {"concurrent", "multiprocessing"}
                   or name == "threading.Thread" for name in names):
                starters.append(f"{path.name}:{node.lineno}")
    assert starters == []
