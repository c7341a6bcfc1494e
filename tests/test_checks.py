import sphyper as sp
from sphyper import hyperinterp
from sphyper.checks import check_kernel_consistency, lemma31_slack


def test_lemma31_slack_on_exact_design():
    # a 20-design integrates degree 2n = 20 exactly, so G = I at n = 10
    result = lemma31_slack(sp.bundled_tdesign_rule(20), 10)
    assert result.eta < 1e-12
    assert result.worst <= 1e-8
    assert result.alpha.shape == (121, 100)
    assert result.fit_norm.shape == (100,)


def test_kernel_consistency_covers_both_synthesis_paths(monkeypatch):
    # evaluate_block takes basis blocks at the random targets and the
    # synthesis over the runs at the equal-area grid, each against the kernel
    grids, synthesis = [], hyperinterp._run_synthesis

    def counted(n, points, starts, c):
        grids.append(len(points))
        return synthesis(n, points, starts, c)

    monkeypatch.setattr(hyperinterp, "_run_synthesis", counted)
    ok, detail = check_kernel_consistency()
    assert ok and grids == [200]
    assert "(10 random targets)" in detail and "(equal-area 200, over its rings)" in detail
