import sphyper as sp
from sphyper.checks import lemma31_slack


def test_lemma31_slack_on_exact_design():
    # a 20-design integrates degree 2n = 20 exactly, so G = I at n = 10
    result = lemma31_slack(sp.bundled_tdesign_rule(20), 10)
    assert result.eta < 1e-12
    assert result.worst <= 1e-8
    assert result.alpha.shape == (121, 100)
    assert result.fit_norm.shape == (100,)
