"""The ``verify`` table: each check's name, place, size, tolerance and pass
status on the default run, what ``sabotage`` does to it, and README's table of laws.

The violations themselves are not pinned: their last bits depend on LAPACK.
"""

import functools
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fundgrowth import cli, estimators, shrinkage, verify

# registry order: a check's sweep seed is seed + 1000 * its place in this list
DEFAULT_TABLE = [
    ("frobenius_min", 300, 1e-9),
    ("mse_min", 300, 1e-9),
    ("error_reduction", 500, 1e-9),
    ("shrink_fixed_point", 200, 1e-10),
    ("shrink_identity", 200, 1e-9),
    ("dis_fund_law", 200, 1e-9),
    ("growth_loss_identity", 6, 4.0),
    ("cardano", 51, 8.0),
]


@pytest.mark.parametrize("seed", [0, 43210])
def test_default_table(seed):
    results = verify.run_checks(seed=seed)
    assert [(r.name, r.instances, r.tolerance) for r in results] == DEFAULT_TABLE
    assert [name for name, _, _ in DEFAULT_TABLE] == list(verify.CHECKS)
    assert all(r.passed for r in results)


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_sabotage_raises_only_the_named_check(name):
    plain = verify.run_checks(seed=7, instances=2)
    sabotaged = verify.run_checks(seed=7, instances=2, sabotage=name)
    assert [(r.name, r.instances, r.tolerance) for r in sabotaged] == \
        [(r.name, r.instances, r.tolerance) for r in plain]
    for before, after in zip(plain, sabotaged):
        if before.name == name:
            assert after.max_violation == before.max_violation + 10.0 * before.tolerance + 1.0
        else:
            assert after.max_violation == before.max_violation
        assert after.passed == (before.name != name)


def nan_violations(rng, instances):
    yield from [math.nan] * instances


def no_violations(rng, instances):
    yield from ()


@pytest.mark.parametrize("check", [nan_violations, no_violations], ids=["nan", "empty"])
def test_a_check_without_a_measured_violation_fails_the_cli(monkeypatch, capsys, check):
    monkeypatch.setitem(verify.CHECKS, "broken", (check, 3, 1e-9))
    assert cli.main(["verify", "--checks", "cardano,broken", "--seed", "5"]) == 1
    captured = capsys.readouterr()
    status = {line.split()[0]: line.split()[-1] for line in captured.out.splitlines()[1:]}
    assert status == {"cardano": "pass", "broken": "FAIL"}
    assert captured.err == "FAILED: broken\n"


def test_a_nan_violation_fails_its_check(monkeypatch):
    monkeypatch.setattr(estimators, "dis", lambda *args: math.nan)
    (result,) = verify.run_checks(["dis_fund_law"], seed=5, instances=3)
    assert math.isnan(result.max_violation) and not result.passed


@pytest.mark.parametrize("shift, passed", [(0.0, True), (1.0, False)])
def test_shrink_identity_checks_its_degenerate_instances(monkeypatch, shift, passed):
    def degenerate(nu_hat, kappa, d_c):
        return shrinkage.ShrinkResult(rho=nu_hat + shift, b=0.0, a=1.0, psi=0.0, e_sq=0.0,
                                      iterations=0, residual=0.0, degenerate=True)

    monkeypatch.setattr(shrinkage, "shrink_portfolio", degenerate)
    (result,) = verify.run_checks(["shrink_identity"], seed=5, instances=4)
    assert (result.instances, result.passed) == (4, passed)


def test_cardano_instances_count_its_evaluations(monkeypatch):
    calls = []
    cardano_a = shrinkage.cardano_a
    monkeypatch.setattr(shrinkage, "cardano_a", lambda psi: calls.append(psi) or cardano_a(psi))
    (result,) = verify.run_checks(["cardano"], instances=4)
    assert result.instances == 4 and result.passed
    assert calls == pytest.approx([0.0, 1e-8, 1.0, 1e8], rel=1e-15)


def test_cardano_fails_an_a_far_off_its_root_whose_cubic_residual_is_small(monkeypatch):
    # 1.3e-7 relative below psi = 1e-4 leaves a cubic residual of at most 4e-12, below the
    # 1e-10 that the check once allowed, yet there a lies about 1e9 ulp from the root
    cardano_a = shrinkage.cardano_a
    monkeypatch.setattr(shrinkage, "cardano_a",
                        lambda psi: cardano_a(psi) * (1.0 + 1.3e-7 * (psi < 1e-4)))
    (result,) = verify.run_checks(["cardano"])
    assert not result.passed and result.max_violation > 1e8


def test_growth_loss_identity_reads_its_draw_count_when_it_runs(monkeypatch):
    # criterion 3 patches the count to 1e6: each count takes its own number of normals
    # from the generator, which shows in the generator's next draw
    def next_draw(draws):
        monkeypatch.setattr(verify, "_GROWTH_DRAWS", draws)
        rng = np.random.default_rng(3)
        next(verify.check_growth_loss_identity(rng, 1))
        return rng.standard_normal()

    assert next_draw(10) != next_draw(11)


def test_readme_maps_each_check_to_a_tier1_test():
    # README's table of paper laws: a row a law, then its check and tier-1 tests
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = text.split("\n## Paper laws", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:-1] for line in table.splitlines() if line.startswith("| ")][1:]
    checks = [re.fullmatch(r"\s*`(\w+)`\s*", check)[1] for _, check, _ in rows]
    assert sorted(checks) == sorted(verify.CHECKS)
    for _, _, tests in rows:
        named = re.findall(r"`tests/(\w+)\.py::((?:\w+::)?test_\w+)`", tests)
        assert named, tests
        for module, node in named:      # a missing class or function raises AttributeError
            functools.reduce(getattr, node.split("::"), importlib.import_module(module))
