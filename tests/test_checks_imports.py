"""The theory checks need scipy only for the chi-square quantile, which they
take from scipy.special; scipy.stats, which evaluates the same formula, is
left unimported."""

import subprocess
import sys

import numpy as np
import pytest
from scipy.special import gammaincinv

import olala.checks as checks
from olala.lattice import GEN_A2, GEN_HEXAGONAL


def test_importing_checks_leaves_scipy_stats_unloaded():
    code = "import sys, olala.checks; print('scipy.stats' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


@pytest.mark.parametrize("dof", [1, 2, 3, 7, 24, 99, 398])
@pytest.mark.parametrize("q", [0.9, 0.99, 0.999, 0.9999])
def test_chi2_quantile_formula_equals_scipy_stats(dof, q):
    stats = pytest.importorskip("scipy.stats")
    assert float(2.0 * gammaincinv(dof / 2, q)) == float(stats.chi2.ppf(q, dof))


@pytest.mark.parametrize(
    ("gen", "gamma", "q"),
    [(np.eye(2), 4.0, 0.999), (GEN_HEXAGONAL, 4.0, 0.99), (GEN_A2, 6.0, 0.9)],
    ids=["identity", "hexagonal", "a2"],
)
def test_uniformity_bound_is_the_chi2_quantile(gen, gamma, q):
    stats = pytest.importorskip("scipy.stats")
    rep = checks.check_sdq_error_stats(gen, gamma, n=2000, seed=3, chi_quantile=q)
    ineq = next(i for i in rep.inequalities if i["name"] == "cell_uniformity_chi2")
    assert ineq["rhs"] == float(stats.chi2.ppf(q, rep.measured["chi2_dof"]))
