"""The exact finite-N free energy of the p=2 model against quadrature and the paper's curve."""

import math

import numpy as np
import pytest

from pspin import free_energy
from pspin.simulator import sample_disorder

from oracles import circle_log_partition, sphere3_log_partition, sphere_p2_log_partition


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_n2_matches_circle_quadrature(seed, beta):
    T = sample_disorder(2, 2, seed=seed).tensor()
    exact = circle_log_partition((T + T.T) / (2.0 * math.sqrt(2.0)), beta)
    assert sphere_p2_log_partition(T, beta) == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
def test_n3_matches_sphere_quadrature(seed, beta):
    T = sample_disorder(3, 2, seed=seed).tensor()
    assert sphere_p2_log_partition(T, beta) == pytest.approx(
        sphere3_log_partition(T, beta), abs=1e-9)


def test_disorder_mean_against_the_paper():
    """Mean of F_N over 8 samples per n: the annealed value at beta = 0.5 < beta_c,
    and at most the paper's F(2) at beta = 2, since E F_N <= F at even p
    (Guerra and Toninelli, Commun. Math. Phys. 230, 2002).  At beta = 2 the gap
    to F(2) shrinks at each step in n by more than 2 combined standard errors."""
    paper = math.sqrt(2.0) * 2.0 - math.log(2.0 * 2.0**2) / 4.0 - 0.75  # 1.5586
    assert free_energy(2, 2.0).free_energy == pytest.approx(paper, rel=1e-12)
    trend, cold = [], []
    for n in (16, 64, 256):
        tensors = [sample_disorder(n, 2, seed=1000 * n + s).tensor() for s in range(8)]
        for beta, bound in ((0.5, 0.5 * 0.5**2), (2.0, paper)):
            values = np.array([sphere_p2_log_partition(T, beta) for T in tensors])
            mean, stderr = values.mean(), values.std(ddof=1) / math.sqrt(values.size)
            trend.append(f"n={n} beta={beta}: {mean:.4f} +- {stderr:.4f} (paper {bound:.4f})")
            if beta < 1.0 / math.sqrt(2.0):
                assert abs(mean - bound) <= 3.0 * stderr, trend[-1]
            else:
                assert mean <= bound + 3.0 * stderr, trend[-1]
                cold.append((paper - mean, stderr))
    print("\n".join(trend))
    for (gap, err), (next_gap, next_err) in zip(cold, cold[1:]):
        assert gap - next_gap > 2.0 * math.hypot(err, next_err), "\n".join(trend)
