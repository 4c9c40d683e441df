"""Plug-in estimation, its negative bias, and bootstrap correction.

The plug-in estimator (the exchangeable weight of the empirical measure)
is consistent but biased downward in finite samples, because per-orbit
minima are concave in the cell frequencies.  A full-size multinomial
bootstrap estimates that bias; the corrected estimator subtracts it.
The limiting Gaussian law is reproduced both in closed form and by the
bootstrap.
"""

import numpy as np
from scipy import stats

from latentw import (CountVector, Distribution, SampleSpace,
                     asymptotic_variance, bootstrap_distribution, estimate,
                     limit_law_sample)

rng = np.random.default_rng(2024)

space = SampleSpace(k=2, d=2)
p = Distribution(space, [0.4, 0.1, 0.2, 0.3])   # true weight 0.9
print("source:", p.p, "-> true exchangeable weight 0.9")

# --- point estimation at a moderate sample size ---------------------------
n = 2000
counts = CountVector(space, rng.multinomial(n, p.p))
est = estimate(counts, n_boot=1000, seed=7)
print(f"n = {n}: plug-in {est.lambda_hat:.4f}, "
      f"corrected {est.lambda_corrected:.4f}, "
      f"bootstrap se {est.se_boot:.4f}, flag {est.regularity_flag}")

# --- the Gaussian limit ----------------------------------------------------
v = asymptotic_variance(p)
print(f"closed-form limiting variance V = {v:.4f}")

draws = limit_law_sample(p, 200_000, seed=11)
print(f"Monte Carlo of the limit law: variance {draws.var(ddof=1):.4f}")

# --- bootstrap reproduces the limit ---------------------------------------
big_n = 100_000
big_counts = CountVector(space, rng.multinomial(big_n, p.p))
boot = bootstrap_distribution(big_counts, n_boot=4000, seed=13)
ks = stats.ks_2samp(boot, draws).statistic
print(f"KS distance, bootstrap replicates vs limit law: {ks:.4f}")

# --- sources with tied minima ----------------------------------------------
# When an orbit's minimum is achieved twice (here: the uniform law, where
# P(01) = P(10) = 1/4), the limit is a weighted sum of minima of correlated
# Gaussians rather than a single Gaussian.  Its mean is negative: the
# orbit {01, 10} adds 2 * sqrt(1/4) * E[min of two standard normals],
# and E[min] = -1/sqrt(pi), so the mean is -1/sqrt(pi).
tied = Distribution.uniform(space)
tied_draws = limit_law_sample(tied, 100_000, seed=17)
print(f"tied-argmin source: limit-law mean {tied_draws.mean():.4f} "
      f"(Monte Carlo), closed form -1/sqrt(pi) = {-1 / np.sqrt(np.pi):.4f}")
