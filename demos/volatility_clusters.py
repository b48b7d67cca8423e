"""Cluster trading days by how volatility is spread across assets.

Each day's per-asset volatilities, normalized to sum to one, form a
distribution; days are compared by Wasserstein distance and clustered.
The crash regime stands out as a compact minority cluster with an
unusually uniform spread (low intra-volatility variance).
"""

import datetime as dt

import numpy as np

import cryptodynamics as cd
from cryptodynamics import dispersion, inconsistency

S = 90
PEAK = (dt.date(2020, 3, 1), dt.date(2020, 5, 30))

panel = cd.simulated_market()
vol = inconsistency.rolling_volatility(cd.log_returns(panel), S)

variances = dispersion.variance_series(vol)
dates = np.array(variances.dates)
in_peak = (dates >= PEAK[0]) & (dates <= PEAK[1])
print(f"intra-volatility variance, {len(dates)} days:")
print(f"  2019 mean        {variances.values[dates <= dt.date(2019, 12, 31)].mean():.5f}")
print(f"  crash-phase mean {variances.values[in_peak].mean():.5f}")

dendro = dispersion.hierarchical_cluster(vol, "average")
labels = dispersion.two_cluster_cut(dendro)
counts = np.bincount(labels)
minority = int(np.argmin(counts))
hit = np.mean(labels[in_peak] == minority)
print(f"\ntwo-cluster cut: sizes {counts.tolist()}")
print(f"{100 * hit:.0f}% of crash-phase days land in the minority cluster")

span = [d for d, l in zip(dendro.dates, labels) if l == minority]
print(f"minority cluster spans {span[0]} .. {span[-1]}")
