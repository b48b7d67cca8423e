"""First-eigenvalue share of the rolling correlation matrix vs market size.

The largest eigenvalue over N measures the variance fraction carried by the
market-wide mode. Prints its range, the trace identity on the matrices the
window kernel builds, the operator-norm identity checked against a
singular-value route, and the correlation with trailing market size.
"""

import numpy as np

import cryptodynamics as cd
from cryptodynamics import correlation, spectral

S = 90

panel = cd.simulated_market()
returns = cd.log_returns(panel)

lam = spectral.lambda1_series(returns, S)
size = spectral.rolling_market_size(panel, S)

print(f"{len(lam.dates)} windows of {S} return days, N={lam.n_assets}")
print(f"lambda1/N range: {lam.lambda1.min():.3f} .. {lam.lambda1.max():.3f}")

# the kernel solves each window's N×N correlation matrix, or its S×S Gram
# matrix when S < N; either way the eigenvalues sum to N
n = lam.n_assets
side = min(n, S)
residual = 0.0
for rows in correlation.window_chunks(returns, S, 1):
    c = rows.stop - rows.start
    matrices = np.empty((c, side, side))
    correlation.fill_chunk(returns, S, rows, np.empty((c, n, S)),
                           *((matrices, None) if S >= n else (None, matrices)))
    sums = np.linalg.eigvalsh(matrices).sum(axis=1)
    residual = max(residual, float(np.abs(sums - n).max()))
print(f"trace residual |sum(lambda) - N|, worst window: {residual:.2e}")

# spot-check the operator-norm identity on a handful of windows: the
# spectral norm comes from an SVD, a route independent of eigvalsh
for w in (0, len(lam.dates) // 2, len(lam.dates) - 1):
    m = cd.correlation_matrix(returns, w + 1, w + S)
    opn = np.linalg.norm(m.matrix, 2) / lam.n_assets
    diff = abs(lam.lambda1[w] - opn)
    print(f"window {lam.dates[w]}: lambda1/N={lam.lambda1[w]:.6f}  "
          f"opnorm/N={opn:.6f}  diff={diff:.1e}")

rho = spectral.series_correlation(size.values, lam.lambda1)
print(f"\ncorr(trailing market size, lambda1/N) = {rho:+.4f}")
print("negative: collective co-movement is strongest when the market "
      "is small (crash regime), not when it is large")
