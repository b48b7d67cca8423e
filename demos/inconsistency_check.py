"""Does big = calm hold up better than big = profitable?

Ranks assets by trailing cap, summed return and volatility per window,
turns the pairwise gaps into [0,1] affinities, and measures how much the
size structure disagrees with each of the other two.
"""

import numpy as np

import cryptodynamics as cd
from cryptodynamics import inconsistency

S = 90

returns = cd.log_returns(cd.simulated_market())
vol = inconsistency.rolling_volatility(returns, S)
series = inconsistency.inconsistency_norms(returns, vol)

frac = np.mean(series.nu_MSigma < series.nu_MR)
print(f"{len(series.dates)} windows ({series.dates[0]} .. {series.dates[-1]})")
print(f"mean nu(size vs returns)    = {series.nu_MR.mean():.4f}")
print(f"mean nu(size vs volatility) = {series.nu_MSigma.mean():.4f}")
print(f"size-volatility is the more consistent pairing on "
      f"{100 * frac:.1f}% of dates")

worst = int(np.argmax(series.nu_MR))
print(f"\nlargest size-vs-returns disagreement: {series.dates[worst]} "
      f"(nu={series.nu_MR[worst]:.4f})")
