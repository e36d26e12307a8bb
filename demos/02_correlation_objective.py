#!/usr/bin/env python3
"""Why envelope correlation makes a good training objective.

Sweeps constructed vector pairs across the full correlation range and
prints the gradient magnitude at each point: it peaks where the estimate
is uncorrelated with the target, shrinks monotonically as the correlation
improves, and vanishes only at the perfect solution, so plain gradient
descent never stalls anywhere else.
"""

import numpy as np

from envgain import cost, elc, elc_grad_norm
from envgain.verification import correlation_grid_pairs

grid, pairs = correlation_grid_pairs(n_points=21)
print("correlation L   |gradient|   (unit centered norm)")
for ell, (x, xh) in zip(grid, pairs):
    norm = elc_grad_norm(x, xh)
    bar = "#" * int(round(40 * norm))
    print(f"   {ell:+5.2f}        {norm:6.4f}     {bar}")

# the closed form agrees with the norm of the coordinate-wise gradient
rng = np.random.default_rng(1)
x = rng.uniform(0, 1, 30)
xh = rng.uniform(0, 1, 30)
_, grads, _ = cost.elc_batch(x[None], xh[None])
direct = np.linalg.norm(grads[0])
closed = elc_grad_norm(x, xh)
print(f"\nrandom pair: correlation {elc(x, xh):+.4f}")
print(f"  gradient norm, coordinate-wise: {direct:.12f}")
print(f"  gradient norm, closed form:     {closed:.12f}")
print(f"  difference: {abs(direct - closed):.2e}")
