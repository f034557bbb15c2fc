"""Positivity of a two-sided depolarizing map, closed form vs oracle.

A single depolarizing map D_q is positive for |q| <= 1, yet the pair
D_q1 (x) D_q2 stays positive only while q1*q2 >= -1/3: one strongly
inverting factor ruins the other.  The closed form is checked here against
the minimum output eigenvalue over random pure two-qubit inputs.
"""

import numpy as np

from tensorstable import OracleConfig, PauliMap, depolarizing_pair_positive, min_output_eig, region_scan

cfg = OracleConfig(restarts=8, sample_count=256)

print("pointwise checks")
for q1, q2 in [(1.0, -0.3), (1.0, -0.4), (0.9, -0.35), (-0.8, -0.9)]:
    analytic = depolarizing_pair_positive(q1, q2)
    numeric = min_output_eig([PauliMap.depolarizing(q1), PauliMap.depolarizing(q2)], cfg)
    print(f"  q1={q1:+.2f} q2={q2:+.2f}  closed-form positive: {analytic!s:5}  "
          f"min output eigenvalue: {numeric:+.4f}")

print("\n17x17 region scan (analytic verdict vs oracle sign)")
rep = region_scan("depolarizing", steps=17, seed=0)
print(f"  summary: {rep.summary}")

grid = rep.analytic.reshape(17, 17)
qs = rep.grids[0]
print("\n  positive cells (rows q1 = -1..1, cols q2 = -1..1):")
for i in range(17):
    row = "".join("#" if grid[i, j] else "." for j in range(17))
    print(f"  q1={qs[i]:+.3f}  {row}")
print("\nThe hyperbola q1*q2 = -1/3 carves the two empty corners.")
