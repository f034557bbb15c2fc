"""Classifying qubit maps with a translation along the third Bloch axis.

Strictly inside the positivity cone the translated map factors through a
Pauli map between two diagonal conjugations, so every unital criterion
transfers.  This demo reduces a few maps, reconstructs them from the
factorization, and sweeps a slice of the t = 0.8 stability region.
"""

import numpy as np

from tensorstable import (
    NonUnitalFamilyMap,
    classify_nonunital_positive,
    ghz_output_conditions,
    is_2tsp_nonunital,
    reduce_to_unital,
)
from tensorstable.linalg import SIGMA
from tensorstable.maps import GeneralQubitMap, PauliMap

print("reduction to unital form")
for t, lam3 in [(0.0, (0.3, -0.5, 0.7)), (0.5, (0.4, 0.2, 0.1)), (0.8, (0.0, 0.0, 0.0))]:
    m = NonUnitalFamilyMap(t=t, lam3=lam3)
    rr = reduce_to_unital(m)
    ratios = tuple(round(float(v), 4) for v in rr.tilde_ratio)
    print(f"  t={t}: l={lam3} -> normalized Pauli coefficients {ratios}")

print("\nreconstruction check: B Y[A X A+] B+ against the original action")
m = NonUnitalFamilyMap(t=0.6, lam3=(0.25, -0.15, 0.2))
rr = reduce_to_unital(m)
a, b = np.linalg.inv(rr.a_inv), np.linalg.inv(rr.b_inv)
pauli = PauliMap(tuple(rr.tilde_lam))
gen = GeneralQubitMap(m.matrix)
residual = max(
    np.abs(b @ pauli.apply(a @ s @ a.conj().T) @ b.conj().T - gen.apply(s)).max()
    for s in SIGMA
)
print(f"  worst residual over the basis: {residual:.2e}")

print("\nthree verdicts across the cone at l = (0.3, 0.1, l3), t = 0.5")
for l3 in (0.0, 0.2, 0.4, 0.5, 0.6):
    m = NonUnitalFamilyMap(t=0.5, lam3=(0.3, 0.1, l3))
    pos = classify_nonunital_positive(m).satisfied
    ghz = ghz_output_conditions(m).satisfied
    stable = is_2tsp_nonunital(m).satisfied if m.interior_gap() > 1e-12 else "n/a"
    print(f"  l3={l3:.1f}  positive: {pos!s:5}  entangled-output: {ghz!s:5}  2-stable: {stable}")

print("\nslice of the t = 0.8 two-fold stability region (l3 = 0)")
grid = np.linspace(-1, 1, 21)
for l1 in grid[::2]:
    row = ""
    for l2 in grid:
        m = NonUnitalFamilyMap(t=0.8, lam3=(l1, l2, 0.0))
        row += "#" if is_2tsp_nonunital(m).satisfied else "."
    print(f"  l1={l1:+.1f}  {row}")
