"""Decomposing doubled maps into completely positive and co-positive parts.

Two worked decompositions for doubled qubit maps that are positive without
being completely positive or co-positive.  The first factors the doubled
boundary map through a CP two-qubit map composed with the average of the
identity and the doubled transposition; the second exhibits a whole convex
family of non-trivially stable maps.
"""

import numpy as np

from tensorstable import classify, decomposability_fixtures, is_2tsp
from tensorstable.oracles import ex2_family

rep = decomposability_fixtures()

print("first decomposition")
print(f"  two-qubit factor map F: smallest Choi eigenvalue {rep.ex1_choi_min_eig:+.2e} (CP)")
print(f"  identity residual of Y(x)Y = F . (Id(x)Id + T(x)T)/2: {rep.ex1_identity_residual:.2e}")

print("\nsecond decomposition")
print(f"  factor map Choi minimum: {rep.ex2_choi_min_eig:+.2e} (CP)")
print(
    f"  mixture at mu={rep.ex2_mu}: 2-stable={rep.ex2_is_2tsp}, "
    f"CP={rep.ex2_cp}, CcP={rep.ex2_ccp}  (non-trivial window 0 < mu < 3/13)"
)

print("\nthe convex family across the window boundary")
for mu in (0.0, 0.05, 0.1, 0.2, 3 / 13, 0.25, 0.5, 1.0):
    m = ex2_family(mu)
    r = classify(m)
    kind = "non-trivial" if (is_2tsp(m.lam3).satisfied and not r.cp and not r.ccp) else "trivial"
    print(
        f"  mu={mu:.3f}  2-stable={is_2tsp(m.lam3).satisfied!s:5} "
        f"CP={r.cp!s:5} CcP={r.ccp!s:5}  {kind}"
    )
