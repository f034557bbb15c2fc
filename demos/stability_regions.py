"""Tensor-stability criteria for Pauli maps and the lifting recurrence.

Walks the family l = (t, 0, t) through the nested stability regions,
locates the exact boundary constants by bisection against numerical
oracles, and shrinks maps level by level with the entanglement-breaking
admixture bound.
"""

import numpy as np

from tensorstable import (
    PauliMap,
    is_2tsp,
    is_3tsp,
    lift_ntsp,
    lift_x_max,
    max_entangled_projector,
    ntsp_necessary,
    ntsp_sufficient_ball,
    squared_map_choi_eigs,
    tensor_apply,
)
from tensorstable.witness import ghz_variants

print("the (t, 0, t) family")
for t in (0.5, 0.63, 0.6299605249474366, 0.64, 0.70, 0.7071067811865476, 0.71, 0.8):
    lam = (t, 0.0, t)
    print(
        f"  t={t:.6f}  2-stable: {is_2tsp(lam).satisfied!s:5}  "
        f"3-stable: {is_3tsp(lam).satisfied!s:5}  "
        f"(choi min eig {squared_map_choi_eigs(lam)[0]:+.5f})"
    )

print("\nboundaries by bisection against numerical oracles")
psi = max_entangled_projector()


def doubled_min_eig(t):
    m = PauliMap.unital((t, 0.0, t))
    return tensor_apply([m, m], psi).min_eig()


variants = ghz_variants()


def tripled_min_eig(t):
    m = PauliMap.unital((t, 0.0, t))
    return min(tensor_apply([m, m, m], s.rho).min_eig() for s in variants)


for name, oracle, expected in [
    ("2-stability", doubled_min_eig, 2**-0.5),
    ("3-stability", tripled_min_eig, 2 ** (-2 / 3)),
]:
    lo, hi = 0.5, 1.0
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if oracle(mid) >= -1e-12 else (lo, mid)
    print(f"  {name}: t* = {(lo + hi) / 2:.6f}   (exact {expected:.6f})")

print("\nlifting chain from the positivity boundary")
lam = np.array([1.0, 0.0, 1.0])
for n in (1, 2, 3):
    xm = lift_x_max(lam, n)
    lam = lift_ntsp(lam, n)
    label = {1: "2-stable", 2: "3-stable", 3: "4-stable"}[n]
    print(f"  n={n}: x_max={xm:.4f} -> l=({lam[0]:.4f}, 0, {lam[2]:.4f})  certified {label}")

print("\nnecessary region vs power-sum ball at n=4")
rng = np.random.default_rng(11)
inside = both = 0
for _ in range(3000):
    p = rng.uniform(-1, 1, 3)
    ball = ntsp_sufficient_ball(p, 4)
    nec = ntsp_necessary(p, 4).satisfied
    inside += ball
    both += ball and nec
print(f"  {inside} ball points sampled, {both} of them inside the necessary region")
