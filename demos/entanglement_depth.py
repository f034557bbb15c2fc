"""Entanglement-depth detection with tensor-stable positive maps.

A map whose n-fold tensor power is positive cannot produce negative
eigenvalues on states assembled from blocks of at most n qubits, so a
negative output eigenvalue pushes the entanglement depth above n.  This
demo witnesses noisy GHZ and W states and locates the detection onsets.
"""

import numpy as np

from tensorstable import HermitianOperator, MultiQubitState, build_state, depth_witness, threshold_search
from tensorstable.criteria import hyperboloid_point

print("single witness runs on the noisy GHZ state")
boundary = hyperboloid_point(2**0.5 - 1, 2**0.5 - 1) * (1 - 1e-9)
witness_map = np.array([-boundary[0], -boundary[2], boundary[1]])  # rotate axes
for q in (0.6, 0.72, 0.9):
    state = build_state("ghz", q=q)
    v = depth_witness(state, witness_map, n=2)
    tag = f"depth >= {v.lower_bound}" if v.lower_bound > 1 else "inconclusive"
    print(f"  q={q:.2f}: min output eigenvalue {v.neg_eig:+.4f} -> {tag}")

print("\ndetection thresholds over scanned certified map families")
for family, n, meaning in [
    ("ghz", 1, "not fully separable"),
    ("ghz", 2, "genuinely entangled"),
    ("w", 1, "not fully separable"),
    ("w", 2, "genuinely entangled"),
]:
    res = threshold_search(family, n, steps=21)
    lam = tuple(round(float(v), 3) for v in res.witness)
    print(
        f"  {family:3} n={n}: {meaning} for q > {res.q_star:.3f} "
        f"(witness l = {lam})"
    )

print("\nproduct states stay undetected (soundness)")
rng = np.random.default_rng(3)
for trial in range(3):
    blocks = []
    for _ in range(3):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = a @ a.conj().T
        blocks.append(rho / np.trace(rho).real)
    prod = np.kron(np.kron(blocks[0], blocks[1]), blocks[2])
    state = MultiQubitState(HermitianOperator(prod, (2, 2, 2)))
    v = depth_witness(state, rng.uniform(-1, 1, 3), n=1)
    print(f"  random product state {trial}: lower bound {v.lower_bound}")
