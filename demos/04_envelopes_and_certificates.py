"""Decay envelopes and fully explicit bound certificates.

A certificate instantiates one of the rate inequalities

    rho_p <= (2 Cbar_{l,p} + Cbar_{l,0}) * A^theta      (polynomial regime)
    rho_p <= C'''' * A * |ln A|^(2d+1)                  (exponential regime)

for a concrete pair with measured Wasserstein gap A, with every constant in
the chain recorded in a ledger.  The envelope constants are grid maxima, so
certificates are labeled "empirical".  Both certificates read one
``PairEvaluation``, which measures the gap, rho_p and the pair's
characteristic functions once.

Run: python3 demos/04_envelopes_and_certificates.py
"""

import json
import math

from tvrates import (
    BoundParams,
    PairEvaluation,
    SpaceGrid,
    char_fn_grid,
    discretize,
    exp_envelope,
    exponential_rate_certificate,
    gaussian,
    poly_envelope,
    polynomial_rate_certificate,
)

base = gaussian(0.0, 1.0)
# the density at the midpoints of 4096 cells on [-10, 10]
f = discretize(base, SpaceGrid(-10, 10, 4096))

print("== polynomial decay table of the standard normal (density side) ==")
tab = poly_envelope(f, 2, 4)
for k in range(3):
    row = "  ".join(f"{tab.get(k, l):10.4f}" for l in range(5))
    print(f"k={k}:  {row}")

print()
print("== exponential decay constants of its characteristic function ==")
et = exp_envelope(char_fn_grid(f), 2)
for k in sorted(et.rates):
    print(f"k={k}: rate r = {et.rates[k]:.4f}, integral c = {et.integrals[k]:.2f}")

params = BoundParams(p=2.0, q=2.0, epsilon=0.1)
pair = PairEvaluation(base, gaussian(1e-3, 1.0), params)

print()
print("== both certificates for N(0,1) vs N(0.001, 1) ==")
c1 = polynomial_rate_certificate(pair)
print(f"polynomial regime: lhs {c1.lhs:.3e} <= rhs {c1.rhs:.3e}  "
      f"(l = {c1.l}, theta = {c1.ledger.theta[(c1.l, 2)]:.4f}, "
      f"satisfied = {c1.satisfied})")

c2 = exponential_rate_certificate(pair)
shape = c2.rhs / (c2.A * abs(math.log(c2.A)) ** 3)
print(f"exponential regime: lhs {c2.lhs:.3e} <= rhs {c2.rhs:.3e}  "
      f"(rhs = {shape:.3f} * A |ln A|^3, satisfied = {c2.satisfied})")
print(f"the exponential regime wins by a factor {c1.rhs / c2.rhs:.2e}")

print()
print("== the exponential certificate's constant ledger ==")
print(json.dumps(c2.to_json()["constants"]["extra"], indent=2, sort_keys=True))
