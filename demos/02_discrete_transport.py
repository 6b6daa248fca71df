"""Discrete optimal transport: the exact solver against annealed Sinkhorn.

The exact route returns the optimal plan: by sorting in one dimension (the
monotone coupling, so the 512-atom quantile clouds below take milliseconds),
and in higher dimensions only as an assignment, when both sides have n atoms
of equal mass (the 64-atom 2-D clouds below, with a duality-gap error from
potentials of the matching); any other pair in d > 1 is a PreconditionError,
and the annealed Sinkhorn route below serves it.  The entropic route reports
the cost of a rounded feasible plan (an upper bound) together with a
duality-gap error estimate, so its accuracy is certified per run.

Run: python3 demos/02_discrete_transport.py
"""

import numpy as np

from tvrates import AtomSet, gaussian, ot_entropic, ot_exact, wasserstein_1d

rng = np.random.default_rng(0)

print("== tiny instance with a unique plan ==")
split = AtomSet(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
center = AtomSet(np.array([[0.5]]), np.array([1.0]))
res, plan = ot_exact(split, center, q=1)
print(f"W_1 = {res.value}   plan =\n{plan.matrix}")

print()
print("== 64-atom clouds: exact vs entropic ==")
a = AtomSet(rng.normal(size=(64, 2)), np.full(64, 1 / 64))
b = AtomSet(rng.normal(size=(64, 2)) * 1.2 + 0.3, np.full(64, 1 / 64))
exact, _ = ot_exact(a, b, q=2)
ent = ot_entropic(a, b, q=2)
print(f"exact    W_2 = {exact.value:.8f}")
print(f"entropic W_2 = {ent.value:.8f}  (upper bound; certified gap {ent.err:.2e})")
print(f"relative excess: {(ent.value - exact.value) / exact.value:.2e}")

print()
print("== quantile atoms converge to the continuous distance ==")
base, other = gaussian(0.0, 1.0), gaussian(0.3, 1.44)
w_cont = wasserstein_1d(base, other, 2).value
for n in (32, 128, 512):
    u = (np.arange(n) + 0.5) / n
    atoms_a = AtomSet(base.quantile(u)[:, None], np.full(n, 1 / n))
    atoms_b = AtomSet(other.quantile(u)[:, None], np.full(n, 1 / n))
    w_disc = ot_exact(atoms_a, atoms_b, 2)[0].value
    print(f"n = {n:4d}: |W_2(atoms) - W_2(laws)| = {abs(w_disc - w_cont):.2e}")
