"""Characteristic-function grids, the power derivative operator d^p/du^p,
and the weighted-difference reconstruction.

The key identity: the inverse transform of the difference of the two
power-derivative grids recovers (f_a - f_b)(x) * x^p pointwise, which is
how the certificate engine controls weighted densities by frequency data.

Run: python3 demos/03_spectral_machinery.py
"""

import numpy as np

from tvrates import (
    SpaceGrid,
    char_fn_grid,
    delta_p_char,
    discretize,
    gaussian,
    weighted_diff_reconstruct,
)

base = gaussian(0.0, 1.0)
# the density at the midpoints of 4096 cells on [-10, 10]
f = discretize(base, SpaceGrid(-10, 10, 4096))
freq = f.grid.freqs()


def nearest_node(u):
    return freq[np.abs(freq - u).argmin()]


print("== characteristic grid vs the exact formula (at grid nodes) ==")
cg = char_fn_grid(f)
for u in (0.0, 1.0, 3.0):
    node = nearest_node(u)
    print(f"phi({node:+.4f})  grid {cg.value_at(u):.12f}   "
          f"exact {base.char_fn(node):.12f}")

print()
print("== second derivative of phi ==")
dp = delta_p_char(f, 2)
for u in (0.0, 1.0, 2.0):
    node = nearest_node(u)
    exact = (node * node - 1.0) * np.exp(-node * node / 2.0)
    print(f"d^2 phi/du^2 at {node:+.4f}: grid {dp.value_at(u).real:+.10f}  "
          f"exact {exact:+.10f}")

print()
print("== weighted difference reconstructed from frequency data ==")
other = gaussian(0.5, 1.0)
grid, vals = weighted_diff_reconstruct(base, other, 2)
x = grid.nodes()
direct = (base.pdf(x) - other.pdf(x)) * x**2
print(f"sup |reconstruction - direct product| = {np.abs(vals - direct).max():.2e}")
idx = np.abs(vals).argmax()
print(f"largest weighted deviation at x = {x[idx]:+.3f}: {vals[idx]:+.6f}")
