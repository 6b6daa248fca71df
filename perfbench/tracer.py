"""Span tracing of tvrates' public functions, installed from outside the
package.

:class:`Tracer` replaces every binding of each traced function (the defining
module's attribute, the ``from ... import`` copies in other tvrates modules
and the package namespace) with a wrapper that records a span: function,
op id, start and end.  A span's parent is the innermost span that encloses
it in time, and its self time is its duration minus its children's.  Spans
stay in memory until the run ends.  ``uninstall`` restores the original
objects, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
from time import perf_counter

import numpy as np

import tvrates

# Traced functions per layer.  ``Class.method`` names a method; ``hermgauss``
# is numpy's Gauss-Hermite node routine as transport calls it.
LAYERS = {
    "distributions": ("discretize", "common_grid", "GaussianMixture.quantile",
                      "GaussianMixture.cdf", "GaussianMixture.abs_moment"),
    "spectral": ("char_fn_grid", "poly_envelope", "exp_envelope",
                 "density_derivative"),
    "transport": ("wasserstein_1d", "rho_p", "tv_mass", "ot_exact",
                  "ot_entropic", "hermgauss"),
    "bounds": ("polynomial_rate_certificate", "exponential_rate_certificate",
               "pointwise_certificate"),
    "harness": ("run_sweep", "emit_report"),
    "cli": ("main",),
}

# Functions whose distinct argument sets are counted (useful work).
KEYED = ("transport.wasserstein_1d", "transport.rho_p",
         "spectral.char_fn_grid", "distributions.discretize")


def _fingerprint(x):
    """Hashable identity of an argument's value."""
    if isinstance(x, np.ndarray):
        return x.shape, hashlib.blake2b(np.ascontiguousarray(x).tobytes(),
                                        digest_size=16).digest()
    if isinstance(x, tvrates.GaussianMixture):
        return tuple(_fingerprint(v) for v in (x.weights, x.means, x.covs))
    if isinstance(x, tvrates.GridDensity):
        return x.grid, _fingerprint(x.values)
    if isinstance(x, (list, tuple)):
        return tuple(_fingerprint(v) for v in x)
    return x


def _keyer(fn):
    sig = inspect.signature(fn)

    def key(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(_fingerprint(v) for v in bound.arguments.values())

    return key


def _targets():
    """``(name, original, binding sites)`` for each traced function; a site
    is ``(label, owner, attr)``."""
    mods = {layer: importlib.import_module(f"tvrates.{layer}") for layer in LAYERS}
    namespaces = [("tvrates", tvrates)] + list(mods.items())
    out = []
    for layer, specs in LAYERS.items():
        for spec in specs:
            name = f"{layer}.{spec.rsplit('.', 1)[-1]}"
            if spec == "hermgauss":
                owner = np.polynomial.hermite
                sites = [("numpy.polynomial.hermite.hermgauss", owner, spec)]
            elif "." in spec:
                cls, attr = spec.split(".")
                owner = getattr(mods[layer], cls)
                sites = [(f"{layer}.{spec}", owner, attr)]
            else:
                fn = getattr(mods[layer], spec)
                sites = [(f"{ns}.{attr}", mod, attr)
                         for ns, mod in namespaces
                         for attr, val in vars(mod).items() if val is fn]
            original = getattr(sites[0][1], sites[0][2])
            out.append((name, original, sites))
    return out


class Tracer:
    def __init__(self):
        self.targets = _targets()
        self.names = [name for name, _, _ in self.targets]
        self.site_hits = {label: 0 for _, _, sites in self.targets
                          for label, _, _ in sites}
        self._wrappers = []
        for fid, (name, original, sites) in enumerate(self.targets):
            keyer = _keyer(original) if name in KEYED else None
            for label, owner, attr in sites:
                self._wrappers.append(
                    (owner, attr, original, self._wrap(fid, label, original, keyer))
                )
        self.spans = []  # (function id, op id, start, end, returned normally)
        self.keys = []  # (function id, pass id, argument key) for KEYED functions
        self.op_id = -1
        self.pass_id = -1

    def _wrap(self, fid, label, fn, keyer):
        """A span is one ``list.append`` of a finished tuple, so a deadline
        exception raised between any two bytecodes can lose a span but never
        leaves partial state; parents are recovered from time containment."""
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tr.site_hits[label] += 1
            if keyer is not None:
                tr.keys.append((fid, tr.pass_id, keyer(args, kwargs)))
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                tr.spans.append((fid, tr.op_id, t0, perf_counter(), ok))

        return traced

    def install(self, pass_id: int) -> None:
        self.pass_id = pass_id
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._wrappers:
            setattr(owner, attr, original)

    def _parents(self) -> list:
        """Index of each span's innermost enclosing span, or -1."""
        order = sorted(range(len(self.spans)),
                       key=lambda i: (self.spans[i][2], -self.spans[i][3]))
        parent = [-1] * len(self.spans)
        open_spans = []
        for i in order:
            start = self.spans[i][2]
            while open_spans and self.spans[open_spans[-1]][3] <= start:
                open_spans.pop()
            if open_spans:
                parent[i] = open_spans[-1]
            open_spans.append(i)
        return parent

    def metrics(self, n_passes: int, failed_ops: set) -> tuple[dict, dict]:
        """Per-pass metrics, and per-pass call counts over the ops that
        completed (a hung op's inner call counts depend on when its deadline
        fired, so only completed ops repeat exactly)."""
        nf = len(self.names)
        fid_of = {name: i for i, name in enumerate(self.names)}
        rho, quantile = fid_of["transport.rho_p"], fid_of["distributions.quantile"]
        cdf, discretize = fid_of["distributions.cdf"], fid_of["distributions.discretize"]
        parent = self._parents()
        child_s = [0.0] * len(self.spans)
        disc_children = {}
        for i, (f, _, t0, t1, _) in enumerate(self.spans):
            p = parent[i]
            if p >= 0:
                child_s[p] += t1 - t0
                if f == discretize:
                    disc_children[p] = disc_children.get(p, 0) + 1
        calls, calls_ok, errors = [0] * nf, [0] * nf, [0] * nf
        self_s = [0.0] * nf
        refinements = cdf_in_quantile = 0
        for i, (f, op, t0, t1, ok) in enumerate(self.spans):
            calls[f] += 1
            self_s[f] += t1 - t0 - child_s[i]
            errors[f] += not ok
            if op not in failed_ops:
                calls_ok[f] += 1
            if f == rho:
                # two discretizations, then two per refinement of the grid
                refinements += max(0, disc_children.get(i, 0) - 2) // 2
            elif f == cdf and parent[i] >= 0 and self.spans[parent[i]][0] == quantile:
                cdf_in_quantile += 1
        distinct = {}
        for f, pass_id, key in self.keys:
            distinct.setdefault((f, pass_id), set()).add(key)
        useful = [0] * nf
        for (f, _), keys in distinct.items():
            useful[f] += len(keys)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for f, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[f] / n_passes
            out[f"{name}.self_s"] = self_s[f] / n_passes
            out[f"{name}.errors"] = errors[f] / n_passes
        for name in KEYED:
            out[f"{name}.useful_ratio"] = ratio(useful[fid_of[name]], calls[fid_of[name]])
        out["transport.rho_p.refinements_per_call"] = ratio(refinements, calls[rho])
        out["distributions.quantile.cdf_per_call"] = ratio(cdf_in_quantile, calls[quantile])
        ok_counts = {name: calls_ok[f] / n_passes for f, name in enumerate(self.names)}
        return out, ok_counts
