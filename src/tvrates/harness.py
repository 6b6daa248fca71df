"""Scenario sweeps: perturbation families, rate fitting and report emission.

A scenario fixes a base mixture, a perturbation family and a grid of scales
h; the sweep measures, for every h, the Wasserstein gap A, the weighted total
variation, and the three bound certificates, then fits the log-log rate of
rho_p against A.  Reports are deterministic: identical configuration and seed
produce byte-identical CSV and JSON files.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bounds import (
    BoundParams,
    LawEvaluation,
    PairEvaluation,
    exponential_rate_certificate,
    pointwise_certificate,
    polynomial_rate_certificate,
)
from .distributions import (
    DEFAULT_BOX_SIGMAS, GaussianMixture, _is_pow2, common_grid, gaussian,
)
from .errors import NumericalError, PreconditionError, TvratesError
from .transport import ot_entropic

__all__ = [
    "Scenario",
    "SweepReport",
    "default_scenarios",
    "perturb_pair",
    "run_sweep",
    "fit_rate",
    "emit_report",
]

PERTURBATION_KINDS = ("translate", "scale", "mixture-weight", "smoothed-sequence")

# Keys a scenario document must hold; the others have defaults.
REQUIRED_FIELDS = ("name", "base", "perturbation", "h_grid", "p", "q", "epsilon")

CSV_COLUMNS = ("h", "A", "rho_p", "tv", "rhs1", "rhs2", "psup", "prhs",
               "ok1", "ok2", "okp")


@dataclass(frozen=True)
class Scenario:
    """A named sweep configuration.

    ``h_grid`` must hold finite values > 0 in strictly
    descending order, ``box_sigmas``, ``smoothing_sigma`` and ``r_exp``
    must be finite and > 0, ``resolution`` is None or a power of two,
    ``seed`` an integer >= 0 and ``entropic_check`` a bool; a violation raises
    :class:`PreconditionError` naming the field.  The
    contaminant (for the mixture-weight and smoothed-sequence families)
    defaults to the base translated by +2.  ``entropic_check`` adds an
    entropic cross-check value to the JSON rows (never to the CSV, whose
    column order is fixed).
    """

    name: str
    base: GaussianMixture
    perturbation: str
    h_grid: tuple
    params: BoundParams
    resolution: int | None = None
    box_sigmas: float = DEFAULT_BOX_SIGMAS
    contaminant: GaussianMixture | None = None
    smoothing_sigma: float = 1.0
    r_exp: float = 1.0
    seed: int = 0
    entropic_check: bool = False

    def __post_init__(self):
        # names become report file stems, so keep them path-safe
        if not isinstance(self.name, str) or not self.name or not all(
            ch.isalnum() or ch in "._-" for ch in self.name
        ):
            raise PreconditionError(
                "scenario name must be non-empty and use only [A-Za-z0-9._-]"
            )
        if self.perturbation not in PERTURBATION_KINDS:
            raise PreconditionError(f"unknown perturbation {self.perturbation!r}")
        try:
            hs = tuple(_real(h, "h_grid") for h in self.h_grid)
        except TypeError:
            raise PreconditionError(
                f"scenario field h_grid must be a list of numbers, got {self.h_grid!r}"
            ) from None
        if not hs or not all(0 < h < math.inf for h in hs):
            raise PreconditionError("scenario field h_grid must hold finite values > 0")
        if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
            raise PreconditionError("scenario field h_grid must be strictly descending")
        object.__setattr__(self, "h_grid", hs)
        for name in ("box_sigmas", "smoothing_sigma", "r_exp"):
            value = _real(getattr(self, name), name)
            if not 0 < value < math.inf:
                raise PreconditionError(
                    f"scenario field {name} must be finite and > 0, got {value!r}"
                )
            object.__setattr__(self, name, value)
        res = self.resolution
        if res is not None:
            if isinstance(res, bool) or not (
                isinstance(res, numbers.Integral) and _is_pow2(int(res))
            ):
                raise PreconditionError(
                    f"scenario field resolution must be a power of two, got {res!r}"
                )
            object.__setattr__(self, "resolution", int(res))
        seed = self.seed
        integral = isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
        if not (integral and seed >= 0):
            raise PreconditionError(
                f"scenario field seed must be an integer >= 0, got {seed!r}"
            )
        object.__setattr__(self, "seed", int(seed))
        if not isinstance(self.entropic_check, bool):
            raise PreconditionError(
                "scenario field entropic_check must be true or false, "
                f"got {self.entropic_check!r}"
            )

    def to_json(self) -> dict:
        doc = {
            "name": self.name,
            "base": self.base.to_json(),
            "perturbation": self.perturbation,
            "h_grid": list(self.h_grid),
            "p": self.params.p,
            "q": self.params.q,
            "epsilon": self.params.epsilon,
            "box_sigmas": self.box_sigmas,
            "smoothing_sigma": self.smoothing_sigma,
            "r_exp": self.r_exp,
            "seed": self.seed,
            "entropic_check": self.entropic_check,
        }
        if self.resolution is not None:
            doc["resolution"] = self.resolution
        if self.contaminant is not None:
            doc["contaminant"] = self.contaminant.to_json()
        return doc

    @classmethod
    def from_json(cls, doc) -> "Scenario":
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, dict):
            raise PreconditionError("a scenario must be a JSON object")
        keys = ("resolution", "box_sigmas", "smoothing_sigma", "r_exp", "seed",
                "entropic_check", "contaminant")
        unknown = sorted(set(doc).difference(REQUIRED_FIELDS, keys))
        if unknown:
            raise PreconditionError(
                f"unknown scenario fields {unknown}; the known fields are "
                f"{list(REQUIRED_FIELDS + keys)}"
            )
        for key in REQUIRED_FIELDS:
            if key not in doc:
                raise PreconditionError(f"scenario field {key} is missing")
        base = _mixture(doc, "base")
        params = BoundParams(
            p=_real(doc["p"], "p"), q=_real(doc["q"], "q"),
            epsilon=_real(doc["epsilon"], "epsilon"),
        )
        optional = {key: doc[key] for key in keys if key in doc}
        if "contaminant" in doc:
            optional["contaminant"] = _mixture(doc, "contaminant")
        return cls(
            name=doc["name"], base=base, perturbation=doc["perturbation"],
            h_grid=doc["h_grid"], params=params, **optional,
        )


def _mixture(doc: dict, field: str) -> GaussianMixture:
    """The mixture of scenario field ``field``; PreconditionError names it."""
    try:
        return GaussianMixture.from_json(doc[field])
    except PreconditionError as exc:
        raise PreconditionError(f"scenario field {field}: {exc}") from None


def _real(value, field: str) -> float:
    """``value`` as a float, if it is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise PreconditionError(
            f"scenario field {field} must be a number, got {value!r}"
        )
    return float(value)


def _default_contaminant(base: GaussianMixture) -> GaussianMixture:
    return base.translate(2.0)


def _weight_blend(base, contaminant, h) -> GaussianMixture:
    if not 0 < h < 1:
        raise PreconditionError("mixture-weight scale must lie in (0, 1)")
    w = np.concatenate([base.weights * (1.0 - h), contaminant.weights * h])
    m = np.concatenate([base.means, contaminant.means])
    c = np.concatenate([base.covs, contaminant.covs])
    return GaussianMixture(w, m, c)


def perturb_pair(sc: Scenario, h: float):
    """The (reference, perturbed) pair at scale h for a scenario.

    smoothed-sequence compares the convolution-smoothed laws of the base and
    of its h-contaminated blend; the certificates therefore only ever see the
    smoothed laws, never the raw contaminated one.
    """
    base = sc.base
    if sc.perturbation == "translate":
        return base, base.translate(h)
    if sc.perturbation == "scale":
        return base, base.scale(1.0 + h)
    contaminant = sc.contaminant or _default_contaminant(base)
    blended = _weight_blend(base, contaminant, h)
    if sc.perturbation == "mixture-weight":
        return base, blended
    return base.smooth(sc.smoothing_sigma), blended.smooth(sc.smoothing_sigma)


def fit_rate(rows):
    """Least-squares slope of log rho_p against log A with its standard
    error, over rows whose gap lies in (0, 1]."""
    pts = [
        (math.log(r["A"]), math.log(r["rho_p"]))
        for r in rows
        if 0.0 < r["A"] <= 1.0 and r["rho_p"] > 0.0
    ]
    if len(pts) < 3:
        raise PreconditionError("rate fitting needs at least 3 rows with A in (0, 1]")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    resid = y - y.mean() - slope * xc
    dof = max(len(pts) - 2, 1)
    stderr = float(math.sqrt(float(resid @ resid) / dof / float(xc @ xc)))
    return slope, stderr


@dataclass(frozen=True)
class SweepReport:
    """Rows, fitted rate and metadata of one sweep; serializes to a JSON
    document."""

    scenario: dict
    rows: tuple
    slope: float
    stderr: float
    metadata: dict = field(default_factory=dict)
    failures: tuple = ()

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "rows": [dict(r) for r in self.rows],
            "slope": self.slope,
            "stderr": self.stderr,
            "metadata": dict(self.metadata),
            "failures": [list(f) for f in self.failures],
        }


def _sweep_row(sc: Scenario, h: float, pair: PairEvaluation) -> dict:
    """One report row from the row's pair at scale ``h``."""
    cert1 = polynomial_rate_certificate(pair)
    cert2 = exponential_rate_certificate(pair, r=sc.r_exp)
    certp = pointwise_certificate(pair)
    row = {
        "h": float(h),
        "A": float(pair.gap),
        "rho_p": float(pair.rho),
        "tv": float(pair.tv),
        "rhs1": float(cert1.rhs),
        "rhs2": float(cert2.rhs),
        "psup": float(certp.lhs),
        "prhs": float(certp.rhs),
        "ok1": bool(cert1.satisfied),
        "ok2": bool(cert2.satisfied),
        "okp": bool(certp.satisfied),
    }
    if sc.entropic_check:
        # coarse cross-validation column only; certificates never use it
        atoms_a = pair.a.sample(256, sc.seed)
        atoms_b = pair.b.sample(256, sc.seed + 1)
        row["wq_entropic"] = ot_entropic(
            atoms_a, atoms_b, sc.params.q, rtol=2e-2
        ).value
    return row


def run_sweep(sc: Scenario) -> SweepReport:
    """Execute every row of a scenario; a row failure is recorded and the
    sweep aborts only when more than 20% of rows fail, with a
    :class:`PreconditionError` if every failed row broke a precondition and
    a :class:`NumericalError` otherwise, naming each distinct message once.

    One grid serves the whole sweep, sized for the largest scale (whose box
    covers all smaller ones); per-row boxes would let the tail-fit window
    shift with h and add spurious jitter to the certified constants.  The
    grid keeps its meshes, radii and phase vectors, so every law of the
    sweep shares them.  Every row's pair is built up front (a pair that
    raises is a failed row); one :meth:`PairEvaluation.solve` call then
    fills in batches the quantiles and moments that the certificates read
    of all of the sweep's laws.  :func:`perturb_pair` returns the same
    reference law at every scale, so the sweep builds one
    :class:`LawEvaluation` of it, whose quantiles, densities, envelopes
    and moments every row shares; each row's perturbed evaluation is
    dropped with its row.  Nothing outlives the call.
    """
    a0, b0 = perturb_pair(sc, sc.h_grid[0])
    grid = common_grid(a0, b0, sc.box_sigmas, sc.resolution)
    reference = LawEvaluation(a0, grid)

    def build(h):
        try:
            b = perturb_pair(sc, h)[1]
            return PairEvaluation.of_laws(reference, LawEvaluation(b, grid), sc.params)
        except TvratesError as exc:
            return exc

    pairs = [build(h) for h in sc.h_grid]
    PairEvaluation.solve([pair for pair in pairs if isinstance(pair, PairEvaluation)])
    rows, errors = [], []
    for i, h in enumerate(sc.h_grid):
        # the list lets go of each pair once its row is done
        pair, pairs[i] = pairs[i], None
        if isinstance(pair, TvratesError):
            errors.append((h, pair))
            continue
        try:
            rows.append(_sweep_row(sc, h, pair))
        except TvratesError as exc:
            errors.append((h, exc))
    failures = tuple((h, str(exc)) for h, exc in errors)
    if len(failures) > 0.2 * len(sc.h_grid):
        # rows that all broke a precondition are the input's fault
        precondition = all(isinstance(exc, PreconditionError) for _, exc in errors)
        raise (PreconditionError if precondition else NumericalError)(
            f"sweep {sc.name!r}: {len(failures)} of {len(sc.h_grid)} rows failed: "
            + "; ".join(dict.fromkeys(msg for _, msg in failures))
        )
    slope, stderr = fit_rate(rows)
    metadata = {
        "seed": sc.seed,
        "resolution": sc.resolution,
        "box_sigmas": sc.box_sigmas,
        "version": __version__,
    }
    return SweepReport(
        scenario=sc.to_json(),
        rows=tuple(rows),
        slope=slope,
        stderr=stderr,
        metadata=metadata,
        failures=failures,
    )


def default_scenarios() -> list[Scenario]:
    """The standard validation suite: one scenario per perturbation family
    on a standard normal base.

    The two largest scales exercise the constant-bound fallback; the three
    smallest sit inside the exponential regime's small-gap branch and are
    small enough that the per-row envelope constants are stable to well
    under a percent (the scale grids differ per family because the laws
    themselves drift with h at different speeds).
    """
    params = BoundParams(p=2.0, q=2.0, epsilon=0.1)
    base = gaussian(0.0, 1.0)
    grids = {
        "translate": (0.5, 0.1, 1e-2, 1e-3, 1e-4),
        "scale": (0.5, 0.1, 3e-3, 3e-4, 3e-5),
        "mixture-weight": (0.5, 0.1, 3e-3, 3e-4, 3e-5),
        "smoothed-sequence": (0.5, 0.1, 1e-3, 1e-4, 1e-5),
    }
    return [
        Scenario(
            name=f"gaussian-{kind}", base=base, perturbation=kind,
            h_grid=grids[kind], params=params,
        )
        for kind in PERTURBATION_KINDS
    ]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_text(report: SweepReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _svg_text(report: SweepReport) -> str:
    """Log-log plot with exactly three polylines: measured rho_p, then the
    polynomial-regime and exponential-regime certificate curves."""
    width, height, margin = 640, 480, 60
    series = []
    for key in ("rho_p", "rhs1", "rhs2"):
        pts = [
            (row["A"], row[key])
            for row in report.rows
            if row["A"] > 0 and row[key] > 0 and math.isfinite(row[key])
        ]
        series.append(pts)
    allpts = [p for s in series for p in s]
    if allpts:
        xs = [math.log10(p[0]) for p in allpts]
        ys = [math.log10(p[1]) for p in allpts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    else:
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def to_px(a, v):
        px = margin + (math.log10(a) - x0) / xspan * (width - 2 * margin)
        py = height - margin - (math.log10(v) - y0) / yspan * (height - 2 * margin)
        return f"{px:.2f},{py:.2f}"

    colors = ("#1f77b4", "#d62728", "#2ca02c")
    labels = ("measured rho_p", "certificate rhs (poly regime)",
              "certificate rhs (exp regime)")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">log10 A (Wasserstein gap)</text>',
    ]
    for pts, color, label in zip(series, colors, labels):
        coords = " ".join(to_px(a, v) for a, v in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        parts.append(
            f'<circle cx="{width - 230}" cy="{30 + 18 * colors.index(color)}" '
            f'r="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - 220}" y="{34 + 18 * colors.index(color)}" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _json_text(report: SweepReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


# The text of each report format.
_REPORT_TEXT = {"csv": _csv_text, "json": _json_text, "svg": _svg_text}


def _check_formats(formats) -> tuple:
    """``formats`` as a tuple; PreconditionError names the first unknown one."""
    formats = tuple(formats)
    for fmt in formats:
        if fmt not in _REPORT_TEXT:
            raise PreconditionError(f"unknown report format {fmt!r}")
    return formats


def emit_report(report: SweepReport, out_dir, formats=("csv", "json")) -> list[str]:
    """Write the report in the requested formats; returns the file paths.
    Every format is checked before any file is written.  Output is
    byte-deterministic for a fixed report."""
    formats = _check_formats(formats)
    os.makedirs(out_dir, exist_ok=True)
    name = report.scenario["name"]
    paths = []
    for fmt in formats:
        path = os.path.join(out_dir, f"{name}.{fmt}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_REPORT_TEXT[fmt](report))
        paths.append(path)
    return paths
