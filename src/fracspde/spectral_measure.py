"""Spectral measures of the noise covariance and their frequency integrals.

A measure is stored by its spectral density m(|xi|) (all catalog members
are radial).  Conventions, pinned by the white-noise Gaussian test case:
the covariance function is Gamma(x) = int m(xi) exp(i<x, xi>) dxi, so
space-time white noise has the constant density (2*pi)^-d.

Catalog
-------
white       m(r) = (2*pi)^-d                    (Gamma = delta_0)
riesz       m(r) = c_{gamma,d} r^(gamma-d)      (Gamma = |x|^-gamma), 0<gamma<d
bessel      m(r) = (2*pi)^-d (1+r^2)^(-beta/2)  (Gamma = Bessel kernel), beta>0
free_field  m(r) = (2*pi)^(-d/2) (r^2+m^2)^-1   (massive free field), m>0
tabulated   piecewise-linear samples on a finite radial band

High-frequency admissibility asks whether int m / (1 + W(xi))^eta is
finite, with W(xi) = sum_i |xi_i|^alpha_i the anisotropic frequency
weight.  Closed-form thresholds are implemented for the alpha == 2
families, for white noise at any alpha and for band-limited (tabulated)
densities, which are finite at every eta; everything else goes through
dyadic-annulus quadrature with power-law tail extrapolation: integrate
over shells W in [2^k, 2^(k+1)), and read an integral as finite exactly
when both scans below settle; the log-contribution slope over the top
shells is reported with it and drives critical_eta.  Shells are
evaluated in batches, with integrands applied elementwise to node arrays
of any shape; a kept shell that is not finite raises
NumericalConsistencyError.

Two scans walk outward from W = 1, up and down, and each stops at the
first shell where one of these holds: the shell reaches the band of a
band-limited density; three shells in a row are quiet (below _REL_TOL
of the running total); 40 shells in a row grow (upward only, which is
divergence); or the tail is geometric, its last _TAIL_FIT_SHELLS + 1
shells positive, decaying faster than CONVERGENT_SLOPE, with log2 ratios
that agree within _GEOMETRIC_SPREAD (never past a band).  Otherwise a
scan runs to the end of the shell range, 2^-340 or 2^339.  A geometric
tail, met early or at the end of the range, is extended to infinity by
_extrapolated_sum.  Every rule is checked shell by shell, so no value
depends on the batching.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, asdict, fields
from functools import cache, lru_cache

import numpy as np

from .errors import (
    AccuracyWarning,
    ConstraintViolationError,
    DivergenceError,
    NumericalConsistencyError,
)
from .fields import FractionalIndex, Grid, _check_dimensions, _integer

__all__ = [
    "SpectralMeasure",
    "AdmissibilityReport",
    "admissibility",
    "closed_form_critical_eta",
    "critical_eta",
    "cumulative_bound_check",
    "CumulativeBoundReport",
    "weighted_spectral_integral",
    "WeightedIntegralReport",
    "spectral_integral",
]

# each kind's own parameters; every other field keeps its default
_KINDS = {"white": (), "riesz": ("gamma",), "bessel": ("beta",),
          "free_field": ("mass",), "tabulated": ("radii", "values")}

# a scan's tail counts as decaying (log2 contribution per dyadic shell)
# only below CONVERGENT_SLOPE, in its geometric stop and at the end of its
# range.  The ratios there lie deep in the power-law regime, so their
# noise floor is far below this margin; the margin is set by the required
# 2% decision band around critical parameters.
CONVERGENT_SLOPE = -0.01
_TAIL_FIT_SHELLS = 5
# widest spread of the log2 ratios of _TAIL_FIT_SHELLS + 1 shells that
# still counts as one geometric decay: a few hundred times the round-off
# of a shell's log2 ratio
_GEOMETRIC_SPREAD = 1e-12

N_RADIAL = 24  # log-radial nodes per dyadic shell: the one quadrature knob
_N_THETA = 48  # angular nodes per axis
_REL_TOL = 1e-10  # three shells this small relative to the total end a scan
_K_RANGE = range(-340, 340)  # the shells 2^k a scan may visit
_CRITICAL_ETA_TOL = 0.01  # tail-slope shift at which critical_eta stops
_BATCH_NODES = 2**14  # most quadrature nodes of the shells evaluated at once


@dataclass(frozen=True)
class SpectralMeasure:
    """A member of the spectral-density catalog."""

    kind: str
    d: int
    gamma: float | None = None
    beta: float | None = None
    mass: float | None = None
    radii: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _KINDS):
            raise ConstraintViolationError(f"unknown measure kind {self.kind!r}")
        own = ("kind", "d", *_KINDS[self.kind])
        extra = [f.name for f in fields(self) if f.name not in own
                 and getattr(self, f.name) is not f.default]
        if extra:
            raise ConstraintViolationError(
                f"a {self.kind} measure takes no {extra[0]}")
        if not (_integer(self.d) and self.d >= 1):
            raise ConstraintViolationError(
                f"dimension must be an integer >= 1, got {self.d!r}")
        param = {"riesz": self.gamma, "bessel": self.beta,
                 "free_field": self.mass}.get(self.kind, 0.0)
        if not (isinstance(param, numbers.Real) and math.isfinite(param)):
            raise ConstraintViolationError(
                f"{self.kind} parameter must be a finite number, got {param!r}"
            )
        if self.kind == "riesz" and not (0 < self.gamma < self.d):
            raise ConstraintViolationError(
                f"riesz exponent must lie in (0, d), got {self.gamma}"
            )
        if self.kind == "bessel" and not self.beta > 0:
            raise ConstraintViolationError("bessel order must be > 0")
        if self.kind == "free_field" and not self.mass > 0:
            raise ConstraintViolationError("free-field mass must be > 0")
        if self.kind == "tabulated":
            r = np.asarray(self.radii, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if r.size < 2 or r.size != v.size:
                raise ConstraintViolationError(
                    "tabulated measure needs matching radii/values, >= 2 points"
                )
            if not (np.isfinite(r).all() and np.isfinite(v).all()):
                raise ConstraintViolationError(
                    "tabulated radii and values must be finite")
            if (np.diff(r) <= 0).any() or r[0] < 0:
                raise ConstraintViolationError("radii must be increasing, >= 0")
            if (v < 0).any():
                raise ConstraintViolationError("tabulated density must be >= 0")

    # -- constructors -------------------------------------------------
    @classmethod
    def white(cls, d):
        return cls("white", d)

    @classmethod
    def riesz(cls, gamma, d):
        return cls("riesz", d, gamma=float(gamma))

    @classmethod
    def bessel(cls, beta, d):
        return cls("bessel", d, beta=float(beta))

    @classmethod
    def free_field(cls, mass, d):
        return cls("free_field", d, mass=float(mass))

    @classmethod
    def tabulated(cls, radii, values, d):
        return cls("tabulated", d, radii=tuple(float(r) for r in radii),
                   values=tuple(float(v) for v in values))

    # -- density ------------------------------------------------------
    @property
    def riesz_constant(self) -> float:
        """Exact Fourier-pair constant of |x|^-gamma, divided by (2 pi)^d."""
        g, d = self.gamma, self.d
        return (2 ** (d - g) * np.pi ** (d / 2)
                * math.gamma((d - g) / 2) / math.gamma(g / 2)) / (2 * np.pi) ** d

    def radial_density(self, r):
        """Spectral density as a function of |xi| (vectorized)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "white":
            return np.full_like(r, (2 * np.pi) ** (-self.d))
        if self.kind == "riesz":
            with np.errstate(divide="ignore"):
                out = self.riesz_constant * r ** (self.gamma - self.d)
            return out
        if self.kind == "bessel":
            scale = (2 * np.pi) ** (-self.d)
            with np.errstate(over="ignore", divide="ignore"):
                r2 = r**2
                out = scale * (1 + r2) ** (-self.beta / 2)
                overflowed = ~np.isfinite(r2)  # r past ~1.3e154
                if overflowed.any():  # there the density is its limit
                    out = np.where(overflowed, scale * r ** -self.beta, out)
            return out
        if self.kind == "free_field":
            return (2 * np.pi) ** (-self.d / 2) / (r**2 + self.mass**2)
        return np.interp(r, self.radii, self.values,
                         left=self.values[0], right=0.0)

    @property
    def band_limit(self) -> float:
        """Outer radius of support (inf unless tabulated)."""
        return self.radii[-1] if self.kind == "tabulated" else math.inf

    @property
    def singular_at_origin(self) -> bool:
        return self.kind == "riesz"

    def density_on_lattice(self, grid: Grid) -> np.ndarray:
        """Density sampled on the grid's frequency lattice.

        The zero mode of an origin-singular density is set to 0: on the
        torus it is a global constant that carries no increment
        information.
        """
        _check_dimensions(measure=self, grid=grid)
        mesh = grid.frequency_mesh()
        r = np.sqrt(sum(np.asarray(x) ** 2 for x in mesh))
        vals = self.radial_density(r)
        if self.singular_at_origin:
            vals[(0,) * grid.d] = 0.0
        return vals

    def to_dict(self):
        out = {"kind": self.kind, "d": self.d}
        for key in _KINDS[self.kind]:
            value = getattr(self, key)
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


# ---------------------------------------------------------------------------
# Dyadic-annulus quadrature core.
#
# Every integral here has the form  int m(|xi|) g(T(xi)) dxi  with
# T(xi) = sum_i w_i |xi_i|^alpha_i for per-integrand weights w.  The domain
# is partitioned into shells W(xi) in [2^k, 2^(k+1)) of the unweighted
# frequency weight W; several integrands are evaluated on shared nodes so
# pointwise inequalities survive discretization exactly.
# ---------------------------------------------------------------------------

@cache
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


class _NodeGeometry:
    """Directional nodes: |omega_i| components and sphere weights.

    The radial path is the 1-d path with alpha = 2 and the weight
    |S^{d-1}| of the whole sphere; the 1-d path gives the radius at which
    the frequency weight reaches a shell edge 2^k in closed form.  The
    anisotropic path bisects it at every node and keeps each edge's row:
    a geometry, which ``_node_geometry`` keeps for later calls, bisects an
    edge once, the first time a scan reads it, in one vectorised pass with
    the other new edges of that read.
    """

    def __init__(self, alpha: tuple, radial: bool):
        d = len(alpha)
        self.alpha = np.asarray(alpha)
        if d == 1 or radial:
            self.alpha = self.alpha[:1]
            self.comps = np.ones((1, 1))
            # |S^{d-1}|; 2.0 exactly in 1-d (both half-lines)
            self.sphere_weights = np.array(
                [2 * np.pi ** (d / 2) / math.gamma(d / 2)]
            )
        elif d == 2:
            t, w = _leggauss(_N_THETA)
            phi = (np.pi / 4) * (t + 1)
            theta = (np.pi / 2) * np.sin(phi) ** 2
            jac = (np.pi / 2) * np.sin(2 * phi)
            self.comps = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            self.sphere_weights = 4 * (np.pi / 4) * w * jac
        elif d == 3:
            t, w = _leggauss(_N_THETA)
            u = (np.pi / 4) * (t + 1)
            ang = (np.pi / 2) * np.sin(u) ** 2
            jac = (np.pi / 4) * w * (np.pi / 2) * np.sin(2 * u)
            th, ph = np.meshgrid(ang, ang, indexing="ij")
            wth, wph = np.meshgrid(jac, jac, indexing="ij")
            comps = np.stack(
                [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)],
                axis=-1,
            ).reshape(-1, 3)
            self.comps = comps
            self.sphere_weights = (8 * wth * wph * np.sin(th)).ravel()
        else:
            raise ConstraintViolationError(
                "anisotropic quadrature implemented for d <= 3 only; "
                "alpha == 2 on every axis reduces to the radial path"
            )
        self.comps_alpha = self.comps**self.alpha  # |omega_i|^alpha_i
        self._edges = {}  # k -> radii where the weight reaches 2^k, per node

    def edge_radii(self, ks):
        """Radii where the frequency weight reaches 2^k, one row of nodes
        per k in ``ks``."""
        if self.comps.shape[1] == 1:
            return np.array([[(2.0**k) ** (1.0 / self.alpha[0])] for k in ks])
        new = [k for k in ks if k not in self._edges]
        if new:
            self._bisect_edges(new)
        return np.array([self._edges[k] for k in ks])

    def _bisect_edges(self, ks):
        """Bisect log2 radius for the edges ``ks`` at every node, in one
        pass, and keep each edge's row."""
        target = np.ldexp(1.0, ks)[:, None]
        lo = np.full((len(ks), len(self.comps)), -340.0)
        hi = np.full((len(ks), len(self.comps)), 340.0)
        ca = self.comps_alpha
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            val = (ca * np.exp2(mid[..., None] * self.alpha)).sum(axis=-1)
            take = val < target
            lo = np.where(take, mid, lo)
            hi = np.where(take, hi, mid)
        self._edges.update(zip(ks, np.exp2(0.5 * (lo + hi))))

    def levels(self, s, axis_weights):
        """T(xi) = sum_i w_i |xi_i|^alpha_i on nodes of log-radius s, of
        shape (..., n_dirs, n_r); r^alpha_i is exp(alpha_i * s)."""
        # w is a scalar or one weight per axis; the radial path's single
        # node column reads the first of its d equal weights
        ca = np.asarray(axis_weights, dtype=float) * self.comps_alpha
        out = ca[:, 0, None] * np.exp(self.alpha[0] * s)
        for i in range(1, len(self.alpha)):
            out = out + ca[:, i, None] * np.exp(self.alpha[i] * s)
        return out


@lru_cache(maxsize=32)
def _node_geometry(alpha: tuple, radial: bool) -> _NodeGeometry:
    return _NodeGeometry(alpha, radial)


def _dyadic_contributions(measure, idx, integrands, *, n_radial=N_RADIAL):
    """Shell-by-shell contributions of several integrands.

    integrands: list of (axis_weights, g), g elementwise on level arrays of
    any shape.  Consecutive shells are evaluated as one batch of at most
    _BATCH_NODES nodes, and a scan keeps exactly the shells up to its stop;
    a kept shell that is not finite raises NumericalConsistencyError.
    Returns (ks, contribs[n_int, n_k], unsettled): unsettled is None when
    each scan stopped on quiet shells, at the band or on a geometric tail,
    or ran to the end of _K_RANGE on shells decaying geometrically enough
    for _extrapolated_sum to add the rest; else it names where a scan
    stopped.
    ConstraintViolationError unless n_radial, the Gauss nodes per shell,
    is a non-bool integer >= 1.
    """
    if not (_integer(n_radial) and n_radial >= 1):
        raise ConstraintViolationError(
            f"n_radial must be an integer >= 1, got {n_radial!r}")
    _check_dimensions(measure=measure, index=idx)
    # the angular factor integrates out when alpha == 2 on every axis and
    # every integrand weighs the axes alike
    radial = all(a == 2.0 for a in idx.alpha) and all(
        np.ptp(np.broadcast_to(np.asarray(w, dtype=float), (idx.d,))) == 0
        for w, _ in integrands
    )
    geom = _node_geometry(idx.alpha, radial)
    d = measure.d
    gl_x, gl_w = _leggauss(n_radial)
    band = measure.band_limit
    # log-radii of a tabulated density's kinks inside its band
    ln_kinks = np.log([r for r in measure.radii[:-1] if r > 0])
    n_dirs = len(geom.comps)
    max_batch = max(1, _BATCH_NODES
                    // (n_dirs * (ln_kinks.size + 1) * n_radial))

    def shells(k_lo, k_hi):
        """(contribs[shell, integrand], clipped[shell]) of k_lo <= k < k_hi."""
        edges = geom.edge_radii(range(k_lo, k_hi + 1))
        ln = np.log(np.minimum(edges, band))[..., None]
        ln1, ln2 = ln[:-1], ln[1:]  # (shell, direction, 1)
        if ln_kinks.size:
            # the kinks clipped into [r1, r2] split each direction into
            # Gauss pieces; a piece of zero width adds exactly 0
            ln = np.concatenate([ln1, np.clip(ln_kinks, ln1, ln2), ln2],
                                axis=-1)
            ln1, ln2 = ln[..., :-1], ln[..., 1:]
        h = 0.5 * (ln2 - ln1)  # (shell, direction, piece)
        s = (h[..., None] * (gl_x + 1) + ln1[..., None]).reshape(
            len(h), n_dirs, -1)
        r = np.exp(s)
        dens = measure.radial_density(r) * r**d  # r^(d-1) plus log jacobian
        base = (h[..., None] * gl_w).reshape(r.shape) * dens
        out = np.empty((len(h), len(integrands)))
        for j, (w, g) in enumerate(integrands):
            vals = g(geom.levels(s, w))
            out[:, j] = ((base * vals).sum(axis=-1)
                         * geom.sphere_weights).sum(axis=-1)
        empty = ~np.any(h > 0, axis=(1, 2))  # e.g. wholly past the band
        out[empty] = 0.0
        clipped = np.any(edges[1:] >= band, axis=1) & (band < math.inf)
        return out, empty | clipped

    ks, contribs = [], []
    unsettled = None
    total = np.zeros(len(integrands))
    # a band-limited density has no tail past its band to extrapolate
    geometric_stop = band == math.inf

    def scan(direction):
        nonlocal unsettled, total
        first = len(contribs)
        k = 0 if direction > 0 else -1
        quiet = rising = 0
        prev = None
        tail = np.full((_TAIL_FIT_SHELLS, len(integrands)), np.nan)
        batch = 16
        while k in _K_RANGE:
            n = min(batch, max_batch, _K_RANGE.stop - k if direction > 0
                    else k + 1 - _K_RANGE.start)
            lo = k if direction > 0 else k - n + 1
            with np.errstate(all="ignore"):  # a batch runs past the stop
                c, clipped = shells(lo, lo + n)
            if direction < 0:
                c, clipped = c[::-1], clipped[::-1]
            totals = np.cumsum(np.vstack([total, np.abs(c)]), axis=0)
            small = np.all(c <= _REL_TOL * np.maximum(totals[1:], 1e-300),
                           axis=1)
            before = np.vstack([c[:1] if prev is None else prev, c[:-1]])
            grows = np.all(c >= before, axis=1)
            run = np.vstack([tail, c])
            geometric = (_geometric_ends(run) if geometric_stop
                         else np.zeros(n, bool))
            flags = zip(np.isfinite(c).all(axis=1).tolist(), clipped.tolist(),
                        small.tolist(), grows.tolist(), geometric.tolist())
            # the one-shell stop rule, shell by shell
            for i, (finite, at_band, tiny, grown, geo) in enumerate(flags):
                if not finite:
                    raise NumericalConsistencyError(
                        f"non-finite contribution {c[i]} of shell "
                        f"2^{k + direction * i}")
                quiet = quiet + 1 if tiny else 0
                # a long run of growing shells is already conclusive divergence
                if direction > 0 and (i or prev is not None):
                    rising = rising + 1 if grown else 0
                settled = at_band or quiet >= 3 or geo
                stop = settled or rising >= 40
                if stop:
                    break
            n = i + 1
            ks.extend(range(k, k + direction * n, direction))
            contribs.append(c[:n])
            total, prev, tail = totals[n], c[n - 1], run[n:n + len(tail)]
            if stop:
                break
            k += direction * n
            batch *= 2
        if not stop:  # the shells kept so far, ordered outward
            settled = all(map(_geometric_tail,
                              np.concatenate(contribs[first:]).T))
        if not settled:
            why = "40 growing shells" if stop else "the end of the shell range"
            unsettled = unsettled or f"{why} at shell 2^{ks[-1]}"

    scan(+1)
    scan(-1)
    order = np.argsort(ks)
    ks = np.asarray(ks)[order]
    contribs = np.concatenate(contribs)[order].T
    return ks, contribs, unsettled


def _geometric_ends(run):
    """geometric[i]: whether the shells run[:_TAIL_FIT_SHELLS + i + 1],
    ordered outward, end in _TAIL_FIT_SHELLS + 1 positive shells whose
    log2 ratios all lie below CONVERGENT_SLOPE and agree within
    _GEOMETRIC_SPREAD, for every integrand (columns of run); there the
    tail is geometric, and _extrapolated_sum adds the rest of it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.diff(np.log2(np.where(run > 0, run, np.nan)), axis=0)
    n = len(run) - _TAIL_FIT_SHELLS
    windows = np.stack([ratios[j:j + n] for j in range(_TAIL_FIT_SHELLS)])
    hi = windows.max(axis=0)  # NaN, and so False, past a shell <= 0
    return np.all((hi < CONVERGENT_SLOPE)
                  & (hi - windows.min(axis=0) <= _GEOMETRIC_SPREAD), axis=1)


def _tail_slope(ks, c):
    """Least-squares slope of log2 contributions over the top shells."""
    pos = c > 0
    if pos.sum() < _TAIL_FIT_SHELLS:
        return None
    sel = np.where(pos)[0][-_TAIL_FIT_SHELLS:]
    return float(np.polyfit(ks[sel], np.log2(c[sel]), 1)[0])


def _geometric_tail(c):
    """Whether shells c, ordered outward, end in a decay that
    _extrapolated_sum extends: the last ratio below 0.999 and a tail
    slope below CONVERGENT_SLOPE."""
    pos = np.where(c > 0)[0]
    slope = _tail_slope(np.arange(len(c)), c)
    return (slope is not None and slope < CONVERGENT_SLOPE
            and c[pos[-1]] < 0.999 * c[pos[-2]])


def _extrapolated_sum(c, band_limit):
    """Total of the shells c with geometric extensions beyond both ends;
    the plain shell sum for a band-limited measure: nothing lies past it."""
    total = float(c.sum())
    pos = np.where(c > 0)[0]
    if band_limit == math.inf and len(pos) >= 3:
        hi = c[pos[-1]] / max(c[pos[-2]], 1e-300)
        if 0 < hi < 0.999:
            total += float(c[pos[-1]] * hi / (1 - hi))
        lo = c[pos[0]] / max(c[pos[1]], 1e-300)
        if 0 < lo < 0.999:
            total += float(c[pos[0]] * lo / (1 - lo))
    return total


def _tail_verdict(ks, c, band_limit, unsettled):
    """(value, finite, conclusive, slope) of the shells c, as the scan that
    made them (its ``unsettled``) decides: finite, with _extrapolated_sum's
    value, when both scans settled; else value inf, conclusively divergent
    only where the tail slope is >= 0."""
    slope = _tail_slope(ks, c)
    if unsettled:
        return math.inf, False, slope is not None and slope >= 0, slope
    return _extrapolated_sum(c, band_limit), True, True, slope


def _settled_sums(measure, idx, integrands, *, n_radial=N_RADIAL) -> list:
    """The integral of each of ``integrands`` (as _dyadic_contributions
    takes them) on shared nodes; a non-finite shell raises
    NumericalConsistencyError, and a scan that does not settle
    DivergenceError."""
    _, c, unsettled = _dyadic_contributions(
        measure, idx, integrands, n_radial=n_radial)
    if unsettled:
        raise DivergenceError(
            f"the spectral integral does not settle: {unsettled}")
    return [_extrapolated_sum(row, measure.band_limit) for row in c]


def spectral_integral(measure, idx, g, axis_weights=1.0, *,
                      n_radial: int = N_RADIAL) -> float:
    """int m(|xi|) g(T(xi)) dxi for a single integrand, g elementwise on
    level arrays of any shape, checked as ``_settled_sums`` checks it."""
    return _settled_sums(measure, idx, [(axis_weights, g)],
                         n_radial=n_radial)[0]


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdict on the high-frequency integrability condition."""

    eta: float
    integral_value: float
    admissible: bool
    method: str
    conclusive: bool = True
    tail_slope: float | None = None

    def to_dict(self):
        return asdict(self)


def closed_form_critical_eta(measure: SpectralMeasure,
                             idx: FractionalIndex) -> float | None:
    """Critical exponent eta* (admissible iff eta > eta*), where known.

    White noise: sum_i 1/alpha_i for any alpha.  Tabulated: 0 for any
    alpha, since a bounded density on a bounded band integrates to a
    finite value at every eta.  Riesz/Bessel/free-field: thresholds
    gamma/2, (d-beta)+/2, (d-2)+/2, valid for alpha == 2 on every axis.
    Returns None when no closed form applies.
    """
    _check_dimensions(measure=measure, index=idx)
    if measure.kind == "white":
        return idx.inverse_alpha_sum
    if measure.kind == "tabulated":
        return 0.0
    if any(a != 2.0 for a in idx.alpha):
        return None
    if measure.kind == "riesz":
        return measure.gamma / 2
    if measure.kind == "bessel":
        return max(measure.d - measure.beta, 0.0) / 2
    # free_field, the last of _KINDS
    return max(measure.d - 2, 0.0) / 2


def _admissibility_integrand(idx, eta):
    return (np.ones(idx.d), lambda s: (1 + s) ** (-eta))


def admissibility(measure: SpectralMeasure, idx: FractionalIndex, eta: float,
                  *, method: str = "auto") -> AdmissibilityReport:
    """Decide the high-frequency condition at exponent ``eta``.

    Parameters
    ----------
    method : "auto" | "quadrature"
        "auto" prefers the closed-form threshold when one exists and falls
        back to dyadic-shell quadrature.  Both total a band-limited
        measure's integral as its shell sum.

    Raises
    ------
    ConstraintViolationError
        Unless 0 < eta <= 1 and method is "auto" or "quadrature".
    """
    if not (0 < eta <= 1):
        raise ConstraintViolationError(f"eta must lie in (0, 1], got {eta}")
    eta_crit = closed_form_critical_eta(measure, idx)
    if method not in ("auto", "quadrature"):
        raise ConstraintViolationError(f"unknown method {method!r}")

    ks, c, unsettled = _dyadic_contributions(
        measure, idx, [_admissibility_integrand(idx, eta)])

    if method != "quadrature" and eta_crit is not None:
        admissible = eta > eta_crit
        value = (_extrapolated_sum(c[0], measure.band_limit)
                 if admissible else math.inf)
        return AdmissibilityReport(eta, value, admissible, "closed_form",
                                   True, _tail_slope(ks, c[0]))

    value, admissible, conclusive, slope = _tail_verdict(
        ks, c[0], measure.band_limit, unsettled)
    return AdmissibilityReport(eta, value, admissible, "quadrature",
                               conclusive, slope)


def critical_eta(measure: SpectralMeasure, idx: FractionalIndex) -> float:
    """Critical admissibility exponent, closed form where known.

    Quadrature fallback exploits that the dyadic tail slope is linear in
    eta with unit coefficient for power-law tails, so the root of the
    slope is read off directly and confirmed by a second evaluation.
    The root is clamped to [0.02, 1], so it never reports less than 0.02.
    """
    crit = closed_form_critical_eta(measure, idx)
    if crit is not None:
        return crit
    eta = 0.5
    for _ in range(4):
        # only unbounded kinds get here, and each has a tail slope: the
        # upward scan keeps >= 4 shells (2^0 is never quiet against a total
        # that holds it; three quiet shells are the quickest stop), the
        # downward scan >= 3, and each is positive, as density and integrand
        # are on (0, inf): 7 positive shells, more than _TAIL_FIT_SHELLS
        rep = admissibility(measure, idx, eta, method="quadrature")
        shift = rep.tail_slope
        eta = min(max(eta + shift, 0.02), 1.0)
        if abs(shift) < _CRITICAL_ETA_TOL:
            break
    return eta


@lru_cache(maxsize=256)
def _admissible_at_one(measure: SpectralMeasure, idx: FractionalIndex) -> bool:
    rep = admissibility(measure, idx, 1.0)
    if not rep.conclusive:
        warnings.warn(
            f"admissibility of the {measure.kind} measure at eta=1 is "
            f"inconclusive (tail slope {rep.tail_slope:.3g}); accepted",
            AccuracyWarning,
            stacklevel=3,
        )
    return rep.admissible or not rep.conclusive


def require_admissible(measure, idx):
    if not _admissible_at_one(measure, idx):
        raise DivergenceError(
            f"{measure.kind} measure is not admissible at eta=1 "
            f"for alpha={idx.alpha}"
        )


# ---------------------------------------------------------------------------
# Spectral integrals of the semigroup
# ---------------------------------------------------------------------------


def _cumulative_integrand(idx: FractionalIndex, T: float):
    """(axis weights, g) of int_0^T of the variance rate, in closed form."""

    def g(s):
        s = np.maximum(s, 1e-300)
        return -np.expm1(-2 * T * s) / (2 * s)

    return idx.damping, g


@dataclass(frozen=True)
class CumulativeBoundReport:
    """Two-sided control of the time-integrated variance rate."""

    horizon: float
    lower: float
    integral: float
    upper: float

    def to_dict(self):
        return asdict(self)


def cumulative_bound_check(idx: FractionalIndex, measure: SpectralMeasure,
                           T: float, *, tol: float = 1e-6
                           ) -> CumulativeBoundReport:
    """Evaluate int_0^T of the variance rate together with its two-sided
    frequency-space bounds, and assert the sandwich.

    All three integrands are evaluated on shared quadrature nodes, so the
    pointwise inequalities

        T/(1+2*T*W) <= int_0^T |psi|^2 <= 2*T/(1+2*T*kappa*W)

    survive discretization; a violation beyond ``tol`` indicates a
    quadrature bug and raises NumericalConsistencyError.  A scan that does
    not settle raises DivergenceError, as ``spectral_integral`` does.
    """
    if not 0 < T < math.inf:
        raise ConstraintViolationError(
            f"horizon must be finite and > 0, got {T}")
    require_admissible(measure, idx)
    kappa = idx.min_damping
    integrands = [
        (np.ones(idx.d), lambda s: T / (1 + 2 * T * s)),
        _cumulative_integrand(idx, T),
        (np.ones(idx.d), lambda s: 2 * T / (1 + 2 * T * kappa * s)),
    ]
    lower, mid, upper = _settled_sums(measure, idx, integrands)
    slack = tol * max(abs(mid), 1.0)
    if not (lower <= mid + slack and mid <= upper + slack):
        raise NumericalConsistencyError(
            f"sandwich violated: {lower} <= {mid} <= {upper} fails "
            f"beyond tolerance {tol}"
        )
    return CumulativeBoundReport(T, lower, mid, upper)


@dataclass(frozen=True)
class WeightedIntegralReport:
    """Weighted high-frequency integral with a divergence flag."""

    weight_exponent: float
    horizon: float
    value: float
    finite: bool
    conclusive: bool
    tail_slope: float | None


def weighted_spectral_integral(idx: FractionalIndex, measure: SpectralMeasure,
                               weight_exponent: float, T: float
                               ) -> WeightedIntegralReport:
    """Time-integrated, weight-boosted spectral integral

        int_0^T dr int exp(-2 r kappa W(xi)) W(xi)^weight_exponent m d(xi)

    evaluated with the time integral done analytically.  The value is
    finite exactly when both dyadic scans settle, as for
    ``spectral_integral``; divergence is reported as a flag, not raised.
    A band-limited measure's integral is its shell sum.
    """
    if not 0 < T < math.inf:
        raise ConstraintViolationError(
            f"horizon must be finite and > 0, got {T}")
    kappa = idx.min_damping
    p = float(weight_exponent)
    if not math.isfinite(p):
        raise ConstraintViolationError(
            f"weight exponent must be finite, got {weight_exponent}")

    def g(s):
        s = np.maximum(s, 1e-300)
        return s**p * (-np.expm1(-2 * kappa * T * s)) / (2 * kappa * s)

    ks, c, unsettled = _dyadic_contributions(measure, idx,
                                             [(np.ones(idx.d), g)])
    return WeightedIntegralReport(
        p, T, *_tail_verdict(ks, c[0], measure.band_limit, unsettled))
