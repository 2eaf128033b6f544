import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fracspde.errors import (
    AccuracyWarning,
    ConstraintViolationError,
    DivergenceError,
    InconclusiveError,
    NumericalConsistencyError,
)
from fracspde import spectral_measure as sm
from fracspde.density import cumulative_variance, variance_bound_check
from fracspde.fields import FractionalIndex, Grid
from fracspde.spectral_measure import (
    AdmissibilityReport,
    SpectralMeasure,
    admissibility,
    closed_form_critical_eta,
    critical_eta,
    cumulative_bound_check,
    require_admissible,
    spectral_integral,
    weighted_spectral_integral,
)

GAUSS1 = FractionalIndex([2.0], [0.0])
GAUSS2 = FractionalIndex([2.0, 2.0], [0.0, 0.0])

# frozen: 30-digit closed form 2*mu_c*Gamma(gamma/alpha)/(alpha*(2cos(delta*pi/2))^(gamma/alpha))
RIESZ_RATE_ORACLE = 1.1753699734553476


def _variance_rate(idx, measure, t):
    """int |psi(t, xi)|^2 m(dxi), the rate of the stochastic convolution's
    variance: exp(-2 t sum_i cos(delta_i pi/2) |xi_i|^alpha_i) integrated."""
    return spectral_integral(measure, idx, lambda s: np.exp(-s),
                             axis_weights=2 * t * idx.damping)


# -- frequency weight ---------------------------------------------------------

def test_frequency_weight_examples():
    # the quadrature's weight sum_i w_i |xi_i|^alpha_i at xi = r * omega,
    # for the direction nodes omega of each path
    geom = sm._NodeGeometry((1.5,), False)
    assert geom.levels(np.log(3.0), 1.0) == pytest.approx(3.0**1.5)
    geom = sm._NodeGeometry((2.0, 0.5), False)
    r, w = math.sqrt(5), np.array([1.0, 3.0])
    want = (w * (r * geom.comps) ** geom.alpha).sum(axis=1)
    np.testing.assert_allclose(geom.levels(np.log(r), w)[:, 0], want,
                               rtol=1e-14)


def test_frequency_weight_zero_only_at_origin():
    geom = sm._NodeGeometry((1.5, 0.5), False)
    s = np.linspace(-30, 5, 36)
    assert np.all(geom.levels(s, 1.0) > 0)
    assert np.all(geom.levels(-np.inf, 1.0) == 0)


# -- measure catalog ----------------------------------------------------------

def test_measure_invariants():
    with pytest.raises(ConstraintViolationError):
        SpectralMeasure.riesz(2.5, 2)  # gamma >= d
    with pytest.raises(ConstraintViolationError):
        SpectralMeasure.bessel(0.0, 1)
    with pytest.raises(ConstraintViolationError):
        SpectralMeasure.free_field(-1.0, 2)
    with pytest.raises(ConstraintViolationError):
        SpectralMeasure.tabulated([0.0, 1.0], [1.0, -0.5], 1)

    # each once constructed: an infinite last radius read as band-limited
    # (eta* = 0), a missing parameter raised TypeError from 0 < None
    inf, nan = math.inf, math.nan
    for make in [
        lambda: SpectralMeasure.tabulated([0, 1, inf], [1, 1, 1], 1),
        lambda: SpectralMeasure.tabulated([0, nan, 2], [1, 1, 1], 1),
        lambda: SpectralMeasure.tabulated([0, 1, 2], [1, nan, 1], 1),
        lambda: SpectralMeasure.tabulated([0, 1, 2], [1, inf, 1], 1),
        lambda: SpectralMeasure.bessel(inf, 2),
        lambda: SpectralMeasure.free_field(inf, 1),
        lambda: SpectralMeasure("riesz", 1),
        lambda: SpectralMeasure("bessel", 1),
        lambda: SpectralMeasure("free_field", 1),
    ]:
        with pytest.raises(ConstraintViolationError, match="finite"):
            make()

    # each once constructed; white(1.5) then had a closed-form eta*
    for make in [
        lambda: SpectralMeasure.white(1.5),
        lambda: SpectralMeasure.riesz(0.5, inf),
        lambda: SpectralMeasure.white(True),
    ]:
        with pytest.raises(ConstraintViolationError, match="dimension"):
            make()
    assert SpectralMeasure.white(np.int64(2)).d == 2


@pytest.mark.parametrize("kind, own, extra", [
    ("riesz", {"gamma": 0.5}, {"beta": 2.0, "mass": 3.0}),
    ("white", {}, {"gamma": 0.4}),
    ("bessel", {"beta": 1.0}, {"radii": (0.0, 1.0)}),
    ("free_field", {"mass": 1.0}, {"values": (1.0, 1.0)}),
    ("tabulated", {"radii": (0.0, 1.0), "values": (1.0, 1.0)}, {"mass": 1.0}),
])
def test_a_measure_takes_only_its_kinds_fields(kind, own, extra):
    # riesz(0.5, 1) with a beta and a mass once reported both, and compared
    # unequal to riesz(0.5, 1)
    with pytest.raises(ConstraintViolationError,
                       match=f"a {kind} measure takes no {next(iter(extra))}$"):
        SpectralMeasure(kind, 1, **own, **extra)
    assert SpectralMeasure(kind, 1, **own).to_dict() == {
        "kind": kind, "d": 1, **{k: (list(v) if isinstance(v, tuple) else v)
                                 for k, v in own.items()}}


_I1 = FractionalIndex([1.5], [0.3])
_M2 = SpectralMeasure.bessel(2.0, 2)
_W1, _GAUSS_2D = SpectralMeasure.white(1), FractionalIndex([2.0, 2.0])


@pytest.mark.parametrize("call", [
    lambda: admissibility(_M2, _I1, 0.5),
    lambda: weighted_spectral_integral(_I1, _M2, 0.1, 1.0),
    lambda: spectral_integral(_M2, _I1, lambda s: np.exp(-s)),
    lambda: cumulative_variance(_I1, _M2, 0.5),
    lambda: variance_bound_check(_I1, _M2, 1.0, (1.0, 0.5), [0.01, 0.1]),
    lambda: critical_eta(_W1, _GAUSS_2D),
    lambda: closed_form_critical_eta(_W1, _GAUSS_2D),
], ids=["admissibility", "weighted_spectral_integral", "spectral_integral",
        "cumulative_variance", "variance_bound_check", "critical_eta",
        "closed_form_critical_eta"])
def test_measure_and_index_dimensions_must_agree(call):
    # all but admissibility once returned a number
    with pytest.raises(ConstraintViolationError, match="dimension"):
        call()


def test_riesz_constant_is_exact_fourier_pair():
    # d=1, gamma=1/2: the transform of |x|^(-1/2) is sqrt(2 pi)|xi|^(-1/2)
    m = SpectralMeasure.riesz(0.5, 1)
    assert m.riesz_constant * 2 * np.pi == pytest.approx(np.sqrt(2 * np.pi))


def test_white_density_matches_parseval_normalization():
    m = SpectralMeasure.white(2)
    assert m.radial_density(3.0) == pytest.approx((2 * np.pi) ** -2)


def test_lattice_density_zero_mode_policy():
    grid = Grid(1, 16, 8.0)
    vals = SpectralMeasure.riesz(0.5, 1).density_on_lattice(grid)
    assert vals[0] == 0.0
    assert np.all(np.isfinite(vals))
    vals = SpectralMeasure.bessel(1.0, 1).density_on_lattice(grid)
    assert vals[0] == pytest.approx((2 * np.pi) ** -1)


# -- admissibility: closed forms ---------------------------------------------

def test_riesz_d2_admissible():
    rep = admissibility(SpectralMeasure.riesz(1.0, 2), GAUSS2, 0.75)
    assert rep.admissible and rep.method == "closed_form"
    assert math.isfinite(rep.integral_value)


def test_free_field_d4_never_admissible():
    idx = FractionalIndex([2.0] * 4, [0.0] * 4)
    m = SpectralMeasure.free_field(1.0, 4)
    for eta in [0.3, 0.7, 0.99, 1.0]:
        rep = admissibility(m, idx, eta)
        assert not rep.admissible
        assert rep.integral_value == math.inf


def test_free_field_low_dimensions():
    m3 = SpectralMeasure.free_field(1.0, 3)
    idx3 = FractionalIndex([2.0] * 3, [0.0] * 3)
    assert not admissibility(m3, idx3, 0.4).admissible
    assert admissibility(m3, idx3, 0.6).admissible
    m1 = SpectralMeasure.free_field(2.0, 1)
    assert admissibility(m1, GAUSS1, 0.1).admissible


def test_bessel_threshold():
    rep = admissibility(SpectralMeasure.bessel(1.0, 2), GAUSS2, 0.6)
    assert rep.admissible  # eta > (d - beta)/2 = 0.5
    assert not admissibility(SpectralMeasure.bessel(1.0, 2), GAUSS2, 0.4).admissible


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bessel_density_keeps_its_power_law_where_r_squared_overflows(d):
    # past r ~ 1.3e154, r**2 overflows; the density is still ~ r^-beta there
    m = SpectralMeasure.bessel(0.5, d)
    far = np.array([1.4e154, 1e200, 1e300, np.inf])
    expected = (2 * np.pi) ** (-d) * far ** -0.5
    assert np.allclose(m.radial_density(far), expected, rtol=1e-12, atol=0)
    near = np.array([0.0, 0.5, 3.0, 1e100, 1.3e154])
    closed_form = (2 * np.pi) ** (-d) * (1 + near**2) ** -0.25
    assert m.radial_density(near).tobytes() == closed_form.tobytes()
    assert m.radial_density(2.0) == (2 * np.pi) ** (-d) * 5.0 ** -0.25
    mixed = m.radial_density(np.array([0.0, 1e200]))
    assert mixed[0] == (2 * np.pi) ** (-d) and mixed[1] == expected[1]


def test_white_noise_fractional_threshold():
    idx = FractionalIndex([1.5], [0.0])
    m = SpectralMeasure.white(1)
    assert not admissibility(m, idx, 0.6).admissible  # 1/alpha = 2/3
    assert admissibility(m, idx, 0.75).admissible


def test_white_noise_d2_never_admissible_at_alpha2():
    m = SpectralMeasure.white(2)
    assert not admissibility(m, GAUSS2, 1.0).admissible


def test_admissibility_method_is_auto_or_quadrature():
    with pytest.raises(ConstraintViolationError, match="unknown method"):
        admissibility(SpectralMeasure.white(1), GAUSS1, 0.75,
                      method="closed_form")


def test_eta_domain_checked():
    with pytest.raises(ConstraintViolationError):
        admissibility(SpectralMeasure.white(1), GAUSS1, 0.0)
    with pytest.raises(ConstraintViolationError):
        admissibility(SpectralMeasure.white(1), GAUSS1, 1.2)


# -- admissibility: quadrature path -------------------------------------------

@pytest.mark.parametrize("measure,idx,eta,expect", [
    (SpectralMeasure.riesz(1.0, 2), GAUSS2, 0.75, True),
    (SpectralMeasure.riesz(1.0, 2), GAUSS2, 0.3, False),
    (SpectralMeasure.bessel(1.0, 2), GAUSS2, 0.7, True),
    (SpectralMeasure.bessel(1.0, 2), GAUSS2, 0.3, False),
    (SpectralMeasure.free_field(1.0, 3), FractionalIndex([2] * 3, [0] * 3), 0.8, True),
    (SpectralMeasure.white(1), FractionalIndex([1.5], [0.0]), 0.9, True),
    (SpectralMeasure.white(1), FractionalIndex([1.5], [0.0]), 0.4, False),
    (SpectralMeasure.riesz(0.5, 1), FractionalIndex([1.5], [0.3]), 0.6, True),
    (SpectralMeasure.riesz(0.5, 1), FractionalIndex([1.5], [0.3]), 0.15, False),
])
def test_quadrature_verdicts(measure, idx, eta, expect):
    rep = admissibility(measure, idx, eta, method="quadrature")
    assert rep.conclusive
    assert rep.admissible == expect


def test_quadrature_agrees_with_closed_form_off_critical():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(20):
        d = int(rng.integers(1, 3))
        idx = FractionalIndex([2.0] * d, [0.0] * d)
        kind = rng.choice(["riesz", "bessel", "white", "free_field"])
        if kind == "riesz":
            m = SpectralMeasure.riesz(rng.uniform(0.2, d - 0.05), d)
        elif kind == "bessel":
            m = SpectralMeasure.bessel(rng.uniform(0.3, d + 1.0), d)
        elif kind == "free_field":
            m = SpectralMeasure.free_field(rng.uniform(0.5, 2.0), d)
        else:
            m = SpectralMeasure.white(d)
        eta = float(rng.uniform(0.05, 1.0))
        crit = closed_form_critical_eta(m, idx)
        if abs(eta - crit) <= 0.02 * max(crit, 1.0):
            continue  # inside the allowed inconclusive band
        rep = admissibility(m, idx, eta, method="quadrature")
        if not rep.conclusive:
            continue
        assert rep.admissible == (eta > crit), (kind, d, eta, crit)
        checked += 1
    assert checked >= 12


def test_quadrature_value_matches_direct_1d():
    # int (2 pi)^-1 (1+xi^2)^-0.8 dxi over R, bessel beta=1.6 at eta=0
    # handled as admissibility integrand with eta=0.8 against white-ish form:
    m = SpectralMeasure.bessel(1.0, 1)
    rep = admissibility(m, GAUSS1, 0.75, method="quadrature")
    oracle = 2 * quad(
        lambda r: (2 * np.pi) ** -1 * (1 + r**2) ** -0.5 * (1 + r**2) ** -0.75,
        0, np.inf,
    )[0]
    assert rep.integral_value == pytest.approx(oracle, rel=1e-8)


def test_riesz_dyadic_self_similarity():
    # shell contributions of the riesz admissibility integrand scale by
    # 2^((gamma - 2 eta)/2) per shell in the tail
    from fracspde.spectral_measure import _dyadic_contributions, _admissibility_integrand
    gamma, eta = 1.0, 0.8
    m = SpectralMeasure.riesz(gamma, 2)
    ks, c, _, _ = _dyadic_contributions(m, GAUSS2,
                                     [_admissibility_integrand(GAUSS2, eta)])
    tail = c[0][-6:]
    ratios = tail[1:] / tail[:-1]
    assert np.allclose(ratios, 2 ** ((gamma - 2 * eta) / 2), rtol=0.02)


# -- shell-edge radii -----------------------------------------------------------
#
# Oracle: the per-target bisection the quadrature used before the edge radii
# were tabulated.  One target at a time, same start, same 90 halvings.

def _shell_radii_oracle(geom, target):
    lo = np.full(len(geom.comps), -340.0)
    hi = np.full(len(geom.comps), 340.0)
    ca = geom.comps**geom.alpha
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        val = (ca * np.exp2(np.outer(mid, geom.alpha))).sum(axis=1)
        take = val < target
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    return np.exp2(0.5 * (lo + hi))


@pytest.mark.parametrize("alpha", [(1.5, 0.5), (1.5, 1.2, 0.8)])
def test_edge_radii_table_matches_per_target_bisection(alpha):
    from fracspde.spectral_measure import _NodeGeometry
    geom = _NodeGeometry(alpha, False)
    sample = np.random.default_rng(11).integers(-340, 341, size=6)
    for k in [-340, -1, 0, 1, 339, 340, *sample.tolist()]:
        want = _shell_radii_oracle(geom, 2.0**k)
        assert geom.edge_radii([k])[0].tobytes() == want.tobytes(), k


@settings(max_examples=30, deadline=None)
@given(alpha=st.sampled_from([(1.5, 0.5), (1.5, 1.2), (0.3125, 1.9)]),
       start=st.integers(-340, 325), data=st.data())
def test_edge_radii_match_per_target_bisection_in_any_request(alpha, start,
                                                              data):
    # a run of edges, requested in random order and groups, some twice
    geom = sm._NodeGeometry(alpha, False)
    run = data.draw(st.permutations(range(start, start + 16)))
    want = {k: _shell_radii_oracle(geom, 2.0**k).tobytes() for k in run}
    cuts = sorted(data.draw(st.sets(st.integers(1, 15), max_size=6)))
    groups = [run[i:j] for i, j in zip([0, *cuts], [*cuts, len(run)])]
    for ks in data.draw(st.permutations(groups + groups[:2])):
        rows = geom.edge_radii(ks)
        assert rows.shape == (len(ks), len(geom.comps))
        assert [row.tobytes() for row in rows] == [want[k] for k in ks]


def test_node_geometry_built_once_per_alpha(monkeypatch):
    import fracspde.spectral_measure as sm

    sm._node_geometry.cache_clear()
    built, bisected = [], []
    init, bisect = sm._NodeGeometry.__init__, sm._NodeGeometry._bisect_edges

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_bisect(self, ks):
        bisected.extend(ks)
        return bisect(self, ks)

    monkeypatch.setattr(sm._NodeGeometry, "__init__", counting_init)
    monkeypatch.setattr(sm._NodeGeometry, "_bisect_edges", counting_bisect)
    idx = FractionalIndex([1.5, 1.2], [0.3, 0.1])
    m = SpectralMeasure.bessel(1.0, 2)
    eta = critical_eta(m, idx)
    first = list(bisected)
    for shift in (0.05, -0.05, 0.05):
        admissibility(m, idx, eta + shift)
    critical_eta(m, idx)
    assert built == [((1.5, 1.2), False)]
    assert bisected == first  # later calls bisect nothing
    assert len(set(first)) == len(first)  # each edge bisected once
    assert set(first) == set(sm._node_geometry(idx.alpha, False)._edges)


# -- batched shell scan ---------------------------------------------------------
#
# Oracle: the scan the quadrature used before shells were evaluated in
# batches.  One shell per call, each stop rule checked after its shell.
# ``geometric=False`` switches off the stop on a geometric tail, so that
# the scan runs on until its shells are quiet or the shell range ends.

def _one_shell_scan(measure, idx, integrands, *, n_radial=sm.N_RADIAL,
                    geometric=True):
    radial = all(a == 2.0 for a in idx.alpha) and all(
        np.ptp(np.broadcast_to(np.asarray(w, dtype=float), (idx.d,))) == 0
        for w, _ in integrands
    )
    geom = sm._node_geometry(idx.alpha, radial)
    d = measure.d
    gl_x, gl_w = sm._leggauss(n_radial)
    band = measure.band_limit
    ln_kinks = np.log([r for r in measure.radii[:-1] if r > 0])

    def shell(k):
        r1, r2 = geom.edge_radii([k, k + 1])
        if band < math.inf:
            r1, r2 = np.minimum(r1, band), np.minimum(r2, band)
        with np.errstate(divide="ignore"):
            ln1, ln2 = np.log(r1)[:, None], np.log(r2)[:, None]
        if ln_kinks.size:
            ln = np.concatenate([ln1, np.clip(ln_kinks, ln1, ln2), ln2],
                                axis=1)
            ln1, ln2 = ln[:, :-1], ln[:, 1:]
        h = 0.5 * (ln2 - ln1)
        if not np.any(h > 0):
            return np.zeros(len(integrands)), True
        s = (h[..., None] * (gl_x + 1) + ln1[..., None]).reshape(len(r1), -1)
        r = np.exp(s)
        dens = measure.radial_density(r) * r**d
        base = (h[..., None] * gl_w).reshape(len(r1), -1) * dens
        out = np.empty(len(integrands))
        for j, (w, g) in enumerate(integrands):
            vals = g(geom.levels(s, w))
            out[j] = float(((base * vals).sum(axis=1)
                            * geom.sphere_weights).sum())
        clipped = band < math.inf and bool(np.any(r2 >= band))
        return out, clipped

    ks, contribs = [], []
    band_limited = False
    total = np.zeros(len(integrands))

    def scan(direction):
        nonlocal band_limited, total
        first = len(contribs)
        k = 0 if direction > 0 else -1
        quiet = rising = 0
        prev = None
        while k in sm._K_RANGE:
            c, clipped = shell(k)
            ks.append(k)
            contribs.append(c)
            total = total + np.abs(c)
            small = np.all(c <= sm._REL_TOL * np.maximum(total, 1e-300))
            if clipped and not small:
                band_limited = True
            if clipped:
                break
            quiet = quiet + 1 if small else 0
            if quiet >= 3:
                break
            # the last shells of this scan, ordered outward
            last = np.asarray(contribs[first:][-(sm._TAIL_FIT_SHELLS + 1):])
            if (geometric and band == math.inf
                    and len(last) == sm._TAIL_FIT_SHELLS + 1
                    and (last > 0).all()):
                ratios = np.diff(np.log2(last), axis=0)
                if ((ratios < sm.CONVERGENT_SLOPE).all()
                        and (np.ptp(ratios, axis=0)
                             <= sm._GEOMETRIC_SPREAD).all()):
                    break
            if direction > 0 and prev is not None:
                rising = rising + 1 if np.all(c >= prev) else 0
                if rising >= 40:
                    break
            prev = c
            k += direction

    scan(+1)
    scan(-1)
    order = np.argsort(ks)
    ks = np.asarray(ks)[order]
    contribs = np.asarray(contribs)[order].T
    return ks, contribs, band_limited


def _assert_scan_matches_oracle(measure, idx, integrands):
    """Byte-identical shells, or a raise where the oracle kept a
    non-finite shell."""
    with np.errstate(all="ignore"):
        want = _one_shell_scan(measure, idx, integrands)
    if not np.isfinite(want[1]).all():
        with pytest.raises(NumericalConsistencyError, match="non-finite"):
            sm._dyadic_contributions(measure, idx, integrands)
        return want
    got = sm._dyadic_contributions(measure, idx, integrands)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].shape == want[1].shape
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]
    return want


def _admissibility_set(eta):
    return lambda idx: [sm._admissibility_integrand(idx, eta)]


def _cumulative_set(T):
    def integrands(idx):
        kappa = idx.min_damping
        return [
            (np.ones(idx.d), lambda s: T / (1 + 2 * T * s)),
            sm._cumulative_integrand(idx, T),
            (np.ones(idx.d), lambda s: 2 * T / (1 + 2 * T * kappa * s)),
        ]
    return integrands


KINKED = ([0.0, 1.0, 2.0, 4.0], [1.0, 1.0, 0.5, 0.0])
SCAN_MATRIX = {
    "1d-skewed": (SpectralMeasure.riesz(0.5, 1),
                  FractionalIndex([1.5], [0.5]), _admissibility_set(0.6)),
    "1d-alpha<1": (SpectralMeasure.bessel(0.8, 1),
                   FractionalIndex([0.7], [-0.2]), _cumulative_set(0.25)),
    "radial-d2": (SpectralMeasure.bessel(1.0, 2), GAUSS2,
                  _admissibility_set(0.6)),
    "radial-d3": (SpectralMeasure.free_field(1.0, 3),
                  FractionalIndex([2.0] * 3, [0.0] * 3),
                  _admissibility_set(0.7)),
    "radial-d4": (SpectralMeasure.riesz(1.5, 4),
                  FractionalIndex([2.0] * 4, [0.0] * 4),
                  _admissibility_set(0.9)),
    "aniso-2d": (SpectralMeasure.bessel(1.0, 2),
                 FractionalIndex([1.5, 1.2], [0.3, 0.1]),
                 _admissibility_set(0.8)),
    "aniso-3d": (SpectralMeasure.white(3),
                 FractionalIndex([1.5, 1.2, 0.8], [0.3, 0.1, -0.2]),
                 _cumulative_set(1.0)),
    "tabulated-band-limited": (SpectralMeasure.tabulated(*KINKED, 1),
                               FractionalIndex([1.5], [0.3]),
                               _admissibility_set(1.0)),
    "tabulated-radial-d2": (SpectralMeasure.tabulated(*KINKED, 2), GAUSS2,
                            _admissibility_set(0.7)),
    "tabulated-too-short": (
        SpectralMeasure.tabulated(np.linspace(0, 4.0, 16), np.ones(16), 1),
        GAUSS1, _admissibility_set(0.9)),
    "divergent-rising": (SpectralMeasure.white(2), GAUSS2,
                         _admissibility_set(0.6)),
    "cumulative-aniso-2d": (SpectralMeasure.bessel(2.0, 2),
                            FractionalIndex([1.5, 0.5], [0.4, 0.3]),
                            _cumulative_set(0.5)),
    "alpha-0.3125-bessel-3": (SpectralMeasure.bessel(3.0, 1),
                              FractionalIndex([0.3125], [-0.3125]),
                              _admissibility_set(1.0)),
    # shells 2^53..2^79 decay geometrically, yet the scan runs to the band
    "tabulated-wide-band": (SpectralMeasure.tabulated([0.0, 2.0**40],
                                                      [1.0, 1.0], 1),
                            GAUSS1, _admissibility_set(0.6)),
}


@pytest.mark.parametrize("case", list(SCAN_MATRIX))
def test_batched_scan_matches_one_shell_scan(case):
    measure, idx, integrands = SCAN_MATRIX[case]
    ks, c, band_limited = _assert_scan_matches_oracle(measure, idx,
                                                      integrands(idx))
    assert np.isfinite(c).all()
    if measure.kind != "tabulated":
        assert not band_limited
    if case == "tabulated-too-short":
        assert band_limited
    if case == "divergent-rising":
        # stopped by 40 growing shells, well inside the k range
        assert ks[-1] < sm._K_RANGE.stop - 1
        assert (np.diff(c[0][-41:]) >= 0).all()


@st.composite
def _scan_case(draw):
    d = draw(st.sampled_from([1, 2]))
    alpha = [draw(st.sampled_from([0.3125, 0.5, 0.8, 1.2, 1.5, 1.9, 2.0]))
             for _ in range(d)]
    idx = FractionalIndex(alpha, [draw(st.floats(-0.9, 0.9)) * min(a, 2 - a)
                                  for a in alpha])
    kind = draw(st.sampled_from(["white", "riesz", "bessel", "free_field",
                                 "tabulated"]))
    if kind == "white":
        measure = SpectralMeasure.white(d)
    elif kind == "riesz":
        measure = SpectralMeasure.riesz(draw(st.floats(0.1, d - 0.05)), d)
    elif kind == "bessel":
        measure = SpectralMeasure.bessel(draw(st.floats(0.2, 4.0)), d)
    elif kind == "free_field":
        measure = SpectralMeasure.free_field(draw(st.floats(0.2, 3.0)), d)
    else:
        radii = np.cumsum(draw(st.lists(st.floats(0.1, 20.0), min_size=1,
                                        max_size=4)))
        values = draw(st.lists(st.floats(0.0, 2.0), min_size=len(radii) + 1,
                               max_size=len(radii) + 1))
        measure = SpectralMeasure.tabulated([0.0, *radii], values, d)
    if draw(st.booleans()):
        integrands = _admissibility_set(draw(st.floats(0.05, 1.0)))
    else:
        integrands = _cumulative_set(draw(st.floats(0.01, 4.0)))
    return measure, idx, integrands(idx)


@settings(max_examples=50, deadline=None)
@given(case=_scan_case())
def test_batched_scan_matches_one_shell_scan_property(case):
    _assert_scan_matches_oracle(*case)


@pytest.mark.parametrize("alpha", [(1.5, 1.2), (1.5, 1.2, 0.8)])
def test_batched_scan_bisects_the_edges_the_one_shell_scan_reads(alpha):
    # every edge the one-shell scan reads, and past each stop at most the
    # rest of the batch that holds it.  Anisotropic 3-d shells are
    # evaluated one at a time, so there the two scans bisect the same edges
    idx = FractionalIndex(alpha, [0.3, 0.1, -0.2][:len(alpha)])
    measure = SpectralMeasure.white(len(alpha))
    integrands = _cumulative_set(1.0)(idx)
    edges = []
    for scan in (_one_shell_scan, sm._dyadic_contributions):
        sm._node_geometry.cache_clear()
        scan(measure, idx, integrands)
        edges.append(set(sm._node_geometry(alpha, False)._edges))
    sm._node_geometry.cache_clear()
    read, bisected = edges
    assert read == set(range(min(read), max(read) + 1))
    assert len(read) >= 40
    n_dirs = sm._N_THETA ** (len(alpha) - 1)
    past = max(1, sm._BATCH_NODES // (n_dirs * sm.N_RADIAL)) - 1
    assert read <= bisected
    assert bisected <= set(range(min(read) - past, max(read) + past + 1))
    if len(alpha) == 3:
        assert past == 0 and bisected == read


# -- geometric-tail stop -----------------------------------------------------------
#
# A scan stops at the first shell where its tail is geometric, and
# _extrapolated_sum adds the rest.  Oracle: the one-shell scan with that
# rule switched off, which runs on until its shells are quiet or the
# shell range ends.

GEOMETRIC_CASES = {
    **{key: (*SCAN_MATRIX[key], sm.N_RADIAL)
       for key in ("1d-skewed", "radial-d2", "radial-d3", "radial-d4",
                   "aniso-2d")},
    # shells scale as r^0.1 toward 0, too slowly to turn quiet
    "aniso-2d-riesz-0.1": (SpectralMeasure.riesz(0.1, 2),
                           FractionalIndex([1.5, 1.2], [0.3, 0.1]),
                           _admissibility_set(0.9), sm.N_RADIAL),
    # 8 radial nodes per shell keep the long 3-d oracle scan short
    "aniso-3d-riesz-0.1": (SpectralMeasure.riesz(0.1, 3),
                           FractionalIndex([1.9, 0.6, 1.5], [0.1, 0.1, -0.2]),
                           _cumulative_set(1.0), 8),
}
# a scan that stops on quiet shells before either tail is geometric
NEVER_GEOMETRIC = {"aniso-2d"}


@pytest.mark.parametrize("case", list(GEOMETRIC_CASES))
def test_geometric_stop_matches_the_full_scan(case):
    measure, idx, integrands, n_radial = GEOMETRIC_CASES[case]
    integrands = integrands(idx)
    ks, c, _, unsettled = sm._dyadic_contributions(measure, idx, integrands,
                                                   n_radial=n_radial)
    full_ks, full, _ = _one_shell_scan(measure, idx, integrands,
                                       n_radial=n_radial, geometric=False)
    assert unsettled is None
    assert (len(ks) == len(full_ks)) == (case in NEVER_GEOMETRIC)
    # the stop drops outer shells and changes none it keeps
    assert full[:, np.isin(full_ks, ks)].tobytes() == c.tobytes()
    for row, full_row in zip(c, full, strict=True):
        assert sm._extrapolated_sum(ks, row) == pytest.approx(
            sm._extrapolated_sum(full_ks, full_row), rel=1e-9, abs=0)
        assert sm._tail_slope(ks, row) == pytest.approx(
            sm._tail_slope(full_ks, full_row), rel=0, abs=1e-9)


@pytest.mark.parametrize("beta", [3.0, 0.76])
def test_admissibility_of_a_small_alpha_index_is_quiet(beta):
    # radii grow as 2^(3.2 k) here.  At beta = 0.76 the tail is geometric
    # from k = 44 on, where the scan stops
    m = SpectralMeasure.bessel(beta, 1)
    idx = FractionalIndex([0.3125], [-0.3125])
    rep = admissibility(m, idx, 1.0)
    ks, c, _ = _one_shell_scan(m, idx, [sm._admissibility_integrand(idx, 1.0)])
    assert rep.admissible and math.isfinite(rep.integral_value)
    assert rep.integral_value == sm._extrapolated_sum(ks, c[0])


def test_a_batch_run_past_its_stop_neither_warns_nor_keeps_shells():
    # radii grow as 2^(3.2 k) here, and a log factor keeps the tail from
    # turning geometric: the scan stops on quiet shells at k = 142, and its
    # batch runs on to shells where r^2 overflows (k > 160)
    m = SpectralMeasure.bessel(0.76, 1)
    idx = FractionalIndex([0.3125], [-0.3125])
    integrands = [(1.0, lambda s: (1 + s) ** -0.95 / np.log2(2 + s))]
    ks, c, _, unsettled = sm._dyadic_contributions(m, idx, integrands)
    want_ks, want, _ = _one_shell_scan(m, idx, integrands)
    assert unsettled is None and ks[-1] == 142
    assert ks.tobytes() == want_ks.tobytes() and c.tobytes() == want.tobytes()


def test_spectral_integral_raises_on_a_non_finite_shell():
    m = SpectralMeasure.bessel(1.0, 1)
    idx = FractionalIndex([1.5], [0.0])
    with pytest.raises(NumericalConsistencyError, match="non-finite"):
        spectral_integral(m, idx, lambda s: np.full_like(s, np.nan))


def test_spectral_integral_raises_where_the_shells_never_settle():
    # constant shells at alpha = beta = 0.5: the upward scan runs to the
    # end of the shell range, where it once summed to a finite 75.157
    from fracspde.density import cumulative_variance
    idx = FractionalIndex([0.5], [0.0])
    m = SpectralMeasure.bessel(0.5, 1)
    w, g = sm._cumulative_integrand(idx, 1.0)
    with pytest.raises(DivergenceError, match=r"end of the shell range at "
                                              r"shell 2\^339"):
        spectral_integral(m, idx, g, w)
    with pytest.raises(DivergenceError, match=r"2\^339"):
        cumulative_variance(idx, m, 1.0)


def test_spectral_integral_raises_on_growing_shells():
    # (1+s)^-0.1 against white noise at alpha = 0.5 grows shell on shell:
    # the scan stops on its run of growing shells, once summed to 9.4e22
    idx = FractionalIndex([0.5], [0.0])
    with pytest.raises(DivergenceError, match=r"growing shells at shell "
                                              r"2\^40"):
        spectral_integral(SpectralMeasure.white(1), idx,
                          lambda s: (1 + s) ** -0.1)


@pytest.mark.parametrize("measure, alpha, closed_form", [
    # shells scale as r^0.05 toward 0, too slowly to turn quiet: the
    # downward scan stops on its geometric tail near 2^-45
    (SpectralMeasure.riesz(0.05, 1), 2.0,
     lambda m, c: m.radial_density(np.array([1.0]))[0]
     * math.gamma(0.025) * c ** -0.025),
    # shells scale as r^-0.05 toward infinity in cumulative_variance: its
    # upward scan stops on its geometric tail near 2^9
    (SpectralMeasure.white(1), 1.05,
     lambda m, c: m.radial_density(np.array([1.0]))[0]
     * 2 * math.gamma(1 + 1 / 1.05) * c ** (-1 / 1.05)),
], ids=["riesz-0.05", "white-alpha-1.05"])
def test_spectral_integral_extends_a_slow_geometric_tail(measure, alpha,
                                                         closed_form):
    # a scan that stops on a slow geometric decay settles: the
    # extrapolated sum equals int m(|xi|) exp(-c |xi|^alpha) dxi
    from fracspde.density import cumulative_variance
    idx = FractionalIndex([alpha], [0.0])
    c = 2 * 0.5 * idx.damping
    assert _variance_rate(idx, measure, 0.5) == pytest.approx(
        closed_form(measure, c), rel=1e-8)
    assert math.isfinite(cumulative_variance(idx, measure, 1.0))


def test_a_decay_that_never_turns_geometric_settles_at_the_range_end():
    # shells fall as 2^(-0.05 k) / k: never geometric to round-off, nor
    # quiet within the shell range, yet decaying fast enough to extend
    integrand = (1.0, lambda s: (1 + s) ** -0.55 / np.log2(2 + s))
    ks, _, _, unsettled = sm._dyadic_contributions(
        SpectralMeasure.white(1), GAUSS1, [integrand])
    assert unsettled is None and ks[-1] == sm._K_RANGE.stop - 1
    assert math.isfinite(spectral_integral(SpectralMeasure.white(1), GAUSS1,
                                           integrand[1]))


def test_tabulated_band_too_short_is_inconclusive():
    radii = np.linspace(0, 4.0, 16)
    m = SpectralMeasure.tabulated(radii, np.ones_like(radii), 1)
    with pytest.raises(InconclusiveError):
        admissibility(m, GAUSS1, 0.9, method="quadrature")


BAND_LIMITED = [
    ([0.0, 1.0, 2.0, 4.0], [1.0, 1.0, 1.0, 1.0]),
    ([0.0, 1.0, 2.0, 4.0], [1.0, 1.0, 0.5, 0.0]),
    ([0.0, 50.0], [1.0, 1.0]),
]


@pytest.mark.parametrize("radii,values", BAND_LIMITED)
def test_band_limited_measure_settled_in_closed_form(radii, values):
    # a bounded density on a bounded band is admissible at every eta
    from fracspde.solver import Coefficient, SolverConfig
    idx = FractionalIndex([1.5], [0.3])
    m = SpectralMeasure.tabulated(radii, values, 1)
    assert closed_form_critical_eta(m, idx) == 0.0
    assert critical_eta(m, idx) == 0.0
    for eta in (0.05, 0.5, 1.0):
        rep = admissibility(m, idx, eta)
        assert rep.admissible and rep.conclusive
        assert rep.method == "closed_form"
    SolverConfig(idx=idx, measure=m, grid=Grid(1, 64, 8.0),
                 b=Coefficient.constant(0.0), sigma=Coefficient.constant(1.0),
                 u0=0.0, dt=0.01, T=0.1)


def test_band_limited_integral_is_the_shell_sum():
    # integrals over [-4, 4] only: no geometric tail added past the band
    idx = FractionalIndex([1.5], [0.3])
    m = SpectralMeasure.tabulated([0.0, 4.0], [1.0, 1.0], 1)
    want = 2 * quad(lambda x: 1 / (1 + x**1.5), 0, 4.0)[0]
    assert admissibility(m, idx, 1.0).integral_value == pytest.approx(
        want, rel=1e-9)
    kappa, T = math.cos(0.15 * math.pi), 1.0
    want = 2 * quad(lambda x: -math.expm1(-2 * T * kappa * x**1.5)
                    / (2 * kappa * x**1.5), 0, 4.0)[0]
    assert cumulative_bound_check(idx, m, T).integral == pytest.approx(
        want, rel=1e-9)


def test_tabulated_kinks_break_the_radial_nodes():
    # the piecewise-linear density has kinks at r = 1 and 2; each shell
    # splits its Gauss nodes there, so quad with the same breakpoints agrees
    radii, values = [0.0, 1.0, 2.0, 4.0], [1.0, 1.0, 0.5, 0.0]

    def m(r):
        return np.interp(r, radii, values)

    idx = FractionalIndex([1.5], [0.3])
    got = admissibility(SpectralMeasure.tabulated(radii, values, 1), idx,
                        1.0).integral_value
    want = 2 * quad(lambda x: m(x) / (1 + x**1.5), 0, 4.0, points=[1, 2])[0]
    assert got == pytest.approx(want, rel=1e-9)
    # radial 2-d: the angle integrates out, leaving 2 pi int m(r) r dr
    got = admissibility(SpectralMeasure.tabulated(radii, values, 2), GAUSS2,
                        0.7).integral_value
    want = 2 * np.pi * quad(lambda r: m(r) * r * (1 + r**2) ** -0.7, 0, 4.0,
                            points=[1, 2])[0]
    assert got == pytest.approx(want, rel=1e-9)


def test_inconclusive_admissibility_warns_when_accepted():
    # riesz gamma/alpha = 0.994: the eta=1 tail slope -0.006 is inside the
    # inconclusive band
    from fracspde.spectral_measure import _admissible_at_one
    _admissible_at_one.cache_clear()
    idx = FractionalIndex([0.5], [0.0])
    m = SpectralMeasure.riesz(0.497, 1)
    assert not admissibility(m, idx, 1.0).conclusive
    with pytest.warns(AccuracyWarning, match="inconclusive"):
        require_admissible(m, idx)


def test_critical_eta_quadrature_bisection():
    # riesz with fractional alpha: tail exponent gives eta* = gamma/alpha
    idx = FractionalIndex([1.5], [0.3])
    m = SpectralMeasure.riesz(0.5, 1)
    assert critical_eta(m, idx) == pytest.approx(0.5 / 1.5, abs=0.02)


# -- variance rate ------------------------------------------------------------

def test_variance_rate_white_closed_form():
    m = SpectralMeasure.white(1)
    for t in [0.05, 0.4, 1.0, 3.0]:
        assert _variance_rate(GAUSS1, m, t) == pytest.approx(
            (8 * np.pi * t) ** -0.5, rel=1e-10
        )


def test_anisotropic_quadrature_matches_separable_closed_form():
    # squared-semigroup integrand against a flat density factorizes into
    # per-axis Gamma integrals; exercises the d=2 directional machinery
    idx = FractionalIndex([1.5, 0.5], [0.4, 0.3])
    m = SpectralMeasure.white(2)
    t = 0.7
    exact = 1.0
    for a, dl in zip(idx.alpha, idx.delta):
        c = math.cos(dl * math.pi / 2)
        exact *= math.gamma(1 + 1 / a) / math.pi * (2 * t * c) ** (-1 / a)
    w = 2 * t * np.cos(np.asarray(idx.delta) * np.pi / 2)
    got = spectral_integral(m, idx, lambda s: np.exp(-s), axis_weights=w)
    assert got == pytest.approx(exact, rel=1e-9)


def test_variance_rate_riesz_fractional_oracle():
    idx = FractionalIndex([1.5], [0.3])
    m = SpectralMeasure.riesz(0.5, 1)
    got = _variance_rate(idx, m, 1.0)
    assert got == pytest.approx(RIESZ_RATE_ORACLE, rel=1e-8)
    # independent two-stage adaptive quadrature
    mu_c = m.riesz_constant
    ct = math.cos(0.3 * math.pi / 2)
    f = lambda r: r**-0.5 * math.exp(-2 * ct * r**1.5)
    oracle = 2 * mu_c * (quad(f, 0, 1)[0] + quad(f, 1, np.inf)[0])
    assert got == pytest.approx(oracle, rel=1e-5)


def test_variance_rate_decreasing_in_time():
    idx = FractionalIndex([1.5], [0.3])
    m = SpectralMeasure.bessel(1.0, 1)
    ts = np.geomspace(0.01, 5.0, 12)
    vals = [_variance_rate(idx, m, t) for t in ts]
    assert np.all(np.diff(vals) < 0)
    assert np.all(np.asarray(vals) > 0)


# -- cumulative bounds ---------------------------------------------------------

@pytest.mark.parametrize("idx,measure,T", [
    (GAUSS1, SpectralMeasure.white(1), 1.0),
    (FractionalIndex([1.5], [0.5]), SpectralMeasure.riesz(0.5, 1), 1.0),
    (FractionalIndex([1.5, 0.5], [0.4, 0.3]), SpectralMeasure.bessel(2.0, 2), 0.5),
    (FractionalIndex([2, 2, 2], [0, 0, 0]), SpectralMeasure.free_field(1.0, 3), 1.0),
    (FractionalIndex([0.7], [-0.2]), SpectralMeasure.bessel(0.8, 1), 0.25),
])
def test_cumulative_bounds_sandwich(idx, measure, T):
    rep = cumulative_bound_check(idx, measure, T)
    assert rep.lower <= rep.integral * (1 + 1e-6)
    assert rep.integral <= rep.upper * (1 + 1e-6)
    assert rep.lower > 0


def test_cumulative_bounds_factor_two_at_zero_skew():
    # kappa = 1 when delta = 0, so the two bounds share nodes and differ
    # exactly by the factor 2
    rep = cumulative_bound_check(GAUSS1, SpectralMeasure.white(1), 1.0)
    assert rep.upper == pytest.approx(2 * rep.lower, rel=1e-12)


def test_cumulative_bounds_raise_where_the_shells_never_settle():
    # Riesz gamma = 0.499 at alpha = 0.5: admissibility is inconclusive and
    # accepted, and the upward scan runs to the end of the shell range,
    # where the check once returned a finite integral of 398.5
    idx = FractionalIndex([0.5], [0.0])
    m = SpectralMeasure.riesz(0.499, 1)
    with pytest.warns(AccuracyWarning, match="inconclusive"), \
            pytest.raises(DivergenceError, match=r"end of the shell range"):
        cumulative_bound_check(idx, m, 1.0)


@pytest.mark.parametrize("call", [
    # reported finite=True and a value of 5.2e57
    lambda idx, m: weighted_spectral_integral(idx, m, 0.1, math.inf),
    # raised NumericalConsistencyError, the class of a numerical failure
    lambda idx, m: weighted_spectral_integral(idx, m, math.nan, 1.0),
    lambda idx, m: weighted_spectral_integral(idx, m, math.inf, 1.0),
    lambda idx, m: cumulative_bound_check(idx, m, math.inf),
    # raised DivergenceError
    lambda idx, m: cumulative_variance(idx, m, math.inf),
], ids=["weighted-T-inf", "weight-nan", "weight-inf", "cumulative-T-inf",
        "variance-rho-inf"])
def test_non_finite_horizons_and_exponents_are_rejected(call):
    idx, m = FractionalIndex([1.5], [0.3]), SpectralMeasure.riesz(0.5, 1)
    with pytest.raises(ConstraintViolationError, match="finite"):
        call(idx, m)


def test_cumulative_bounds_match_time_quadrature():
    # int_0^T of the variance rate, computed the slow way
    idx = FractionalIndex([1.5], [0.3])
    m = SpectralMeasure.riesz(0.5, 1)
    rep = cumulative_bound_check(idx, m, 0.5)
    slow = quad(lambda s: _variance_rate(idx, m, s), 0, 0.5, points=[0.01],
                limit=200)[0]
    assert rep.integral == pytest.approx(slow, rel=1e-6)


# -- weighted integral ----------------------------------------------------------

def test_weighted_integral_finite_below_critical():
    rep = weighted_spectral_integral(GAUSS1, SpectralMeasure.white(1), 0.4, 1.0)
    assert rep.finite and math.isfinite(rep.value)


def test_weighted_integral_divergent_above_critical():
    rep = weighted_spectral_integral(GAUSS1, SpectralMeasure.white(1), 0.6, 1.0)
    assert not rep.finite
    assert rep.value == math.inf


def test_weighted_integral_reduces_to_cumulative_at_zero_weight():
    idx = FractionalIndex([1.5], [0.0])  # zero skew: kappa = 1
    m = SpectralMeasure.bessel(1.0, 1)
    rep = weighted_spectral_integral(idx, m, 0.0, 0.8)
    bounds = cumulative_bound_check(idx, m, 0.8)
    assert rep.value == pytest.approx(bounds.integral, rel=1e-8)


def test_report_shapes():
    rep = admissibility(SpectralMeasure.white(1), GAUSS1, 0.8)
    assert isinstance(rep, AdmissibilityReport)
    d = rep.to_dict()
    assert set(d) >= {"eta", "integral_value", "admissible", "method"}
