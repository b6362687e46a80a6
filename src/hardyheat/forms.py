"""Quadratic-form layer: the fractional Laplacian on test functions, the
Dirichlet form E[f], the conditioned form built from the singular profile
h(x) = |x|^{-delta}, the Hardy inequality, and the form identity
conditioned_form = E[f] - int f^2 q with q = kappa |x|^{-alpha}.

All double integrals against the jump measure nu(w) = A |w|^{-d-alpha} dw
tame the diagonal by the quadratic cancellation (f(x) - f(y))^2 = O(|x-y|^2):
the ball |x - y| < r0 is replaced by its gradient-term value in closed form,
everything else is integrated in polar coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import gamma as _gamma
from math import pi

import numpy as np
from scipy.interpolate import RectBivariateSpline
from scipy.special import hyp2f1, j0

from .errors import DomainError
from .params import ModelParams, kappa_star
from .quadrature import composite_nodes, log_panel_nodes, panel_nodes
from .results import CheckResult, make_result
from .stable_kernel import levy_constant, sphere_area

_PV_INNER_RADIUS = 1e-3   # ring that frac_laplacian replaces by its Taylor term
_FFT_POINTS = 1024        # points per axis of the autocorrelation's FFT grid
_HANKEL_ROWS = 32         # frequencies per block of the Hankel product (7.5 MB
                          # at 29k radii); a multiple of 4 keeps BLAS's dot
                          # products, and so every bit, as in one product


@dataclass(frozen=True)
class TestFunction:
    """A smooth, rapidly decaying test function from the fixed corpus.

    kinds: "gaussian" exp(-|x-c|^2 / (2 s^2)); "bump" the standard compactly
    supported mollifier profile of radius s around c; "product" a Gaussian
    times a bump (smooth with compact support); "hardy_profile" the radial
    near-optimizer |x|^{-(d-alpha)/2} smoothly cut to [1/(2n), 2n] with
    scale = n.
    """

    kind: str
    center: tuple
    scale: float
    center2: tuple | None = None
    scale2: float | None = None
    d: int = 2
    alpha: float = 1.0    # only used by hardy_profile for its exponent

    __test__ = False      # not a test case despite the name

    def __post_init__(self):
        # float tuples, so that the function hashes (energy is memoized on it)
        object.__setattr__(self, "center", tuple(map(float, self.center)))
        if self.center2 is not None:
            object.__setattr__(self, "center2", tuple(map(float, self.center2)))
        if self.kind not in ("gaussian", "bump", "product", "hardy_profile"):
            raise DomainError(f"unknown test-function kind {self.kind!r}")
        if self.kind == "product" and (self.center2 is None or self.scale2 is None):
            raise DomainError("product functions need center2 and scale2")

    # -- evaluation ----------------------------------------------------------

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self.kind == "gaussian":
            return _gaussian(pts, self.center, self.scale)
        if self.kind == "bump":
            return _bump(pts, self.center, self.scale)
        if self.kind == "product":
            return (_gaussian(pts, self.center, self.scale)
                    * _bump(pts, self.center2, self.scale2))
        r = np.sqrt(np.sum(pts * pts, axis=-1))
        return self.radial_profile(r)

    def radial_profile(self, r: np.ndarray) -> np.ndarray:
        """g(r) for radial kinds (centered at the origin)."""
        if not self.is_radial:
            raise DomainError("not a radial test function")
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-0.5 * (r / self.scale) ** 2)
        if self.kind == "bump":
            return _bump_radial(r, self.scale)
        n = self.scale
        expo = (self.d - self.alpha) / 2.0
        with np.errstate(divide="ignore"):
            lr = np.log(np.maximum(r, 1e-300)) / np.log(2.0)
        cut = (_smoothstep(lr + np.log2(2.0 * n))
               * (1.0 - _smoothstep(lr - np.log2(n))))
        out = np.where(r > 0.0, np.maximum(r, 1e-300) ** (-expo) * cut, 0.0)
        return out

    @property
    def is_radial(self) -> bool:
        if self.kind == "hardy_profile":
            return True
        return (self.kind in ("gaussian", "bump")
                and float(np.hypot(*self.center)) == 0.0)

    @property
    def support_radius(self) -> float:
        """Radius beyond which the function is negligible (or exactly zero)."""
        rc, hw = _support_annulus(self)
        return rc + hw


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity transition 0 -> 1 on [0, 1]."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def _gaussian(pts, center, scale):
    diff = pts - np.asarray(center, dtype=float)
    return np.exp(-0.5 * np.sum(diff * diff, axis=-1) / scale ** 2)


def _bump_radial(r, R):
    u = (np.asarray(r, dtype=float) / R) ** 2
    out = np.zeros_like(u)
    inside = u < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside]))
    return out


def _bump(pts, center, R):
    diff = pts - np.asarray(center, dtype=float)
    return _bump_radial(np.sqrt(np.sum(diff * diff, axis=-1)), R)


def load_corpus(d: int = 2, alpha: float = 1.0) -> list:
    """The fixed, versioned 20-function test corpus."""
    text = resources.files("hardyheat.data").joinpath("corpus.json").read_text()
    data = json.loads(text)
    out = []
    for row in data["functions"]:
        out.append(TestFunction(
            kind=row["kind"], center=tuple(row["center"]), scale=row["scale"],
            center2=tuple(row["center2"]) if "center2" in row else None,
            scale2=row.get("scale2"), d=d, alpha=alpha,
        ))
    return out


def near_optimizer(n: int, d: int = 2, alpha: float = 1.0) -> TestFunction:
    """Smoothly truncated |x|^{-(d-alpha)/2}, the Hardy near-optimizer."""
    return TestFunction(kind="hardy_profile", center=(0.0, 0.0),
                        scale=float(n), d=d, alpha=alpha)


@dataclass(frozen=True)
class FormValue:
    value: float
    error: float
    route: str            # "direct_double" | "fourier_side"


# ---------------------------------------------------------------------------
# Fractional Laplacian on test functions


def frac_laplacian(phi: TestFunction, x, params: ModelParams) -> float:
    """Principal-value evaluation of the generator at a point (d = 2).

    The ring |y| < r0 = _PV_INNER_RADIUS is replaced by the second-order
    Taylor term (the gradient part vanishes by symmetry); beyond the
    quadrature range the -phi(x) mass of the Levy tail is added in closed
    form.
    """
    if params.d != 2:
        raise DomainError("pointwise generator quadrature supports d = 2 only")
    d, alpha = params.d, params.alpha
    x = np.asarray(x, dtype=float)
    A = levy_constant(d, alpha)
    fx = float(phi(x))
    r0 = _PV_INNER_RADIUS
    # Laplacian trace by central differences for the inner Taylor ring
    h = 0.25 * r0
    tr = sum(
        float(phi(x + h * e) + phi(x - h * e) - 2.0 * fx) / h ** 2
        for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    )
    inner = A * 2.0 * pi * (tr / 4.0) * r0 ** (2.0 - alpha) / (2.0 - alpha)
    r_hi = 1e3
    r, w = log_panel_nodes(r0, r_hi, n_per_panel=8, per_decade=4)
    n_th = 64
    th = 2.0 * pi * np.arange(n_th) / n_th
    pts = x[None, None, :] + r[:, None, None] * np.stack(
        [np.cos(th), np.sin(th)], axis=-1)[None, :, :]
    ring = np.sum(phi(pts) - fx, axis=1) * (2.0 * pi / n_th)
    outer = A * float(np.sum(w * r ** (-1.0 - alpha) * ring))
    tail = -fx * A * 2.0 * pi * r_hi ** (-alpha) / alpha
    return inner + outer + tail


def frac_laplacian_fourier(phi: TestFunction, x, params: ModelParams) -> float:
    """Fourier-route generator value for radial functions (d = 2 oracle).

    Evaluates -(2 pi)^{-d} int |xi|^alpha phi_hat(xi) e^{i xi x} d xi via the
    1-d Hankel representation.  The rho^{1+alpha} factor amplifies any
    quadrature noise in the transform, so both grids are linear at high
    frequency / radius with the Bessel oscillation explicitly resolved.
    """
    if not phi.is_radial or params.d != 2:
        raise DomainError("the Fourier route needs a radial function in d = 2")
    alpha = params.alpha
    rx = float(np.hypot(*np.asarray(x, dtype=float)))
    scale = phi.scale if phi.kind != "hardy_profile" else 0.5 / phi.scale
    # the mollifier transform decays only stretched-exponentially, so the
    # bump kinds need a far higher frequency cutoff than the Gaussian
    rho_cut = 25.0 if phi.kind == "gaussian" else 300.0
    rho_hi = rho_cut / min(scale, phi.support_radius)
    rho, w = _oscillation_grid(1e-4 / phi.support_radius, rho_hi,
                               max(rx, 1e-3))
    ghat = _hankel_transform(phi, rho)
    vals = rho ** (1.0 + alpha) * ghat * j0(rho * rx)
    return -float(np.sum(w * vals)) / (2.0 * pi)


def _oscillation_grid(lo: float, hi: float, freq: float):
    """Quadrature on [lo, hi]: log panels up to the first oscillation of
    cos(freq * x), then linear panels with ~8 nodes per period."""
    switch = min(hi, max(2.0 * lo, 1.0 / freq))
    r1, w1 = log_panel_nodes(lo, switch, n_per_panel=8, per_decade=4)
    if switch >= hi:
        return r1, w1
    n_panels = max(8, int(np.ceil((hi - switch) * freq / (2.0 * pi) * 2.0)))
    r2, w2 = composite_nodes(np.linspace(switch, hi, n_panels + 1), 6)
    return np.concatenate([r1, r2]), np.concatenate([w1, w2])


def _fourier_grid(f: TestFunction):
    """Frequency quadrature adapted to the function's inverse length scale."""
    scale = f.scale if f.kind != "hardy_profile" else 0.5 / f.scale
    lo, hi = 1e-4 / f.support_radius, 60.0 / min(scale, f.support_radius)
    return log_panel_nodes(lo, hi, n_per_panel=10, per_decade=6)


def _hankel_transform(f: TestFunction, rho: np.ndarray) -> np.ndarray:
    """2-d Fourier transform of a radial function at radial frequencies rho."""
    rho = np.asarray(rho, dtype=float)
    if f.kind == "gaussian":
        s = f.scale
        return 2.0 * pi * s * s * np.exp(-0.5 * (rho * s) ** 2)
    R = f.support_radius
    r, w = _oscillation_grid(1e-7 * R, R, float(np.max(rho)))
    v = w * r * f.radial_profile(r)
    out = np.empty(len(rho))
    for i in range(0, len(rho), _HANKEL_ROWS):
        block = slice(i, i + _HANKEL_ROWS)
        out[block] = j0(rho[block, None] * r[None, :]) @ v
    return 2.0 * pi * out


# ---------------------------------------------------------------------------
# Dirichlet form


def _direct_double_radial(E2: float, corr, scale: float, d: int, alpha: float,
                          r_hi: float) -> float:
    """E from the autocorrelation route: A int r^{-1-alpha} (angular integral
    of E2 - C) dr, with the small-r part done by the quadratic term."""
    A = levy_constant(d, alpha)
    r0 = 1e-4 * scale
    r, w = log_panel_nodes(r0, r_hi, n_per_panel=10, per_decade=5)
    vals = E2 * 2.0 * pi - corr(r)
    main = A * float(np.sum(w * r ** (-1.0 - alpha) * vals))
    # below r0 the angular integral of E2 - C is ~ pi r^2 int |grad f|^2 / (2 pi)
    c2 = (E2 * 2.0 * pi - corr(np.array([r0]))[0]) / r0 ** 2
    inner = A * c2 * r0 ** (2.0 - alpha) / (2.0 - alpha)
    tail = A * E2 * 2.0 * pi * r_hi ** (-alpha) / alpha
    return main + inner + tail


def energy(f: TestFunction, params: ModelParams, route: str = "auto") -> FormValue:
    """The Dirichlet form E[f] = 1/2 int int (f(x)-f(y))^2 nu(y-x) dx dy.

    Routes: "fourier_side" (2 pi)^{-d} int |xi|^alpha |f_hat|^2 d xi, closed
    form for Gaussians and Hankel quadrature for radial functions;
    "direct_double" via the autocorrelation C(w) = int f(x) f(x+w) dx, which
    is closed-form for Gaussians and FFT-computed otherwise.

    E[f] does not depend on kappa: it is computed once per (f, d, alpha,
    route) in a process.
    """
    if route == "auto":
        route = "fourier_side" if (f.kind == "gaussian" or f.is_radial) \
            else "direct_double"
    return _energy(f, params.d, params.alpha, route)


@lru_cache(maxsize=128)
def _energy(f: TestFunction, d: int, alpha: float, route: str) -> FormValue:
    if route == "fourier_side":
        if f.kind == "gaussian":
            s = f.scale
            val = sphere_area(d) * s ** (d - alpha) * 0.5 * _gamma((alpha + d) / 2.0)
            return FormValue(val, 1e-14 * val, "fourier_side")
        if not f.is_radial or d != 2:
            raise DomainError("the Fourier route needs a radial function")
        rho, w = _fourier_grid(f)
        ghat = _hankel_transform(f, rho)
        val = float(np.sum(w * rho ** (1.0 + alpha) * ghat ** 2)) / (2.0 * pi)
        return FormValue(val, 1e-5 * abs(val), "fourier_side")
    if route != "direct_double":
        raise DomainError(f"unknown energy route {route!r}")
    if d != 2:
        raise DomainError("the direct route supports d = 2 only")
    if f.kind == "gaussian":
        s = f.scale
        E2 = pi * s * s

        def corr(r):
            return 2.0 * pi * E2 * np.exp(-r ** 2 / (4.0 * s * s))

        val = _direct_double_radial(E2, corr, s, d, alpha, 60.0 * s)
        return FormValue(val, 1e-7 * val, "direct_double")
    corr, E2, r_valid = _fft_autocorrelation(f)
    scale = min(f.scale, f.scale2 or f.scale)
    val = _direct_double_radial(E2, corr, scale, d, alpha, r_valid)
    return FormValue(val, 2e-4 * abs(val), "direct_double")


def _fft_autocorrelation(f: TestFunction):
    """(corr, E2, r_valid): angular integral of C(w) over |w| = r by FFT.

    corr(r) returns int_0^{2pi} C(r omega) d theta; valid for r <= r_valid.
    """
    R = f.support_radius
    n = _FFT_POINTS
    L = 2.6 * R
    xs = np.linspace(-L, L, n, endpoint=False)
    dx = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = f(np.stack([X, Y], axis=-1))
    F = np.fft.rfft2(vals)
    C = np.fft.irfft2(np.abs(F) ** 2, s=(n, n)) * dx * dx
    C = np.fft.fftshift(C)
    spl = RectBivariateSpline(xs, xs, C, kx=3, ky=3)
    E2 = float(spl(0.0, 0.0)[0, 0])
    n_th = 64
    th = 2.0 * pi * np.arange(n_th) / n_th
    cth, sth = np.cos(th), np.sin(th)
    r_valid = 0.9 * L

    def corr(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))[:, None]
        ring = np.sum(spl(r * cth, r * sth, grid=False), axis=1)
        return np.where(r[:, 0] > r_valid, 0.0, ring * (2.0 * pi / n_th))

    return corr, E2, r_valid


def _support_annulus(f: TestFunction):
    """(center radius, half-width) of the annulus carrying the support."""
    if f.kind == "gaussian":
        return float(np.hypot(*f.center)), 10.0 * f.scale
    if f.kind == "bump":
        return float(np.hypot(*f.center)), f.scale
    if f.kind == "product":
        return float(np.hypot(*f.center2)), f.scale2
    return 0.0, 2.0 * f.scale


def _radial_l2_grid(f: TestFunction):
    """Origin-centered radial nodes/weights plus an angular count, resolving
    the support annulus of functions centered far from the origin (for which
    plain log panels and a fixed angle count are both too coarse)."""
    R = f.support_radius
    rc, hw = _support_annulus(f)
    lo_ann = rc - hw
    if lo_ann <= 1e-6 * R:
        r, w = log_panel_nodes(1e-8 * R, R, n_per_panel=10, per_decade=5)
        return r, w, 96
    r1, w1 = log_panel_nodes(1e-8 * R, lo_ann, n_per_panel=8, per_decade=4)
    r2, w2 = composite_nodes(np.linspace(lo_ann, rc + hw, 17), 8)
    n_th = int(min(1024, max(96, 24.0 * (rc + hw) / hw)))
    return np.concatenate([r1, r2]), np.concatenate([w1, w2]), n_th


def weighted_l2(f: TestFunction, gamma: float, d: int = 2) -> float:
    """int f(x)^2 |x|^{-gamma} dx (polar around the origin)."""
    if not (gamma < d):
        raise DomainError(f"the weight exponent must be below d, got {gamma}")
    r, w, n_th = _radial_l2_grid(f)
    if f.is_radial:
        g = f.radial_profile(r)
        return sphere_area(d) * float(np.sum(w * g * g * r ** (d - 1 - gamma)))
    th = 2.0 * pi * np.arange(n_th) / n_th
    pts = r[:, None, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)[None, :, :]
    vals = f(pts) ** 2
    ang = np.sum(vals, axis=1) * (2.0 * pi / n_th)
    return float(np.sum(w * r ** (d - 1 - gamma) * ang))


# ---------------------------------------------------------------------------
# Conditioned form and checks


def bar_energy(f: TestFunction, params: ModelParams) -> FormValue:
    """The conditioned form built from h(x) = |x|^{-delta} (d = 2):

    1/2 int int (u(x) - u(y))^2 h(x) h(y) nu(y-x) dx dy,   u = f / h.

    Expanding the square gives E[f] plus a term whose angular average over
    jump directions is the hypergeometric 2F1(delta/2, delta/2; 1; rho^2)
    with rho the radius ratio; integrating out the jump length collapses the
    h-weight part to c(delta) * int f^2 |x|^{-alpha} dx with c(delta) a pure
    constant evaluated here by direct quadrature (not from the Gamma-function
    coupling curve, which this route is meant to test against).
    """
    if params.d != 2:
        raise DomainError("the conditioned form supports d = 2 only")
    d, alpha = params.d, params.alpha
    delta = params.delta if np.isfinite(params.delta) else 0.0
    e = energy(f, params, route="direct_double")
    if delta == 0.0:
        return FormValue(e.value, e.error, "ground_state_transform")
    c = _h_weight_constant(delta, alpha, d)
    w_mass = weighted_l2(f, alpha, d)
    val = e.value + c * w_mass
    return FormValue(val, e.error + 1e-6 * abs(c * w_mass),
                     "ground_state_transform")


@lru_cache(maxsize=32)
def _h_weight_constant(delta: float, alpha: float, d: int) -> float:
    """c(delta) = A int_0^inf rho^{-1-alpha} G(rho) d rho where G(rho) is the
    angular integral of (|x| / |x + rho x_hat'|)^{-delta}... - 2 pi, i.e.
    2 pi [2F1(delta/2, delta/2; 1; rho^2) - 1] below 1 and its reflection
    above.  The integrand has a (1 - rho)^{1-delta} cusp at rho = 1, handled
    by geometrically graded panels on both sides.
    """
    A = levy_constant(d, alpha)
    s = delta / 2.0

    def G(rho):
        z = np.where(rho <= 1.0, rho, 1.0 / rho) ** 2
        F = hyp2f1(s, s, 1.0, z)
        return np.where(rho <= 1.0, 2.0 * pi * (F - 1.0),
                        rho ** (-delta) * 2.0 * pi * F - 2.0 * pi)

    lo, hi = 1e-8, 1e8
    edges = list(np.geomspace(lo, 0.5, 120))
    e = 0.5
    while 1.0 - e > 1e-10:
        e = 1.0 - 0.5 * (1.0 - e)
        edges.append(e)
    edges.append(1.0)
    e = 1e-10
    while 1.0 + e < 2.0:
        edges.append(1.0 + e)
        e *= 2.0
    edges.extend(np.geomspace(2.0, hi, 100))
    edges = np.array(edges)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        x, w = panel_nodes(a, b, 12)
        total += float(np.sum(w * x ** (-1.0 - alpha) * G(x)))
    # analytic head: G ~ 2 pi (delta/2)^2 rho^2 below the grid
    total += 2.0 * pi * s * s * lo ** (2.0 - alpha) / (2.0 - alpha)
    # analytic tail: G -> 2 pi rho^{-delta} - 2 pi beyond the grid
    total += 2.0 * pi * hi ** (-alpha - delta) / (alpha + delta)
    total += -2.0 * pi * hi ** (-alpha) / alpha
    return A * total


def check_hardy(f: TestFunction, params: ModelParams) -> CheckResult:
    """Nonnegativity of E[f] - kappa_star int f^2 |x|^{-alpha} dx."""
    d, alpha = params.d, params.alpha
    ks = kappa_star(d, alpha)
    e = energy(f, params)
    rhs = ks * weighted_l2(f, alpha, d)
    gap = e.value - rhs
    defect = max(0.0, -gap) / max(e.value, 1e-300)
    return make_result("hardy_inequality", defect, 1e-6, energy=e.value,
                       weighted_mass_side=rhs, gap=gap)


def check_form_identity(f: TestFunction, params: ModelParams) -> CheckResult:
    """Defect of conditioned_form = E[f] - int f^2 q, q = kappa |x|^{-alpha}."""
    e = energy(f, params)
    bar = bar_energy(f, params)
    pot = params.kappa * weighted_l2(f, params.alpha, params.d)
    defect = abs(bar.value - (e.value - pot)) / max(e.value, 1.0)
    return make_result("form_identity", defect, 1e-3, bar_energy=bar.value,
                       energy=e.value, potential_term=pot)


def near_optimizer_gaps(ns, params: ModelParams) -> list:
    """Normalized Hardy gaps of the near-optimizer family, one per n."""
    gaps = []
    for n in ns:
        f = near_optimizer(n, params.d, params.alpha)
        e = energy(f, params, route="fourier_side")
        rhs = kappa_star(params.d, params.alpha) * weighted_l2(
            f, params.alpha, params.d)
        gaps.append((e.value - rhs) / e.value)
    return gaps
