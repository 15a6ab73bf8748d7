"""Built-in model geometries.

Four analytic models cover flat and curved boundaries and a curved interior:

* ``half-line``      -- [0, inf), boundary {0}
* ``half-space:d=k`` -- R^{k-1} x [0, inf), boundary x_k = 0
* ``disk``           -- open unit disk in R^2, boundary the unit circle
* ``cap:theta0=t``   -- geodesic cap {theta <= theta0} on the unit sphere,
  chart coordinates (theta, phi) with metric dtheta^2 + sin^2(theta) dphi^2

Every operation works in chart coordinates.  Tangent vectors are expressed in
the chart orthonormal frame: the Cartesian basis for the flat models and
(e_theta, e_phi_hat) for the cap, so Euclidean dot products of components are
metric inner products.

Frames follow the boundary-adapted construction: near the boundary the first
field is the gradient of the boundary distance and the remaining collar fields
are tangent to its level sets; away from the boundary the frame blends into an
interior one through a smooth cutoff so that sqrt(beta) and sqrt(1 - beta)
stay smooth.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TubularZoneError

HALF_LINE = "half-line"
HALF_SPACE = "half-space"
FLAT_DISK = "disk"
SPHERICAL_CAP = "cap"


@dataclass(frozen=True)
class ManifoldModel:
    """Immutable geometry bundle; all operations on it are pure functions."""

    id: str
    dim: int
    tubular_radius: float
    frame_count: int
    theta0: float = float("nan")

    @property
    def is_flat_chart(self) -> bool:
        """True when the chart metric is Euclidean (all but the cap)."""
        return self.id != SPHERICAL_CAP

    @property
    def name(self) -> str:
        if self.id == HALF_SPACE:
            return f"half-space:d={self.dim}"
        if self.id == SPHERICAL_CAP:
            return f"cap:theta0={self.theta0:g}"
        return self.id


def half_line() -> ManifoldModel:
    return ManifoldModel(id=HALF_LINE, dim=1, tubular_radius=1.0, frame_count=1)


def half_space(d: int) -> ManifoldModel:
    if d < 1:
        raise ValueError("half-space dimension must be >= 1")
    return ManifoldModel(id=HALF_SPACE, dim=d, tubular_radius=1.0, frame_count=d)


def flat_disk() -> ManifoldModel:
    return ManifoldModel(id=FLAT_DISK, dim=2, tubular_radius=1.0 / 3.0, frame_count=4)


def spherical_cap(theta0: float) -> ManifoldModel:
    if not 0.0 < theta0 < math.pi:
        raise ValueError("cap opening angle must lie in (0, pi)")
    return ManifoldModel(
        id=SPHERICAL_CAP, dim=2, tubular_radius=theta0 / 3.0, frame_count=5, theta0=theta0
    )


_MODEL_RE = re.compile(r"^(half-line|half-space|disk|cap)(?::(.*))?$")


def _angle(text: str) -> float:
    """A float, or ``pi/<number>`` for pi over that number."""
    num, sep, den = text.partition("/")
    if not sep or num.strip() != "pi":
        return float(text)
    den = float(den)
    if den == 0.0:
        raise ValueError(f"angle {text!r} divides by zero")
    return math.pi / den


def parse_model(text: str) -> ManifoldModel:
    """Build a model from a CLI/config string such as ``half-space:d=3`` or
    ``cap:theta0=pi/3``."""
    m = _MODEL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"unknown model string {text!r}")
    kind, args = m.group(1), m.group(2)
    params = {}
    if args:
        for part in args.split(","):
            key, _, val = part.partition("=")
            if not val:
                raise ValueError(f"malformed model argument {part!r} in {text!r}")
            params[key.strip()] = val.strip()
    if kind == HALF_LINE:
        return half_line()
    if kind == HALF_SPACE:
        return half_space(int(params.pop("d", "2")))
    if kind == FLAT_DISK:
        return flat_disk()
    theta0 = _angle(params.pop("theta0", str(math.pi / 3)))
    if params:
        raise ValueError(f"unused model arguments {sorted(params)} in {text!r}")
    return spherical_cap(theta0)


@dataclass(frozen=True)
class TangentVector:
    """Vector at a chart point, components in the chart orthonormal frame."""

    base: np.ndarray
    components: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


def _points(model: ManifoldModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape == () and model.dim == 1:
        x = x.reshape(1)
    if x.shape[-1] != model.dim:
        raise DomainError(f"point of dimension {x.shape[-1]} for model of dim {model.dim}")
    return x


def norm(x) -> np.ndarray:
    """Euclidean norm over the last axis: ``np.linalg.norm(x, axis=-1)`` bit
    for bit.  Two or three components are summed as that sum of squares adds
    them, (x0^2 + x1^2) + x2^2, in a quarter of its numpy calls; other counts
    go to ``np.linalg.norm``."""
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    if m not in (2, 3):
        return np.linalg.norm(x, axis=-1)
    x0, x1 = x[..., 0], x[..., 1]
    sq = x0 * x0 + x1 * x1
    if m == 3:
        x2 = x[..., 2]
        sq += x2 * x2
    return np.sqrt(sq)


def contains(model: ManifoldModel, x) -> np.ndarray:
    """Whether points lie in the (closed) chart domain."""
    x = _points(model, x)
    if model.id in (HALF_LINE, HALF_SPACE):
        return x[..., -1] >= 0
    if model.id == FLAT_DISK:
        return norm(x) <= 1.0
    theta = x[..., 0]
    return (theta >= 0) & (theta <= model.theta0)


def boundary_distance(model: ManifoldModel, x) -> np.ndarray | float:
    """Distance to the boundary; exact closed form per geometry."""
    x = _points(model, x)
    if not np.all(contains(model, x)):
        raise DomainError("point outside the chart domain")
    if model.id in (HALF_LINE, HALF_SPACE):
        r = x[..., -1]
    elif model.id == FLAT_DISK:
        r = 1.0 - norm(x)
    else:
        r = model.theta0 - x[..., 0]
    return float(r) if r.ndim == 0 else r


def raw_boundary_distance(model: ManifoldModel, x) -> np.ndarray:
    """Signed boundary distance without the domain check (internal use)."""
    x = np.asarray(x, dtype=float)
    if model.id in (HALF_LINE, HALF_SPACE):
        return x[..., -1]
    if model.id == FLAT_DISK:
        return 1.0 - norm(x)
    return model.theta0 - x[..., 0]


def in_tubular_zone(model: ManifoldModel, x) -> np.ndarray:
    return boundary_distance(model, x) < model.tubular_radius


def inward_normal(model: ManifoldModel, x) -> TangentVector:
    """Unit inward normal, equal to the gradient of the boundary distance.

    Only defined in the tubular zone R < delta_0.
    """
    x = _points(model, x)
    if not np.all(in_tubular_zone(model, x)):
        raise TubularZoneError("inward_normal requires R(x) < tubular radius")
    return TangentVector(base=x, components=_normal_components(model, x))


def _normal_components(model: ManifoldModel, x) -> np.ndarray:
    if model.id in (HALF_LINE, HALF_SPACE):
        nu = np.zeros_like(x)
        nu[..., -1] = 1.0
        return nu
    if model.id == FLAT_DISK:
        return -x / norm(x)[..., None]
    nu = np.zeros_like(x)
    nu[..., 0] = -1.0  # -e_theta: inward means decreasing polar angle
    return nu


def _level_curvature(model: ManifoldModel, x) -> np.ndarray:
    """Principal curvature of the boundary-distance level set through x,
    finite at the disk centre and the cap pole."""
    x = _points(model, x)
    if model.id in (HALF_LINE, HALF_SPACE):
        return np.zeros(x.shape[:-1])
    if model.id == FLAT_DISK:
        return 1.0 / np.maximum(norm(x), 1e-300)
    return 1.0 / np.tan(np.clip(x[..., 0], 1e-12, None))


def shape_operator(model: ManifoldModel, x, w) -> TangentVector:
    """Tangential part of -grad_w(normal); linear in w."""
    x = _points(model, x)
    if not np.all(in_tubular_zone(model, x)):
        raise TubularZoneError("shape_operator requires R(x) < tubular radius")
    w = np.asarray(getattr(w, "components", w), dtype=float)
    nu = _normal_components(model, x)
    w_tan = w - nu * np.sum(nu * w, axis=-1, keepdims=True)
    kappa = _level_curvature(model, x)
    return TangentVector(base=x, components=w_tan * kappa[..., None])


def ricci_factor(model: ManifoldModel) -> float:
    """Ricci operator is this multiple of the identity on every built-in model."""
    return 1.0 if model.id == SPHERICAL_CAP else 0.0


def ricci(model: ManifoldModel, x, w) -> TangentVector:
    x = _points(model, x)
    if not np.all(contains(model, x)):
        raise DomainError("point outside the chart domain")
    w = np.asarray(getattr(w, "components", w), dtype=float)
    return TangentVector(base=x, components=ricci_factor(model) * w)


def normal_gradient_sq(model: ManifoldModel, x) -> np.ndarray:
    """Squared Hilbert-Schmidt norm of grad(normal field)."""
    return _level_curvature(model, x) ** 2


def normal_hessian_trace(model: ManifoldModel, x) -> np.ndarray:
    """trace of the second covariant derivative of the normal field.

    On every built-in model this is -|grad nu|^2 times the normal itself.
    """
    x = _points(model, x)
    return -(_level_curvature(model, x) ** 2)[..., None] * _normal_components(model, x)


def laplacian_R_of_R(model: ManifoldModel, R) -> np.ndarray:
    """Laplacian of the boundary distance as a function of R, in the collar."""
    R = np.asarray(R, dtype=float)
    if model.id in (HALF_LINE, HALF_SPACE):
        return np.zeros_like(R)
    if model.id == FLAT_DISK:
        return -1.0 / (1.0 - R)
    return -1.0 / np.tan(model.theta0 - R)


def laplacian_R_of_R_slope(model: ManifoldModel, R) -> np.ndarray:
    """Derivative in R of :func:`laplacian_R_of_R` (never positive)."""
    R = np.asarray(R, dtype=float)
    if model.id in (HALF_LINE, HALF_SPACE):
        return np.zeros_like(R)
    if model.id == FLAT_DISK:
        return -1.0 / (1.0 - R) ** 2
    return -1.0 / np.sin(model.theta0 - R) ** 2


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C^inf monotone step, identically 0 for u <= 0 and 1 for u >= 1: a / (a + b)
    with a = exp(-1/u) and b = exp(-1/(1 - u)) for u clipped to [0, 1].  At
    either end the floor 1e-300 makes the exponential underflow to exactly 0,
    with no division by zero."""
    u = np.clip(u, 0.0, 1.0)
    a = np.exp(-1.0 / np.maximum(u, 1e-300))
    b = np.exp(-1.0 / np.maximum(1.0 - u, 1e-300))
    return a / (a + b)


def blend(model: ManifoldModel, R) -> np.ndarray:
    """Cutoff beta: 1 on the collar R <= delta_0, 0 for R >= 2 delta_0.

    cos^2 of a smooth step keeps both sqrt(beta) and sqrt(1-beta) smooth.
    """
    R = np.asarray(R, dtype=float)
    if model.id in (HALF_LINE, HALF_SPACE):
        return np.ones_like(R)
    d0 = model.tubular_radius
    u = (R - d0) / d0
    # cos(0)^2 is exactly 1 for u <= 0; cos(pi/2)^2 is not 0
    val = np.cos(0.5 * math.pi * _smoothstep(u)) ** 2
    return np.where(u >= 1.0, 0.0, val)


# -- cap chart <-> ambient sphere helpers -----------------------------------


def cap_to_ambient(x) -> np.ndarray:
    """(theta, phi) -> point on the unit sphere in R^3."""
    return _cap_ambient(_cap_trig(np.asarray(x, dtype=float)))


def cap_from_ambient(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    out = np.empty(p.shape[:-1] + (2,))
    np.arccos(np.clip(p[..., 2], -1.0, 1.0), out=out[..., 0])
    np.arctan2(p[..., 1], p[..., 0], out=out[..., 1])
    return out


def cap_basis(x) -> np.ndarray:
    """Ambient components of (e_theta, e_phi_hat) at chart point(s) x, (..., 3, 2)."""
    ct, st, cp, sp = _cap_trig(np.asarray(x, dtype=float))
    out = np.empty(ct.shape + (3, 2))
    out[..., :, 0] = _cap_e_theta((ct, st, cp, sp))
    np.negative(sp, out=out[..., 0, 1])
    out[..., 1, 1] = cp
    out[..., 2, 1] = 0.0
    return out


# The helpers below take the trig of chart points once, so that a stepper
# evaluates it once per point; cap_to_ambient and cap_basis are built on them.


def _cap_trig(x):
    """cos and sin of theta, then of phi, at chart points x."""
    theta, phi = x[..., 0], x[..., 1]
    return np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)


def _cap_ambient(trig) -> np.ndarray:
    """The points of _cap_trig on the unit sphere in R^3."""
    ct, st, cp, sp = trig
    out = np.empty(ct.shape + (3,))
    np.multiply(st, cp, out=out[..., 0])
    np.multiply(st, sp, out=out[..., 1])
    out[..., 2] = ct
    return out


def _cap_e_theta(trig) -> np.ndarray:
    """Ambient components of e_theta at the points of _cap_trig, (..., 3)."""
    ct, st, cp, sp = trig
    out = np.empty(ct.shape + (3,))
    np.multiply(ct, cp, out=out[..., 0])
    np.multiply(ct, sp, out=out[..., 1])
    np.negative(st, out=out[..., 2])
    return out


def _cap_tangent(trig, v):
    """(e_theta, e_phi_hat) components of the ambient vectors v (..., 3) at the
    points of _cap_trig: ``einsum("pkc,pk->pc", cap_basis(x), v)`` bit for
    bit wherever a component is not zero (einsum also adds e_phi_hat's zero
    third entry times v2, which can only turn a sum of -0.0 into +0.0)."""
    ct, st, cp, sp = trig
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return ((ct * cp) * v0 + (ct * sp) * v1) + (-st) * v2, (-sp) * v0 + cp * v1


def frame(model: ManifoldModel, x):
    """Frame fields sigma_1..sigma_m and drift sigma_0 at x.

    The first field equals grad R throughout the collar; together the fields
    reproduce the metric, and sigma_0 makes the generator one half of the
    Laplace-Beltrami operator.

    Returns
    -------
    (list[TangentVector], TangentVector)
    """
    x = _points(model, x)
    if not np.all(contains(model, x)):
        raise DomainError("point outside the chart domain")
    base = x
    zeros = np.zeros(x.shape[:-1])

    if model.id in (HALF_LINE, HALF_SPACE):
        d = model.dim
        sigmas = []
        for k in range(d):
            e = np.zeros_like(x)
            # component 1 drives the normal coordinate x_d
            e[..., (d - 1) if k == 0 else (k - 1)] = 1.0
            sigmas.append(TangentVector(base, e))
        return sigmas, TangentVector(base, np.zeros_like(x))

    R = boundary_distance(model, x)
    beta = blend(model, R)
    rb = np.sqrt(beta)[..., None]
    ri = np.sqrt(1.0 - beta)[..., None]

    if model.id == FLAT_DISK:
        r = norm(x)[..., None]
        safe_r = np.maximum(r, 1e-300)
        e_r = np.where(r > 0, x / safe_r, 0.0)
        e_t = np.stack([-e_r[..., 1], e_r[..., 0]], axis=-1)
        ex = np.zeros_like(x)
        ex[..., 0] = 1.0
        ey = np.zeros_like(x)
        ey[..., 1] = 1.0
        sigmas = [
            TangentVector(base, -rb * e_r),
            TangentVector(base, rb * e_t),
            TangentVector(base, ri * ex),
            TangentVector(base, ri * ey),
        ]
        sigma0 = TangentVector(base, (beta[..., None] / (2.0 * safe_r)) * e_r)
        return sigmas, sigma0

    theta = x[..., 0]
    e_theta = np.zeros_like(x)
    e_theta[..., 0] = 1.0
    e_phi = np.zeros_like(x)
    e_phi[..., 1] = 1.0
    grad = cap_basis(x)  # row k: the tangent projection of ambient axis k
    sigmas = [
        TangentVector(base, -rb * e_theta),
        TangentVector(base, rb * e_phi),
        TangentVector(base, ri * grad[..., 0, :]),
        TangentVector(base, ri * grad[..., 1, :]),
        TangentVector(base, ri * grad[..., 2, :]),
    ]
    cot = 1.0 / np.tan(theta)
    sigma0 = TangentVector(base, (0.5 * beta * cot)[..., None] * e_theta)
    return sigmas, sigma0


def frame_matrix(model: ManifoldModel, x) -> np.ndarray:
    """Frame as an array of shape (..., m, dim) of orthonormal components."""
    sigmas, _ = frame(model, x)
    return np.stack([s.components for s in sigmas], axis=-2)


def chart_distance(model: ManifoldModel, x, y) -> np.ndarray:
    """Distance used by path comparisons.

    Euclidean in the chart for flat-chart models (quasi-isometric to the
    intrinsic distance there); ambient chordal distance on the cap, where the
    chart's phi coordinate degenerates at the pole.
    """
    x = _points(model, x)
    y = _points(model, y)
    if model.is_flat_chart:
        return norm(x - y)
    return norm(cap_to_ambient(x) - cap_to_ambient(y))


def nearest_boundary_point(model: ManifoldModel, x) -> np.ndarray:
    """Projection to the boundary, defined on the tubular zone."""
    x = _points(model, x)
    if model.id in (HALF_LINE, HALF_SPACE):
        out = x.copy()
        out[..., -1] = 0.0
        return out
    if model.id == FLAT_DISK:
        return x / np.maximum(norm(x)[..., None], 1e-300)
    out = x.copy()
    out[..., 0] = model.theta0
    return out
