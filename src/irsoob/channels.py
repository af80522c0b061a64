"""Deployment geometry, path loss, and random channel generation.

Two operators share the band's propagation environment: the in-band operator
controls the reflector, the out-of-band (OOB) operator does not. Each has its
own base station; user terminals are dropped uniformly in a rectangle. All
small-scale fading is redrawn per time slot while positions (and therefore
path losses) stay fixed for a trial batch.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .kernels import cascade_bin, db_to_linear

LINK_CLASSES = ("bs_irs", "irs_ue", "direct")
IID_UE_POINT = (1000.0, 1000.0)   # where every UE sits when a spec asks for iid UEs


def finite(name: str, value):
    """value itself when a finite real number (no bool), else a ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValueError(f"{name}: expected a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class NodeGeometry:
    """Planar coordinates (meters) of the two base stations, the reflector, and the UE drop region."""

    bs_inband: tuple[float, float] = (0.0, 50.0)
    bs_oob: tuple[float, float] = (50.0, 0.0)
    irs: tuple[float, float] = (1025.0, 1025.0)
    ue_region: tuple[tuple[float, float], tuple[float, float]] = ((950.0, 950.0), (1100.0, 1100.0))

    def __post_init__(self):
        for name in ("bs_inband", "bs_oob", "irs", "ue_region"):
            if isinstance(getattr(self, name), list):   # JSON has no tuples
                object.__setattr__(self, name, tuple(
                    tuple(v) if isinstance(v, list) else v for v in getattr(self, name)))
            for value in np.ravel(np.asarray(getattr(self, name), dtype=object)):
                finite(name, value)
        (x0, y0), (x1, y1) = self.ue_region
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"ue_region corners must be ordered, got {self.ue_region}")


@dataclass(frozen=True)
class PathLossParams:
    """Distance-power law beta = 10^(c0_db/10) * (d0/d)^alpha, one exponent per link class."""

    c0_db: float = -30.0
    d0: float = 1.0
    alpha_bs_irs: float = 2.0
    alpha_irs_ue: float = 2.0
    alpha_direct: float = 4.5

    def __post_init__(self):
        for field in fields(self):
            finite(field.name, getattr(self, field.name))
        if self.c0_db >= 0:
            raise ValueError(f"c0_db must be negative, got {self.c0_db}")
        if self.d0 <= 0:
            raise ValueError(f"d0 must be positive, got {self.d0}")
        for name in ("alpha_bs_irs", "alpha_irs_ue", "alpha_direct"):
            if getattr(self, name) < 2.0:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")

    def exponent(self, link_class: str) -> float:
        if link_class not in LINK_CLASSES:
            raise ValueError(f"unknown link class {link_class!r}, expected one of {LINK_CLASSES}")
        return getattr(self, f"alpha_{link_class}")


def path_loss(params: PathLossParams, distance: float, link_class: str) -> float:
    """Linear power gain of one link; rejects distances inside the reference distance d0."""
    if distance < params.d0:
        raise ValueError(f"distance {distance} is below the reference distance {params.d0}")
    alpha = params.exponent(link_class)
    return float(db_to_linear(params.c0_db) * (params.d0 / distance) ** alpha)


def _dist(a, b) -> float:
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


def draw_ue_positions(rng: np.random.Generator, geometry: NodeGeometry, count: int,
                      d0: float = 1.0) -> np.ndarray:
    """Uniform UE drop over the rectangle, resampling any UE that lands within d0 of a node.

    The reflector sits inside the drop region, so a UE can in principle land
    closer than the path-loss reference distance; those draws are rejected to
    keep every link distance valid; 10,000 rounds in a row that keep none raise.
    """
    (x0, y0), (x1, y1) = geometry.ue_region
    nodes = np.array([geometry.bs_inband, geometry.bs_oob, geometry.irs])
    pos = np.empty((count, 2))
    filled = idle = 0
    while filled < count:
        cand = rng.uniform([x0, y0], [x1, y1], size=(count - filled, 2))
        ok = np.all(np.hypot(cand[:, None, 0] - nodes[None, :, 0],
                             cand[:, None, 1] - nodes[None, :, 1]) > d0, axis=1)
        kept = cand[ok]
        pos[filled:filled + len(kept)] = kept
        filled += len(kept)
        idle = 0 if len(kept) else idle + 1
        if idle == 10_000:
            raise ValueError(f"ue_region: 10000 rounds kept no UE beyond d0 = {d0} of every node")
    return pos


@dataclass(frozen=True)
class LinkBudget:
    """Per-UE linear path losses for one operator: reflector feeder, reflector-UE, and direct links."""

    beta_f: float
    beta_g: np.ndarray
    beta_d: np.ndarray

    @property
    def beta_r(self) -> np.ndarray:
        """Cascade loss product beta_f * beta_g, one value per UE."""
        return self.beta_f * self.beta_g

    @property
    def n_ues(self) -> int:
        return len(self.beta_g)


def link_budget(geometry: NodeGeometry, params: PathLossParams, bs: tuple[float, float],
                ue_positions: np.ndarray) -> LinkBudget:
    """Path losses from one base station to each UE, directly and through the reflector."""
    beta_f = path_loss(params, _dist(bs, geometry.irs), "bs_irs")
    beta_g = np.array([path_loss(params, _dist(geometry.irs, ue), "irs_ue")
                       for ue in ue_positions])
    beta_d = np.array([path_loss(params, _dist(bs, ue), "direct") for ue in ue_positions])
    return LinkBudget(beta_f=beta_f, beta_g=beta_g, beta_d=beta_d)


def complex_normal(rng: np.random.Generator, variance, size) -> np.ndarray:
    """Zero-mean circularly-symmetric complex Gaussian draws with the given variance.

    Equal bit for bit to sqrt(variance/2) * (z1 + 1j*z2), where z1 and then z2
    are rng.standard_normal(size): each part is one real product, written in
    place, so no complex temporaries are built.
    """
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    buf = rng.standard_normal(size)
    out = np.empty(np.broadcast_shapes(scale.shape, buf.shape), dtype=complex)
    np.multiply(scale, buf, out=out.real)
    rng.standard_normal(out=buf)
    np.multiply(scale, buf, out=out.imag)
    return out


def _draw_grid_bins(rng: np.random.Generator, n_elements: int, count: int) -> np.ndarray:
    # Distinct directions whenever the grid is large enough; otherwise collisions
    # are unavoidable and duplicate paths are merged downstream.
    return rng.choice(n_elements, size=count, replace=count > n_elements)


def mmwave_angle_bins(rng: np.random.Generator, n_elements: int, l1: int, l2: int,
                      n_ues: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """On-grid path angles of one operator as indices into resolvable_angles(n_elements):
    (feeder (l1,), per-UE (n_ues, l2), cascade (n_ues, L)).

    Draws the feeder bins, then each UE's bins in turn. The cascade bin of
    (feeder path i, UE path j) is that of wrap(phi_i + psi_j), cascade_bin of
    the two, L = l1 * l2 entries ordered with j fastest. Requires even
    n_elements: sums of two grid angles wrap back onto the grid only when N is
    even, and the cascade representation relies on that closure.
    """
    if n_elements < 2 or n_elements % 2:
        raise ValueError(f"n_elements must be even and >= 2, got {n_elements}")
    if l1 < 1 or l2 < 1:
        raise ValueError(f"path counts must be >= 1, got l1={l1}, l2={l2}")
    bs_bins = _draw_grid_bins(rng, n_elements, l1)
    ue_bins = np.stack([_draw_grid_bins(rng, n_elements, l2) for _ in range(n_ues)])
    cascade_bins = cascade_bin(bs_bins[:, None], ue_bins[:, None, :],
                               n_elements).reshape(n_ues, l1 * l2)
    return bs_bins, ue_bins, cascade_bins
