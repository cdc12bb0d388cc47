"""Galerkin assembly: P1 mass/stiffness/load on interval and disk meshes,
plus the coupling and Gram blocks for spaces enriched with boundary-layer
profiles.

Dirichlet boundary DOFs are eliminated at assembly, so all matrices are
reduced (interior + enriched DOFs) and symmetric positive definite.
Integrals involving an enrichment profile are evaluated over the same
triangulated domain as the standard blocks, with per-triangle rules graded
toward the boundary so the sqrt(eps) layer scale is resolved; standard P1
blocks use exact element formulas or fixed-order triangle rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .corrector import EnrichmentSpec, enrichment_profile, enrichment_profile_dxi
from .mesh import Mesh1D, Mesh2D
from .quadrature import (
    QuadratureLayout,
    composite_interval,
    gauss_interval,
    gauss_triangle,
    geometric_panels,
    layer_strip_rule,
)

SMOOTH_TRI_DEGREE = 4


class AssemblyError(Exception):
    pass


@dataclass(frozen=True)
class BasisSpace:
    """Unified DOF indexing: interior P1 DOFs first, then enriched DOFs.

    In 2D each enriched DOF is phi(xi, t) * psi_j(eta) with psi_j the 1D hat
    at the angle of boundary node j (so M = boundary node count).  In 1D the
    two enriched DOFs are phi(x) and phi(1 - x)."""

    mesh: object
    enrichment: EnrichmentSpec = None
    interior_nodes: np.ndarray = None
    node_to_dof: np.ndarray = None

    @property
    def n_standard(self):
        return len(self.interior_nodes)

    @property
    def n_enriched(self):
        if self.enrichment is None:
            return 0
        return 2 if self.mesh.dim == 1 else len(self.mesh.boundary_nodes)

    @property
    def total_dofs(self):
        return self.n_standard + self.n_enriched


def build_space(mesh, enrichment: EnrichmentSpec = None) -> BasisSpace:
    n = len(mesh.nodes)
    boundary = set(int(i) for i in mesh.boundary_nodes)
    interior = np.array([i for i in range(n) if i not in boundary], dtype=int)
    node_to_dof = -np.ones(n, dtype=int)
    node_to_dof[interior] = np.arange(len(interior))
    if enrichment is not None and mesh.dim == 2 and len(mesh.rings) == 0:
        raise AssemblyError("enriched 2D assembly requires the ring structure of the generator")
    return BasisSpace(mesh=mesh, enrichment=enrichment, interior_nodes=interior, node_to_dof=node_to_dof)


@dataclass
class AssembledSystem:
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    load: callable                  # t -> vector over all DOFs
    parts: dict = field(default_factory=dict)


def _symmetrize(a):
    a = sp.csr_matrix(a)
    return (a + a.T) * 0.5


# ---------------------------------------------------------------------------
# quadrature layouts for loads and error integration


def _interval_points(a, b, eps, toward, n_sub=6, n_gauss=4):
    """Composite Gauss points on [a, b], geometrically graded toward one end
    ('left'/'right'/None) with first panel width ~2 sqrt(eps)."""
    length = b - a
    if toward is None:
        breaks = np.linspace(0.0, length, 3)
    else:
        breaks = geometric_panels(length, n_sub, 2.0 * np.sqrt(eps))
    rule = composite_interval(breaks, n_gauss)
    if toward == "right":
        return b - rule.points[::-1], rule.weights[::-1]
    return a + rule.points, rule.weights


def _starts(counts):
    """Offset of each element's first point, from per-element point counts."""
    return np.concatenate([[0], np.cumsum(counts)[:-1]])


def element_rules_1d(mesh: Mesh1D, eps: float, refine: int = 1) -> QuadratureLayout:
    """Per-element quadrature resolving boundary layers of width sqrt(eps).

    Elements near either endpoint are graded toward it; interior elements
    get plain composite Gauss.  `refine` doubles panel counts (used by the
    norm self-consistency check)."""
    pts, wts = [], []
    for a, b in mesh.nodes[mesh.elements]:
        if a < 0.3:
            toward = "left"
        elif b > 0.7:
            toward = "right"
        else:
            toward = None
        p, w = _interval_points(a, b, eps, toward, n_sub=6 * refine, n_gauss=4 * refine)
        pts.append(p)
        wts.append(w)
    counts = np.array([len(w) for w in wts])
    element = np.repeat(np.arange(len(mesh.elements)), counts)
    points = np.concatenate(pts)
    a, b = mesh.nodes[mesh.elements[element]].T
    lam = (points - a) / (b - a)
    return QuadratureLayout(
        points, np.concatenate(wts), np.stack([1.0 - lam, lam], axis=1), element, _starts(counts)
    )


def _sym_geometric_panels(n_half, first_width):
    half = geometric_panels(0.5, n_half, first_width)
    return np.concatenate([half, (1.0 - half[::-1])[1:]])


def triangle_rule_points(tri_xy, bdy_mask, eps, n_sub=6, n_gauss=4):
    """Quadrature points, weights, and barycentric coordinates on a physical
    triangle, graded toward its boundary feature so integrands varying on
    the sqrt(eps) scale near the unit circle are resolved.

    bdy_mask marks which of the three vertices lie on the domain boundary.
    """
    p0, p1, p2 = np.asarray(tri_xy, dtype=float)
    area = 0.5 * abs((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1]))
    nb = int(np.sum(bdy_mask))
    ell = 4.0 * np.sqrt(eps)
    if nb in (1, 2):
        # order vertices: boundary ones first
        order = list(np.argsort(~np.asarray(bdy_mask)))
        A, B, C = (p0, p1, p2)[order[0]], (p0, p1, p2)[order[1]], (p0, p1, p2)[order[2]]
        if nb == 2:
            # A, B on the boundary, C interior
            L = np.linalg.norm(B - A)
            height = 2.0 * area / L
            s_breaks = geometric_panels(1.0, n_sub, max(ell / height, 1e-8))
            u_breaks = _sym_geometric_panels(n_sub, max(2.0 * ell / L**2, 1e-8))
        else:
            height = 2.0 * area / np.linalg.norm(C - B)
            s_breaks = geometric_panels(1.0, n_sub, max(ell / height, 1e-8))
            u_breaks = np.linspace(0.0, 1.0, 3)
        rs = composite_interval(s_breaks, n_gauss)
        ru = composite_interval(u_breaks, n_gauss)
        s, u = np.meshgrid(rs.points, ru.points, indexing="ij")
        ws, wu = np.meshgrid(rs.weights, ru.weights, indexing="ij")
        if nb == 2:
            lam = np.stack([((1 - s) * (1 - u)).ravel(), ((1 - s) * u).ravel(), s.ravel()], axis=1)
            wts = (ws * wu * (1 - s)).ravel() * 2.0 * area
        else:
            lam = np.stack([(1 - s).ravel(), (s * (1 - u)).ravel(), (s * u).ravel()], axis=1)
            wts = (ws * wu * s).ravel() * 2.0 * area
        pts = lam @ np.vstack([A, B, C])
        bary = np.empty_like(lam)
        bary[:, order] = lam
        return pts, wts, bary
    pts, wts, lam = _smooth_triangle_rule(np.vstack([p0, p1, p2])[None])
    return pts[0], wts[0], lam


def _smooth_triangle_rule(v):
    """The fixed smooth rule on each triangle of v (t, 3, 2): points
    (t, q, 2), weights (t, q), and the shared barycentric coordinates (q, 3)."""
    rule = gauss_triangle(SMOOTH_TRI_DEGREE)
    x, y = rule.points[:, 0], rule.points[:, 1]
    lam = np.stack([1.0 - x - y, x, y], axis=1)
    area2 = np.abs(
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
    )
    return lam @ v, rule.weights * area2[:, None], lam


def element_rules_2d(mesh: Mesh2D, eps: float, refine: int = 1, triangles=None) -> QuadratureLayout:
    """triangle_rule_points over the listed triangles (default: all) as one
    flat layout.  Triangles without a boundary vertex all take the fixed
    smooth rule and are mapped in one batch; the graded ones, about two per
    boundary node, are built one by one."""
    tri_ids = np.arange(len(mesh.triangles)) if triangles is None else np.asarray(triangles)
    tris = mesh.triangles[tri_ids]
    verts = mesh.nodes[tris]
    on_bdy = np.zeros(len(mesh.nodes), dtype=bool)
    on_bdy[mesh.boundary_nodes] = True
    masks = on_bdy[tris]
    graded = masks.any(axis=1)
    rules = {
        k: triangle_rule_points(verts[k], masks[k], eps, n_sub=6 * refine, n_gauss=4 * refine)
        for k in np.nonzero(graded)[0]
    }
    smooth = np.nonzero(~graded)[0]
    smooth_pts, smooth_wts, lam = _smooth_triangle_rule(verts[smooth])
    counts = np.full(len(tri_ids), len(lam))
    counts[graded] = [len(w) for _, w, _ in rules.values()]
    starts = _starts(counts)
    n = int(counts.sum())
    points, weights, bary = np.empty((n, 2)), np.empty(n), np.empty((n, 3))
    at = (starts[smooth, None] + np.arange(len(lam))).ravel()
    points[at] = smooth_pts.reshape(-1, 2)
    weights[at] = smooth_wts.ravel()
    bary[at] = np.tile(lam, (len(smooth), 1))
    for k, (p, w, b) in rules.items():
        sl = slice(starts[k], starts[k] + counts[k])
        points[sl], weights[sl], bary[sl] = p, w, b
    return QuadratureLayout(points, weights, bary, np.repeat(tri_ids, counts), starts)


def triangle_geometry(nodes, tris):
    """Areas and P1 gradient coefficients for all triangles."""
    p = nodes[tris]
    x, y = p[..., 0], p[..., 1]
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    area = 0.5 * det  # CCW
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1) / det[:, None]
    by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1) / det[:, None]
    return area, bx, by


# ---------------------------------------------------------------------------
# standard P1 assembly


def _assemble_standard_1d(space, epsilon):
    mesh = space.mesh
    nd = space.node_to_dof
    rows, cols, mvals, avals = [], [], [], []
    for i, j in mesh.elements:
        h = mesh.nodes[j] - mesh.nodes[i]
        if h <= 0.0:
            raise AssemblyError("degenerate element")
        local_m = np.array([[h / 3.0, h / 6.0], [h / 6.0, h / 3.0]])
        local_a = epsilon / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
        dofs = [nd[i], nd[j]]
        for a in range(2):
            for b in range(2):
                if dofs[a] >= 0 and dofs[b] >= 0:
                    rows.append(dofs[a])
                    cols.append(dofs[b])
                    mvals.append(local_m[a, b])
                    avals.append(local_a[a, b])
    n = space.n_standard
    mass = sp.csr_matrix((mvals, (rows, cols)), shape=(n, n))
    stiff = sp.csr_matrix((avals, (rows, cols)), shape=(n, n))
    return mass, stiff


def _assemble_standard_2d(space, epsilon):
    mesh = space.mesh
    nd = space.node_to_dof
    area, bx, by = triangle_geometry(mesh.nodes, mesh.triangles)
    if np.any(area <= 0.0):
        raise AssemblyError("degenerate or misoriented triangle")
    tris = mesh.triangles
    nt = len(tris)
    local_m = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
    grads = np.stack([bx, by], axis=2)  # (nt, 3, 2)
    local_a = epsilon * area[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
    rows = np.repeat(nd[tris], 3, axis=1).ravel()
    cols = np.tile(nd[tris], (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = space.n_standard
    mass = sp.csr_matrix((local_m.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n))
    stiff = sp.csr_matrix((local_a.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n))
    return mass, stiff


def _load_layout(space, epsilon):
    """Precompute quadrature points, weights, DOF targets and hat values for
    the standard load vector; returns arrays usable for any time level.

    Standard loads use the smooth-term quadrature (plain Gauss), matching
    the classical scheme; only enrichment integrals get layer rules.
    Contributions are ordered by element, then vertex, then point."""
    mesh = space.mesh
    if mesh.dim == 1:
        base = gauss_interval(4)
        a, b = mesh.nodes[mesh.elements].T
        coords = (a[:, None] + (b - a)[:, None] * base.points,)
        wts = (b - a)[:, None] * base.weights
        hats = np.stack([1.0 - base.points, base.points])
        elems = mesh.elements
    else:
        pts, wts, lam = _smooth_triangle_rule(mesh.nodes[mesh.triangles])
        coords = (pts[..., 0], pts[..., 1])
        hats = lam.T
        elems = mesh.triangles
    dofs = space.node_to_dof[elems]
    keep = np.broadcast_to((dofs >= 0)[:, :, None], dofs.shape + hats.shape[-1:])

    def spread(vals):
        return np.broadcast_to(vals, keep.shape)[keep]

    return (
        tuple(spread(c[:, None, :]) for c in coords),
        spread(wts[:, None, :]),
        spread(dofs[:, :, None]),
        spread(hats),
    )


def assemble_standard(space: BasisSpace, epsilon: float) -> AssembledSystem:
    """Mass, stiffness and load assembler for the plain P1 space."""
    if space.mesh.dim == 1:
        mass, stiff = _assemble_standard_1d(space, epsilon)
    else:
        mass, stiff = _assemble_standard_2d(space, epsilon)
    mass = _symmetrize(mass)
    stiff = _symmetrize(stiff)
    coords, wts, dofs, hats = _load_layout(space, epsilon)
    n = space.n_standard

    # the load needs the problem source; expose a factory so the same
    # assembled system serves any ProblemData
    def make_load(f):
        def load_fn(t):
            fvals = np.asarray(f(*coords, t), dtype=float)
            return np.bincount(dofs, weights=wts * hats * fvals, minlength=n)

        return load_fn

    sysm = AssembledSystem(mass=mass, stiffness=stiff, load=None)
    sysm.parts["make_load"] = make_load
    sysm.parts["Mss"] = mass
    sysm.parts["Ass"] = stiff
    return sysm


# ---------------------------------------------------------------------------
# point location on disk meshes


class TriangleLocator:
    """Radius-binned point location with graceful extrapolation.

    Points in the sliver between the polygonal mesh boundary and the unit
    circle get the nearest triangle (largest minimal barycentric value), so
    P1 fields extend linearly there.
    """

    def __init__(self, mesh: Mesh2D):
        self.mesh = mesh
        p = mesh.nodes[mesh.triangles]
        r = np.linalg.norm(p, axis=2)
        rmin, rmax = r.min(axis=1), r.max(axis=1)
        n_bins = max(4, int(np.ceil(1.5 / max(mesh.h, 1e-6))))
        self.edges = np.linspace(0.0, 1.0, n_bins + 1)
        self.bins = []
        for lo, hi in zip(self.edges[:-1], self.edges[1:]):
            self.bins.append(np.nonzero((rmax >= lo - 1e-12) & (rmin <= hi + 1e-12))[0])
        # affine barycentric maps: lambda = B @ (1, x, y)
        v = mesh.nodes[mesh.triangles]
        mats = np.concatenate([np.ones(v.shape[:2] + (1,)), v], axis=2)
        self.affine = np.linalg.inv(mats).transpose(0, 2, 1)  # rows: (alpha, beta, gamma) per vertex

    def locate(self, x, y):
        """Triangle index and barycentric coordinates for each point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        r = np.hypot(x, y)
        idx = np.clip(np.searchsorted(self.edges, r, side="right") - 1, 0, len(self.bins) - 1)
        tri_out = np.full(len(x), -1, dtype=int)
        bary_out = np.zeros((len(x), 3))
        ones = np.ones(len(x))
        pmat = np.stack([ones, x, y], axis=1)
        for b in np.unique(idx):
            sel = np.nonzero(idx == b)[0]
            cand = self.bins[b]
            if len(cand) == 0:
                cand = np.arange(len(self.mesh.triangles))
            lam = np.einsum("kij,pj->pki", self.affine[cand], pmat[sel])  # (pts, cand, 3)
            score = lam.min(axis=2)
            best = score.argmax(axis=1)
            tri_out[sel] = cand[best]
            bary_out[sel] = lam[np.arange(len(sel)), best]
        return tri_out, bary_out


def fitted_arrays(x, y):
    """Vectorized boundary-fitted coordinates (eta in [0, 2 pi), xi = 1 - r)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    xi = np.clip(1.0 - r, 0.0, 1.0)
    eta = np.mod(np.arctan2(y, x), 2.0 * np.pi)
    return eta, xi, r


# ---------------------------------------------------------------------------
# enriched assembly


def _angular_gram(m):
    """Mass and stiffness Gram matrices of the M periodic angular hats."""
    deta = 2.0 * np.pi / m
    mass = np.zeros((m, m))
    stiff = np.zeros((m, m))
    for j in range(m):
        mass[j, j] = 2.0 * deta / 3.0
        stiff[j, j] = 2.0 / deta
        for k in ((j + 1) % m, (j - 1) % m):
            mass[j, k] += deta / 6.0
            stiff[j, k] += -1.0 / deta
    return mass, stiff


RAD_N_SUB = 10
RAD_N_GAUSS = 5


@dataclass
class _CouplingLayout2D:
    """The enriched-space integrals over the triangulated (polygonal) domain
    as linear maps from values at the quadrature points, so a time level only
    needs new radial profile values, not new geometry.

    Each operator is a CSR matrix with one column per quadrature point that
    holds the geometry (weights, hats, angular hats, gradients), so one
    mat-vec sums the point values into the stored entries of a block:
    - sl_m @ phi and sl_a1 @ dphi + sl_a2 @ phi (times eps) are the data of
      the coupling blocks msl and asl on the fixed (n, m) CSR pattern
      (sl_indices, sl_indptr);
    - ee_m and ee_ang map phi**2, dphi**2 or phi_new * phi_old to the
      flattened (m, m) enriched blocks;
    - le @ (phi * f) is the enriched load.

    Integrating these blocks over the same polygon as the standard blocks is
    essential: extending them to the curved annulus would make the layer
    functions answer for the sliver between the chords and the circle, where
    no hat function lives, and bias the enriched coefficients upward."""

    xi: np.ndarray
    x: np.ndarray
    y: np.ndarray
    sl_indices: np.ndarray
    sl_indptr: np.ndarray
    sl_m: sp.csr_matrix
    sl_a1: sp.csr_matrix
    sl_a2: sp.csr_matrix
    ee_m: sp.csr_matrix
    ee_ang: sp.csr_matrix
    le: sp.csr_matrix


def _coupling_layout_2d(space: BasisSpace) -> _CouplingLayout2D:
    mesh = space.mesh
    spec = space.enrichment
    n = space.n_standard
    m = space.n_enriched
    deta = 2.0 * np.pi / m

    # quadrature over every triangle meeting the profile support: graded
    # rules on boundary triangles (the profile varies on the sqrt(eps) scale
    # near the circle), the smooth rule elsewhere
    vert_r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    tri_r_max = vert_r[mesh.triangles].max(axis=1)
    support_tris = np.nonzero(tri_r_max > 1.0 - spec.support + 1e-12)[0]

    quad = element_rules_2d(mesh, spec.epsilon, triangles=support_tris)
    pts, w, bary, tri_idx = quad.points, quad.weights, quad.bary, quad.element
    x, y = pts[:, 0], pts[:, 1]
    eta, xi, r = fitted_arrays(x, y)
    n_pts = len(xi)

    panel = np.minimum((eta / deta).astype(int), m - 1)
    frac = eta / deta - panel
    # the two angular hats alive at each point: columns, values, derivatives
    cols = np.stack([panel, (panel + 1) % m], axis=1)
    psi = np.stack([1.0 - frac, frac], axis=1)
    dpsi = np.array([-1.0, 1.0]) / deta

    # the three standard hats of each point's triangle: dofs, values (bary)
    # and the components of their gradients along grad(xi) and grad(eta)
    _, bx, by = triangle_geometry(mesh.nodes, mesh.triangles)
    dof = space.node_to_dof[mesh.triangles[tri_idx]]
    bx, by = bx[tri_idx], by[tri_idx]
    g_xi = bx * (-x / r)[:, None] + by * (-y / r)[:, None]
    g_eta = bx * (-y / r**2)[:, None] + by * (x / r**2)[:, None]
    wb = w[:, None]

    # Contributions are listed point by point, which is the CSC order of an
    # operator.  One linear-time conversion gives a family's CSR pattern, with
    # the flat position of each stored entry's coefficient as its data.
    def pattern(rows, per_point, n_rows, positions):
        indptr = np.concatenate([[0], np.cumsum(per_point)])
        return sp.csc_matrix((positions, rows, indptr), shape=(n_rows, n_pts)).tocsr()

    def operator(pat, coeff):
        return sp.csr_matrix((coeff.ravel()[pat.data], pat.indices, pat.indptr), shape=pat.shape)

    # standard-enriched coupling: (point, standard hat, angular hat), stored
    # entries numbered in CSR order of the (n, m) pattern
    keep = (dof >= 0)[:, :, None].repeat(2, axis=2)
    key = (dof[:, :, None] * m + cols[:, None, :])[keep]
    keys = np.unique(key)
    sl = pattern(np.searchsorted(keys, key), keep.sum(axis=(1, 2)), len(keys), np.flatnonzero(keep))

    # enriched-enriched products: each point couples its panel's two hats
    ee_rows = (cols[:, :, None] * m + cols[:, None, :]).ravel()
    ee = pattern(ee_rows, np.full(n_pts, 4), m * m, np.arange(4 * n_pts))
    ang = (w[:, None, None] * dpsi[:, None] * dpsi) / (r**2)[:, None, None]

    return _CouplingLayout2D(
        xi=xi,
        x=x,
        y=y,
        sl_indices=keys % m,
        sl_indptr=np.searchsorted(keys // m, np.arange(n + 1)),
        sl_m=operator(sl, (wb * bary)[:, :, None] * psi[:, None, :]),
        sl_a1=operator(sl, (wb * g_xi)[:, :, None] * psi[:, None, :]),
        sl_a2=operator(sl, (wb * g_eta)[:, :, None] * dpsi),
        ee_m=operator(ee, (wb * psi)[:, :, None] * psi[:, None, :]),
        ee_ang=operator(ee, ang),
        le=operator(pattern(cols.ravel(), np.full(n_pts, 2), m, np.arange(2 * n_pts)), wb * psi),
    )


def _check_gram(mee):
    vals = np.linalg.eigvalsh(mee)
    if vals[0] <= 0.0 or vals[-1] / vals[0] > 1e15:
        raise AssemblyError("enriched Gram block is numerically singular")


@dataclass(frozen=True)
class EnrichedLevel:
    """The enriched blocks at one time level, and the profile values phi at
    the quadrature points they were integrated with (phi and its derivative
    are evaluated once per level)."""

    msl: sp.csr_matrix
    asl: sp.csr_matrix
    mee: np.ndarray
    aee: np.ndarray
    phi: np.ndarray


def _enriched_blocks_2d(space, layout, epsilon, t):
    spec = space.enrichment
    m = space.n_enriched
    phi = np.asarray(enrichment_profile(spec, layout.xi, t), dtype=float)
    dphi = np.asarray(enrichment_profile_dxi(spec, layout.xi, t), dtype=float)

    def coupling(data):
        return sp.csr_matrix((data, layout.sl_indices, layout.sl_indptr), shape=(space.n_standard, m))

    msl = coupling(layout.sl_m @ phi)
    asl = coupling(epsilon * (layout.sl_a1 @ dphi + layout.sl_a2 @ phi))
    phi2 = phi**2
    mee = (layout.ee_m @ phi2).reshape(m, m)
    aee = (epsilon * (layout.ee_m @ dphi**2 + layout.ee_ang @ phi2)).reshape(m, m)
    mee = 0.5 * (mee + mee.T)
    aee = 0.5 * (aee + aee.T)
    return EnrichedLevel(msl, asl, mee, aee, phi)


def _enriched_blocks_1d(space, rule, epsilon, t):
    mesh = space.mesh
    spec = space.enrichment
    nd = space.node_to_dof
    phi = np.asarray(enrichment_profile(spec, rule.points, t), dtype=float)
    dphi = np.asarray(enrichment_profile_dxi(spec, rule.points, t), dtype=float)
    n = space.n_standard
    msl = np.zeros((n, 2))
    asl = np.zeros((n, 2))
    nodes = mesh.nodes
    # enriched dof 0 lives at the left endpoint, dof 1 mirrored at the right
    for col, sign in ((0, 1.0), (1, -1.0)):
        xpts = rule.points if col == 0 else 1.0 - rule.points
        elem = np.clip(np.searchsorted(nodes, xpts, side="right") - 1, 0, len(nodes) - 2)
        hl = nodes[elem + 1] - nodes[elem]
        lam = (xpts - nodes[elem]) / hl
        for node, hat, slope in ((elem, 1.0 - lam, -1.0 / hl), (elem + 1, lam, 1.0 / hl)):
            dof = nd[node]
            keep = dof >= 0
            np.add.at(msl[:, col], dof[keep], (rule.weights * hat * phi)[keep])
            np.add.at(asl[:, col], dof[keep], (epsilon * rule.weights * slope * sign * dphi)[keep])
    mm = float(np.dot(rule.weights, phi**2))
    aa = float(np.dot(rule.weights, dphi**2))
    mee = mm * np.eye(2)
    aee = epsilon * aa * np.eye(2)
    return EnrichedLevel(sp.csr_matrix(msl), sp.csr_matrix(asl), mee, aee, phi)


def _stack_blocks(mss, ass, msl, asl, mee, aee):
    mass = sp.bmat([[mss, msl], [msl.T, sp.csr_matrix(mee)]], format="csr")
    stiff = sp.bmat([[ass, asl], [asl.T, sp.csr_matrix(aee)]], format="csr")
    return _symmetrize(mass), _symmetrize(stiff)


def assemble_enriched(space: BasisSpace, epsilon: float, t: float = 0.0) -> AssembledSystem:
    """Full block system for the enriched space at enrichment time t.

    A time-dependent profile changes the blocks at every time level:
    parts['rebuild'](t) returns the EnrichedLevel at t, parts['restack'](level)
    its (mass, stiffness) pair, and parts['cross_mass'](new, old) the mixed
    mass matrix between two levels.  parts['make_load'](f) returns
    load(t, phi_vals), where phi_vals are the profile values of the level the
    load is taken at (default: the level assembled at t);
    parts['make_standard_load'](f) the load of the standard block alone.
    """
    if space.enrichment is None:
        raise AssemblyError("space carries no enrichment")
    base = assemble_standard(space, epsilon)
    mss, ass = base.parts["Mss"], base.parts["Ass"]
    m = space.n_enriched
    spec = space.enrichment

    if space.mesh.dim == 1:
        rule = layer_strip_rule(spec.epsilon, spec.support, n_sub=RAD_N_SUB, n_gauss=RAD_N_GAUSS)

        def rebuild(tt):
            return _enriched_blocks_1d(space, rule, epsilon, tt)

        def cross_radial(phi_new, phi_old):
            return float(np.dot(rule.weights, phi_new * phi_old)) * np.eye(2)

        def enriched_load(f, tt, phi_vals):
            xl = rule.points
            vec = np.empty(2)
            vec[0] = float(np.dot(rule.weights, phi_vals * np.asarray(f(xl, tt), dtype=float)))
            vec[1] = float(np.dot(rule.weights, phi_vals * np.asarray(f(1.0 - xl, tt), dtype=float)))
            return vec

    else:
        layout = _coupling_layout_2d(space)

        def rebuild(tt):
            return _enriched_blocks_2d(space, layout, epsilon, tt)

        def cross_radial(phi_new, phi_old):
            cee = (layout.ee_m @ (phi_new * phi_old)).reshape(m, m)
            return 0.5 * (cee + cee.T)

        def enriched_load(f, tt, phi_vals):
            return layout.le @ (phi_vals * np.asarray(f(layout.x, layout.y, tt), dtype=float))

    def restack(level):
        return _stack_blocks(mss, ass, level.msl, level.asl, level.mee, level.aee)

    def cross_mass(new, old):
        """Mass-type matrix <Phi_i(t_new), Phi_j(t_old)> for the Rothe step
        with a time-dependent profile: rows at the new level, columns at the old."""
        cee = cross_radial(new.phi, old.phi)
        return sp.bmat([[mss, old.msl], [new.msl.T, sp.csr_matrix(cee)]], format="csr")

    level = rebuild(t)
    _check_gram(level.mee)
    mass, stiff = restack(level)

    def make_load(f):
        std = base.parts["make_load"](f)

        def load_fn(tt, phi_vals=level.phi):
            return np.concatenate([std(tt), enriched_load(f, tt, phi_vals)])

        return load_fn

    sysm = AssembledSystem(mass=mass, stiffness=stiff, load=None)
    sysm.parts.update(
        Mss=mss,
        Ass=ass,
        Msl=level.msl,
        Asl=level.asl,
        Mee=level.mee,
        Aee=level.aee,
        make_load=make_load,
        make_standard_load=base.parts["make_load"],
        rebuild=rebuild,
        cross_mass=cross_mass,
        restack=restack,
    )
    return sysm


# ---------------------------------------------------------------------------
# initial data and field evaluation


def project_initial(space: BasisSpace, system: AssembledSystem, u0, solver_config=None):
    """L2 projection of the initial condition onto the discrete space.

    With a time-dependent profile the layer part is absent at t = 0, so the
    projection is taken in the standard block only."""
    from .linsolve import SolverConfig, solve_spd

    cfg = solver_config or SolverConfig()
    if space.mesh.dim == 1:
        def f_like(xx, tt):
            return u0(xx)
    else:
        def f_like(xx, yy, tt):
            return u0(xx, yy)

    if space.enrichment is not None and space.enrichment.time_dependent:
        coeffs = np.zeros(space.total_dofs)
        rhs = system.parts["make_standard_load"](f_like)(0.0)
        coeffs[: space.n_standard] = solve_spd(system.parts["Mss"], rhs, cfg)
        return coeffs
    return solve_spd(system.mass, system.parts["make_load"](f_like)(0.0), cfg)


def _nodal_values_1d(space, coeffs):
    vals = np.zeros(len(space.mesh.nodes))
    vals[space.interior_nodes] = coeffs[: space.n_standard]
    return vals


def evaluate_field_1d(space: BasisSpace, coeffs, x, t: float = None):
    """Discrete solution values at points x (vectorized)."""
    x = np.asarray(x, dtype=float)
    vals = np.interp(x, space.mesh.nodes, _nodal_values_1d(space, coeffs))
    spec = space.enrichment
    if spec is not None:
        cl, cr = coeffs[space.n_standard], coeffs[space.n_standard + 1]
        vals = vals + cl * enrichment_profile(spec, x, t) + cr * enrichment_profile(spec, 1.0 - x, t)
    return vals


def evaluate_gradient_1d(space: BasisSpace, coeffs, x, t: float = None):
    """Spatial derivative of the discrete solution at points x."""
    x = np.asarray(x, dtype=float)
    nodes = space.mesh.nodes
    nodal = _nodal_values_1d(space, coeffs)
    elem = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    grad = (nodal[elem + 1] - nodal[elem]) / (nodes[elem + 1] - nodes[elem])
    spec = space.enrichment
    if spec is not None:
        cl, cr = coeffs[space.n_standard], coeffs[space.n_standard + 1]
        grad = grad + cl * enrichment_profile_dxi(spec, x, t) - cr * enrichment_profile_dxi(
            spec, 1.0 - x, t
        )
    return grad


def _enriched_point_terms(space, x, y, t):
    """phi * psi_j values and gradients at scattered points; returns the two
    active enriched DOF columns per point."""
    spec = space.enrichment
    m = space.n_enriched
    deta = 2.0 * np.pi / m
    eta, xi, r = fitted_arrays(x, y)
    panel = np.clip((eta // deta).astype(int), 0, m - 1)
    frac = eta / deta - panel
    phi = np.asarray(enrichment_profile(spec, xi, t), dtype=float)
    dphi = np.asarray(enrichment_profile_dxi(spec, xi, t), dtype=float)
    rsafe = np.maximum(r, 1e-12)
    grad_xi = np.stack([-x / rsafe, -y / rsafe], axis=1)
    grad_eta = np.stack([-y / rsafe**2, x / rsafe**2], axis=1)
    cols = np.stack([panel, (panel + 1) % m], axis=1)
    psis = np.stack([1.0 - frac, frac], axis=1)
    dpsis = np.stack([np.full_like(frac, -1.0 / deta), np.full_like(frac, 1.0 / deta)], axis=1)
    vals = phi[:, None] * psis
    grads = (
        dphi[:, None, None] * psis[:, :, None] * grad_xi[:, None, :]
        + phi[:, None, None] * dpsis[:, :, None] * grad_eta[:, None, :]
    )
    return cols, vals, grads


def evaluate_field_2d(space: BasisSpace, coeffs, x, y, t: float = None, locator: TriangleLocator = None):
    """Discrete solution values at scattered points of the closed disk."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    loc = locator or TriangleLocator(space.mesh)
    tri_idx, bary = loc.locate(x, y)
    nd = space.node_to_dof
    vals = np.zeros(len(x))
    for a in range(3):
        dof = nd[space.mesh.triangles[tri_idx, a]]
        good = dof >= 0
        vals[good] += bary[good, a] * coeffs[dof[good]]
    if space.enrichment is not None:
        cols, evals, _ = _enriched_point_terms(space, x, y, t)
        ecoef = coeffs[space.n_standard :]
        vals += np.sum(evals * ecoef[cols], axis=1)
    return vals


def evaluate_gradient_2d(space: BasisSpace, coeffs, x, y, t: float = None, locator: TriangleLocator = None):
    """Gradient (n, 2) of the discrete solution at scattered points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    loc = locator or TriangleLocator(space.mesh)
    tri_idx, _ = loc.locate(x, y)
    area, bx, by = triangle_geometry(space.mesh.nodes, space.mesh.triangles)
    nd = space.node_to_dof
    grad = np.zeros((len(x), 2))
    for a in range(3):
        dof = nd[space.mesh.triangles[tri_idx, a]]
        good = dof >= 0
        grad[good, 0] += bx[tri_idx, a][good] * coeffs[dof[good]]
        grad[good, 1] += by[tri_idx, a][good] * coeffs[dof[good]]
    if space.enrichment is not None:
        cols, _, egrads = _enriched_point_terms(space, x, y, t)
        ecoef = coeffs[space.n_standard :]
        grad += np.sum(egrads * ecoef[cols][:, :, None], axis=1)
    return grad
