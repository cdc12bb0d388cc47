"""Galerkin assembly: P1 mass/stiffness/load on interval and disk meshes,
plus the coupling and Gram blocks for spaces enriched with boundary-layer
profiles.

A system is kept as blocks (AssembledSystem): the fixed standard blocks,
and per time level the enriched blocks (EnrichedLevel).  Nothing here
stacks them into one matrix; linsolve.stack does, where a caller needs it.
Dirichlet boundary DOFs are eliminated at assembly, so all matrices are
reduced (interior + enriched DOFs) and symmetric positive definite.
Integrals involving an enrichment profile are evaluated over the same
triangulated domain as the standard blocks, with per-triangle rules graded
toward the boundary so the sqrt(eps) layer scale is resolved; standard P1
blocks use exact element formulas or fixed-order triangle rules.  The graded
rules of all boundary triangles are built in one batch, and a 2D run builds
its layout once: the enriched blocks read the leading slice of it that
covers the profile support, the error report all of it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .corrector import EnrichmentSpec, cutoff_delta, cutoff_delta_dxi, enrichment_profile, source_values
from .corrector import time_independent_xi, unit_factor
from .mesh import Mesh1D, Mesh2D, doubled_signed_areas
from .quadrature import (
    QuadratureLayout,
    composite_interval,
    composite_points,
    gauss_interval,
    gauss_triangle,
    geometric_panels,
)


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
    interior = np.setdiff1d(np.arange(n), mesh.boundary_nodes)
    node_to_dof = -np.ones(n, dtype=int)
    node_to_dof[interior] = np.arange(len(interior))
    if enrichment is not None and mesh.dim == 2 and len(mesh.rings) == 0:
        raise AssemblyError("enriched 2D assembly requires the ring structure of the generator")
    return BasisSpace(mesh=mesh, enrichment=enrichment, interior_nodes=interior, node_to_dof=node_to_dof)


@dataclass(frozen=True)
class AssembledSystem:
    """A Galerkin system kept as blocks: the fixed standard mass and
    stiffness mss, ass (n, n); the standard DOFs on which the coupling
    blocks of two enriched levels differ (moving_rows, empty when every
    level is the same); and the standard load as the linear map load_op
    from source values at the points load_coords.

    parts holds the two callables a run reads at call time:
    rebuild(t, previous=None) -> EnrichedLevel, the enriched blocks at t with
    the cross Gram block taken against level `previous` (the plain space has
    one empty level), and make_load(source) -> load(t, phi_vals), the
    whole load at t of the level whose moving profile values are phi_vals,
    for the source's terms (ProblemData.source), their spatial part taken
    once per march (_load_maker)."""

    mss: sp.csr_matrix
    ass: sp.csr_matrix
    moving_rows: np.ndarray
    load_coords: tuple
    load_op: sp.csr_matrix
    parts: dict


@dataclass(frozen=True)
class EnrichedLevel:
    """The enriched blocks at one time level: the couplings msl, asl (n, m)
    on one CSR pattern, the Gram blocks mee, aee (m, m), the cross Gram
    block cee of this level's enriched functions (rows) with the previous
    level's (columns; mee when there is none), and the profile values phi
    at the moving quadrature points, which the load at this level and the
    next level's cee read.  The profile and its slope are evaluated in one
    call per level, on cutoff values evaluated once per run."""

    msl: sp.csr_matrix
    asl: sp.csr_matrix
    mee: np.ndarray
    aee: np.ndarray
    cee: np.ndarray
    phi: np.ndarray

    @cached_property
    def msl_t(self):
        """msl^T as a CSC view of msl's arrays, made once per level; its
        mat-vec sums each entry in the order a CSR transpose's would."""
        return self.msl.T

    def coupling(self, dt):
        """K_se = msl + dt * asl as CSR, by one array operation on the
        pattern the two blocks share; zero sums stay stored."""
        msl = self.msl
        return sp.csr_matrix((msl.data + dt * self.asl.data, msl.indices, msl.indptr), shape=msl.shape)


# ---------------------------------------------------------------------------
# quadrature layouts for loads and error integration


def _starts(counts):
    """Offset of each element's first point, from per-element point counts."""
    return np.concatenate([[0], np.cumsum(counts)[:-1]])


def element_rules_1d(mesh: Mesh1D, eps: float, refine: int = 1) -> QuadratureLayout:
    """Per-element quadrature resolving boundary layers of width sqrt(eps).

    Elements with a < 0.3 are graded toward the left end and those with
    b > 0.7 toward the right one: n_sub geometric panels whose first width is
    ~2 sqrt(eps), with n_gauss points each.  Interior elements get two plain
    Gauss panels.  One composite rule is built per distinct (length, graded)
    pair and shifted onto its elements (a + p, or b - p reversed toward the
    right end).  `refine` doubles panel counts (used by the norm
    self-consistency check)."""
    n_sub, n_gauss = 6 * refine, 4 * refine
    a, b = mesh.nodes[mesh.elements].T
    right = (a >= 0.3) & (b > 0.7)
    graded = (a < 0.3) | right
    counts = np.where(graded, n_sub, 2) * n_gauss
    starts = _starts(counts)
    points, weights = np.empty(counts.sum()), np.empty(counts.sum())
    keys, inverse = np.unique(np.stack([b - a, graded]), axis=1, return_inverse=True)
    for k, (length, grade) in enumerate(keys.T):
        if grade:
            breaks = geometric_panels(length, n_sub, 2.0 * np.sqrt(eps))
        else:
            breaks = np.linspace(0.0, length, 3)
        rule = composite_interval(breaks, n_gauss)
        sel = (inverse == k) & ~right
        at = starts[sel, None] + np.arange(len(rule.weights))
        points[at], weights[at] = a[sel, None] + rule.points, rule.weights
        sel = (inverse == k) & right
        at = starts[sel, None] + np.arange(len(rule.weights))
        points[at], weights[at] = b[sel, None] - rule.points[::-1], rule.weights[::-1]
    element = np.repeat(np.arange(len(mesh.elements)), counts)
    a, b = a[element], b[element]
    lam = (points - a) / (b - a)
    return QuadratureLayout(points, weights, np.stack([1.0 - lam, lam], axis=1), element, starts)


def _sym_geometric_panels(n_half, first_width):
    half = geometric_panels(0.5, n_half, first_width)
    return np.concatenate([half, (1.0 - half[..., ::-1])[..., 1:]], axis=-1)


def _graded_rule(v, mask, eps, n_sub, n_gauss):
    """The graded rules of triangles v (k, 3, 2) whose vertices on the
    boundary are those of mask (3,), one or two of them: the barycentric
    coordinates (k, q, 3) of the points with respect to the vertices
    reordered A, B, C (boundary ones first), those vertices (k, 3, 2), the
    weights (k, q), and the barycentric coordinates in vertex order.

    s runs from the boundary feature (edge AB, or vertex A) toward the rest
    of the triangle on geometric panels whose first width is 4 sqrt(eps)
    over the height, and u across it, graded toward both ends of an edge AB."""
    edge = np.count_nonzero(mask) == 2
    order = np.argsort(~mask, kind="stable")
    abc = v[:, order]
    A, B, C = abc[:, 0], abc[:, 1], abc[:, 2]
    area = 0.5 * np.abs(doubled_signed_areas(v))
    ell = 4.0 * np.sqrt(eps)
    # each edge length from one BLAS dot, so it rounds as np.linalg.norm's
    d = B - A if edge else C - B
    length = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
    height = 2.0 * area / length
    s, ws = composite_points(geometric_panels(1.0, n_sub, np.maximum(ell / height, 1e-8)), n_gauss)
    if edge:
        sq = np.array([x**2 for x in length.tolist()])  # the C library's pow, as on floats
        u, wu = composite_points(_sym_geometric_panels(n_sub, np.maximum(2.0 * ell / sq, 1e-8)), n_gauss)
    else:
        u, wu = composite_points(np.broadcast_to(np.linspace(0.0, 1.0, 3), (len(v), 3)), n_gauss)
    # (triangle, s point, u point)
    s, ws, u, wu = s[:, :, None], ws[:, :, None], u[:, None, :], wu[:, None, :]
    wts = ws * wu
    wts *= (1 - s) if edge else s
    wts *= 2.0 * area[:, None, None]
    # the coordinates of A, B, C go to their vertices' columns
    bary = np.empty(wts.shape + (3,))
    a, b, c = (bary[..., j] for j in order)
    if edge:
        np.multiply(1 - s, 1 - u, out=a)
        np.multiply(1 - s, u, out=b)
        c[...] = s
    else:
        a[...] = 1 - s
        np.multiply(s, 1 - u, out=b)
        np.multiply(s, u, out=c)
    bary = bary.reshape(len(v), -1, 3)
    # the disk mesh lists the boundary vertices first, so A, B, C is the
    # vertex order there and no copy is needed
    lam = bary if np.array_equal(order, np.arange(3)) else bary[..., order]
    return lam, abc, wts.reshape(len(v), -1), bary


def triangle_rule_points(verts, masks, eps, n_sub=6, n_gauss=4):
    """Quadrature on the physical triangles verts (t, 3, 2), the points of
    one triangle contiguous and triangles in the given order: points (n, 2),
    weights (n,), barycentric coordinates (n, 3), and the point count of
    each triangle (t,).

    masks (t, 3) marks the vertices on the domain boundary.  A triangle with
    one or two of them gets a rule graded toward them, so that integrands
    varying on the sqrt(eps) scale near the unit circle are resolved; the
    others get the fixed smooth rule.  The rules of all triangles with the
    same boundary vertices are built in one batch."""
    verts = np.asarray(verts, dtype=float)
    masks = np.asarray(masks, dtype=bool)
    pattern = masks @ np.array([1, 2, 4])
    if np.any(pattern == 7):
        raise AssemblyError("a triangle with three boundary vertices has no graded rule")
    batches = {}
    for c in np.unique(pattern).tolist():
        v = verts[pattern == c]
        if c == 0:
            wts, lam = _smooth_triangle_rule(v)
            lam = np.broadcast_to(lam, (len(v),) + lam.shape)
            batches[c] = lam, v, wts, lam
        else:
            batches[c] = _graded_rule(v, masks[pattern == c][0], eps, n_sub, n_gauss)
    size = {c: batch[2].shape[1] for c, batch in batches.items()}
    counts = np.array([size[c] for c in pattern.tolist()], dtype=int)
    starts = _starts(counts)
    total = int(counts.sum())
    points, weights, bary = np.empty((total, 2)), np.empty(total), np.empty((total, 3))
    # each run of consecutive triangles with one pattern is one block of its
    # batch and of the output
    rank = np.empty(len(pattern), dtype=int)
    for c in batches:
        rank[pattern == c] = np.arange(np.count_nonzero(pattern == c))
    heads = np.flatnonzero(np.diff(pattern, prepend=-1))
    ends = np.append(heads[1:], len(pattern))
    for c, h, e in zip(pattern[heads].tolist(), heads.tolist(), ends.tolist()):
        lam, abc, wts, lam_v = batches[c]
        k = slice(rank[h], rank[h] + e - h)
        at = slice(starts[h], starts[h] + (e - h) * size[c])
        # the points: each triangle's coordinates times its vertices, one BLAS product per triangle
        np.matmul(lam[k], abc[k], out=points[at].reshape(e - h, -1, 2))
        weights[at] = wts[k].ravel()
        bary[at].reshape(e - h, -1, 3)[...] = lam_v[k]
    return points, weights, bary, counts


def _smooth_triangle_rule(v):
    """The fixed smooth rule on each triangle of v (t, 3, 2): weights (t, q)
    and the barycentric coordinates (q, 3) of its points, shared by all
    triangles; the points are lam @ v."""
    rule = gauss_triangle()
    x, y = rule.points[:, 0], rule.points[:, 1]
    lam = np.stack([1.0 - x - y, x, y], axis=1)
    return rule.weights * np.abs(doubled_signed_areas(v))[:, None], lam


def element_rules_2d(mesh: Mesh2D, eps: float, refine: int = 1) -> QuadratureLayout:
    """triangle_rule_points over every triangle as one flat layout, built
    in one batch."""
    tris = mesh.triangles
    on_bdy = np.zeros(len(mesh.nodes), dtype=bool)
    on_bdy[mesh.boundary_nodes] = True
    points, weights, bary, counts = triangle_rule_points(
        mesh.nodes[tris], on_bdy[tris], eps, n_sub=6 * refine, n_gauss=4 * refine
    )
    return QuadratureLayout(points, weights, bary, np.repeat(np.arange(len(tris)), counts), _starts(counts))


def triangle_geometry(nodes, tris):
    """Areas and P1 gradient coefficients for all triangles."""
    p = nodes[tris]
    x, y, det = p[..., 0], p[..., 1], doubled_signed_areas(p)
    area = 0.5 * det  # CCW
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1) / det[:, None]
    by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1) / det[:, None]
    return area, bx, by


def _hat_gradients(mesh):
    """Gradients of the P1 hats of every element, (elements, vertices, dim)."""
    if mesh.dim == 1:
        h = np.diff(mesh.nodes[mesh.elements], axis=1)
        return np.stack([-1.0 / h, 1.0 / h], axis=1)
    _, bx, by = triangle_geometry(mesh.nodes, mesh.triangles)
    return np.stack([bx, by], axis=2)


def _locate_1d(nodes, x):
    """The element holding each point x of the interval mesh (the right one
    at a node), and the point's barycentric coordinates (x.shape + (2,))."""
    elem = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    lam = (x - nodes[elem]) / (nodes[elem + 1] - nodes[elem])
    return elem, np.stack([1.0 - lam, lam], axis=-1)


# ---------------------------------------------------------------------------
# standard P1 assembly


def _assemble_standard_1d(space, epsilon):
    mesh = space.mesh
    nd = space.node_to_dof
    h = mesh.nodes[mesh.elements[:, 1]] - mesh.nodes[mesh.elements[:, 0]]
    if np.any(h <= 0.0):
        raise AssemblyError("degenerate element")
    local_m = h[:, None, None] / np.array([[3.0, 6.0], [6.0, 3.0]])
    local_a = (epsilon / h)[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return _p1_matrices(space, nd[mesh.elements], local_m, local_a)


def _assemble_standard_2d(space, epsilon):
    mesh = space.mesh
    nd = space.node_to_dof
    area, bx, by = triangle_geometry(mesh.nodes, mesh.triangles)
    if np.any(area <= 0.0):
        raise AssemblyError("degenerate or misoriented triangle")
    tris = mesh.triangles
    local_m = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
    grads = np.stack([bx, by], axis=2)  # (nt, 3, 2)
    local_a = epsilon * area[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
    return _p1_matrices(space, nd[tris], local_m, local_a)


def _p1_matrices(space, dofs, local_m, local_a):
    """Mass and stiffness from element matrices (elements, k, k) over the
    element DOFs (elements, k); boundary DOFs (-1) are dropped."""
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = space.n_standard
    mass = sp.csr_matrix((local_m.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n))
    stiff = sp.csr_matrix((local_a.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n))
    return mass, stiff


def _load_layout(space):
    """The standard load vector as a linear map from source values: returns
    the quadrature points, each stored once as flat (elements * points,)
    coordinate arrays, and the CSR operator (DOFs, points) with entries
    weight * hat, so that load = op @ f(*coords, t) at any time level.

    Standard loads use the smooth-term quadrature (plain Gauss), matching
    the classical scheme; only enrichment integrals get layer rules.  The
    entries are listed by element, then vertex, then point, so each row's
    points increase and the mat-vec sums them in that order."""
    mesh = space.mesh
    if mesh.dim == 1:
        base = gauss_interval(4)
        a, b = mesh.nodes[mesh.elements].T
        coords = (a[:, None] + (b - a)[:, None] * base.points,)
        wts = (b - a)[:, None] * base.weights
        hats = np.stack([1.0 - base.points, base.points])
    else:
        verts = mesh.nodes[mesh.triangles]
        wts, lam = _smooth_triangle_rule(verts)
        pts = lam @ verts
        coords = (pts[..., 0], pts[..., 1])
        hats = lam.T
    dofs = space.node_to_dof[mesh.elements]
    shape = dofs.shape + hats.shape[-1:]  # (element, vertex, point)
    keep = np.broadcast_to((dofs >= 0)[:, :, None], shape)
    point = np.broadcast_to(np.arange(wts.size).reshape(len(dofs), 1, -1), shape)
    op = sp.coo_matrix(
        ((wts[:, None, :] * hats)[keep], (np.broadcast_to(dofs[:, :, None], shape)[keep], point[keep])),
        shape=(space.n_standard, wts.size),
    ).tocsr()
    return tuple(c.ravel() for c in coords), op


def _spatial_values(source, points):
    """The source's terms at the points (a tuple of coordinate arrays), each
    v_k flat over them."""
    shape = points[0].shape
    return [(tau, np.broadcast_to(np.asarray(v, dtype=float), shape).ravel()) for tau, v in source(*points)]


def _load_maker(coords, op, enriched=None):
    """make_load(source) -> load(t, phi_vals) for the source's terms
    (tau_k, v_k), their spatial part applied once per march: L v_k stacks
    op @ v_k, v_k at the standard load points coords (flat arrays), and for
    an enriched space, enriched = (points, le_fixed, le_moving, moving_cols),
    le_fixed @ v_k, v_k at the support's load points (_Support.coords), of
    which v_k[moving_cols] is kept.  A step sums tau_k(t) * L v_k, plus, where
    points move, le_moving @ (phi * sum_k tau_k(t) v_k[moving_cols]) on the
    enriched rows, phi_vals's value at a moving point read by its columns."""

    def make_load(source):
        terms, moving = [(tau, op @ v) for tau, v in _spatial_values(source, coords)], []
        if enriched is not None:
            points, le_fixed, le_moving, moving_cols = enriched
            support = _spatial_values(source, points)
            terms = [(tau, np.concatenate([lv, le_fixed @ w])) for (tau, lv), (_, w) in zip(terms, support)]
            moving = [(tau, w[moving_cols]) for tau, w in support] if le_moving is not None else []

        def load(t, phi_vals=None):
            out = source_values(terms, t)
            if moving:
                phi_f = phi_vals * source_values(moving, t).reshape(-1, len(phi_vals))
                out[op.shape[0] :] += le_moving @ phi_f.ravel()
            return out

        return load

    return make_load


def assemble_standard(space: BasisSpace, epsilon: float) -> AssembledSystem:
    """The system of the plain P1 space: an enriched one without enriched
    DOFs, with one empty level and a load that has no profile values to
    read.  The load takes the problem source when a march makes it, so the
    same system serves any ProblemData."""
    if space.mesh.dim == 1:
        mass, stiff = _assemble_standard_1d(space, epsilon)
    else:
        mass, stiff = _assemble_standard_2d(space, epsilon)
    n = space.n_standard
    none = np.zeros((0, 0))
    empty = EnrichedLevel(sp.csr_matrix((n, 0)), sp.csr_matrix((n, 0)), none, none, none, np.zeros(0))

    coords, op = _load_layout(space)
    parts = dict(rebuild=lambda t, previous=None: empty, make_load=_load_maker(coords, op))
    return AssembledSystem(mass, stiff, np.zeros(0, dtype=int), coords, op, parts)


# ---------------------------------------------------------------------------
# enriched assembly


def fitted_arrays(x, y):
    """Vectorized boundary-fitted coordinates (eta in [0, 2 pi), xi = 1 - r)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    xi = np.clip(1.0 - r, 0.0, 1.0)
    # np.mod(eta, 2 pi) on [-pi, pi], -0.0 to 0.0 included, without its division
    eta = np.arctan2(y, x)
    eta += (eta < 0.0) * (2.0 * np.pi)
    # that rounds angles a hair below 0 up to exactly 2 pi
    return np.where(eta == 2.0 * np.pi, 0.0, eta), xi, r


def _fitted_gradients(x, y, r):
    """grad xi = -(x, y)/r and grad eta = (-y, x)/r**2 by component, r guarded at 0; and r**2."""
    r = np.maximum(r, 1e-12)
    r2 = r**2
    return (-x / r, -y / r), (-y / r2, x / r2), r2


def _hat_columns(m, eta):
    """Of the m angular hats, the two alive at each angle eta: how far eta
    lies through its panel (0 to 1), and the two hat columns (points, 2)."""
    scaled = eta / (2.0 * np.pi / m)
    panel = np.minimum(scaled.astype(int), m - 1)
    return scaled - panel, np.stack([panel, np.where(panel < m - 1, panel + 1, 0)], axis=1)


RAD_N_SUB = 10
RAD_N_GAUSS = 5
# support points per chunk of the enriched assembly and of the 2D read-out,
# which bounds the per-point arrays they make
CHUNK = 4096


def _chunks(n):
    return [slice(a, min(a + CHUNK, n)) for a in range(0, n, CHUNK)]


# A run's profile support points, read by chunks (so a level needs only new
# profile values): `size` points, their load coordinates `coords` (2D: x, y;
# 1D: a (2, points) array, p for enriched DOF 0, 1 - p for its mirror DOF 1)
# and the slices `chunks` over them.  terms(idx) -> (sl, ee, le) lists what
# the points idx add to each block, point by point, as (rows, points,
# coefficients), a block entry summing coefficient * value: sl to the keys
# dof * m + col of the (n, m) coupling blocks, from phi (mass), dphi and phi
# (stiffness); ee to the flattened (m, m) Gram blocks, from phi**2, dphi**2
# or phi_new * phi_old (mass) and phi**2 (angular); le to the enriched DOFs,
# `width` per load column (one per load point, in the order of the raveled
# coords), from phi * f.  A coefficient None is zero; ee and le have
# `per_point` entries a point.  keys_only: xi, and (keys, points) of sl.
_Support = namedtuple("_Support", "size coords width per_point chunks terms")


def _coupling_keys(m, dof, col, *coeffs):
    """Of the contributions (point, a, b) of standard DOF dof (-1: dropped) to
    enriched DOF col (0 <= col < m, so a dropped one's key dof * m + col is
    negative): the kept ones' keys, points and coefficients coeffs."""
    key = dof * m + col
    kept = np.flatnonzero(key >= 0)
    return key.ravel()[kept], kept // (key.size // len(key)), tuple(c if c is None else c.ravel()[kept] for c in coeffs)


def _coupling_block(present, n, m):
    """From the stored ones of the n m coupling keys: the position count[key]
    of each among them, and a block with those entries (data: their keys)."""
    count = np.zeros(n * m + 1, dtype=np.int32)
    np.cumsum(present, dtype=np.int32, out=count[1:])
    keys = np.flatnonzero(present)
    return count, sp.csr_matrix((keys, keys % m, count[::m].copy()), shape=(n, m))  # a view would keep count


def _layer_rule_1d(space: BasisSpace):
    """Layer panels on [0, support] split at every mesh node x and 1 - x,
    so that no hat kink of either enriched DOF falls inside a panel; a node
    and a mirror an ulp apart make one break, not a sliver panel."""
    spec = space.enrichment
    nodes = np.concatenate([space.mesh.nodes, 1.0 - space.mesh.nodes])
    breaks = np.union1d(
        geometric_panels(spec.support, RAD_N_SUB, np.sqrt(4.0 * spec.epsilon)),
        nodes[(nodes > 0.0) & (nodes < spec.support)],
    )
    return composite_interval(breaks[np.append(np.diff(breaks) > 1e-12, True)], RAD_N_GAUSS)


def _support_1d(space: BasisSpace) -> _Support:
    """Enriched DOF 0 is phi(x) and DOF 1 its mirror phi(1 - x), so each
    point p of the layer rule carries DOF 0 at x = p and DOF 1 at x = 1 - p,
    where d/dx = -d/dxi; contributions (point, enriched DOF, standard hat)."""
    rule = _layer_rule_1d(space)
    p, w = rule.points, rule.weights
    coords, col = np.stack([p, 1.0 - p]), np.arange(2)[:, None]

    def terms(idx, keys_only=False):
        elem, hat = _locate_1d(space.mesh.nodes, coords[:, idx].T)
        dof = space.node_to_dof[space.mesh.elements[elem]]
        if keys_only:
            return p[idx], _coupling_keys(2, dof, col)[:2]
        # the hats' values and x-slopes, the latter signed by dxi/dx
        slope = _hat_gradients(space.mesh)[elem][..., 0] * np.array([1.0, -1.0])[:, None]
        wb = w[idx, None, None]
        sl = _coupling_keys(2, dof, col, wb * hat, wb * slope, None)
        n_pts, point = len(elem), np.arange(len(elem))
        # each point adds to both diagonal entries (0 and 3) of the flattened (2, 2) blocks
        ee = np.tile([0, 3], n_pts), np.repeat(point, 2), (np.repeat(w[idx], 2), None)
        # the load points are p for DOF 0, then 1 - p for DOF 1
        return sl, ee, (np.repeat([0, 1], n_pts), np.tile(point, 2), (np.tile(w[idx], 2),))

    return _Support(len(p), (coords,), 1, (2, 2), [slice(0, len(p))], terms)


def _support_triangles(space: BasisSpace):
    """The disk mesh triangles that meet the profile support (a vertex
    farther than 1 - support from the center), as a mask: the enrichment is
    integrated and read out on their points only."""
    r = np.hypot(space.mesh.nodes[:, 0], space.mesh.nodes[:, 1])
    return r[space.mesh.triangles].max(axis=1) > 1.0 - space.enrichment.support + 1e-12


def _support_2d(space: BasisSpace, layout: QuadratureLayout) -> _Support:
    """The points of the support triangles (_support_triangles) in `layout`
    (every triangle's); contributions (point, standard hat, angular hat).
    The disk mesh lists its triangles ring band by ring band from the
    boundary inward, so their points are a leading slice of the layout.

    In 2D, integrating over the same polygon as the standard blocks is
    essential: extending them to the curved annulus would make the layer
    functions answer for the sliver between the chords and the circle, where
    no hat function lives, and bias the enriched coefficients upward."""
    mesh = space.mesh
    m = space.n_enriched
    support = _support_triangles(space)
    k = np.count_nonzero(support)
    if not support[:k].all() or len(layout.starts) != len(support):
        raise AssemblyError("the triangles meeting the profile support do not lead the mesh")
    end = layout.starts[k] if k < len(support) else len(layout.weights)
    hat_grads, tri_dof = _hat_gradients(mesh).reshape(-1, 2), space.node_to_dof[mesh.triangles]
    # the angular hats' slopes are -slope and slope, so each product with
    # them is one product with slope, signed
    slope = 1.0 / (2.0 * np.pi / m)
    # the flattened (m, m) Gram entries of each panel's two hats, in (hat, hat) order
    hats = np.stack([np.arange(m), np.roll(np.arange(m), -1)], axis=1)
    ee_rows = (hats[:, :, None] * m + hats[:, None, :]).reshape(m, 4)

    def terms(idx, keys_only=False):
        # (.take: numpy's fancy indexing of rows is several times slower)
        tri = layout.element[idx]
        # the (point, vertex) pairs whose vertex is interior: only they couple
        dof = tri_dof.take(tri, axis=0).ravel()
        pair = np.flatnonzero(dof >= 0)
        p = pair // 3
        x, y = layout.points[idx, 0], layout.points[idx, 1]
        eta, xi, r = fitted_arrays(x, y)
        frac, cols = _hat_columns(m, eta)
        keys = np.repeat(dof[pair] * m, 2) + cols.take(p, axis=0).ravel()
        if keys_only:
            return xi, (keys, np.repeat(p, 2))
        w, psi0 = layout.weights[idx], 1.0 - frac
        psi = np.stack([psi0, frac], axis=1)
        (xi_x, xi_y), (eta_x, eta_y), r2 = _fitted_gradients(x, y, r)
        # the standard hats' values (bary) and gradients along grad(xi) and
        # grad(eta), each pair's two hats' products in (point, vertex, hat) order
        grads, wp = hat_grads.take(tri[p] * 3 + (pair - 3 * p), axis=0), w[p]
        g_xi = grads[:, 0] * xi_x[p] + grads[:, 1] * xi_y[p]
        g_eta = (wp * (grads[:, 0] * eta_x[p] + grads[:, 1] * eta_y[p])) * slope
        bary, psi_p = layout.bary.take(idx, axis=0).ravel()[pair], psi.take(p, axis=0).ravel()
        sl = [np.repeat(wp * c, 2) * psi_p for c in (bary, g_xi)] + [np.stack([-g_eta, g_eta], axis=1).ravel()]
        # enriched-enriched products: each point couples its panel's two hats,
        # the flattened (2, 2) products in (point, hat, hat) order
        w0, w1, ang, point = w * psi0, w * frac, ((w * slope) * slope) / r2, np.arange(len(xi))
        ee = (w0 * psi0, w0 * frac, w1 * psi0, w1 * frac), (ang, -ang, -ang, ang)
        ee = ee_rows.take(cols[:, 0], axis=0).ravel(), np.repeat(point, 4), [np.stack(c, axis=1).ravel() for c in ee]
        return (keys, np.repeat(p, 2), sl), ee, (cols.ravel(), np.repeat(point, 2), (np.stack([w0, w1], axis=1).ravel(),))

    return _Support(end, (layout.points[:end, 0], layout.points[:end, 1]), 2, (4, 2), _chunks(end), terms)


class _Kept:
    """Entries of CSR operators on one pattern, added part by part (cols
    counted from the part's first column, n_cols new ones) into arrays sized
    beforehand."""

    def __init__(self, size, n_coeffs):
        self.end, self.n_cols, self.coeffs = 0, 0, [np.empty(size) for _ in range(n_coeffs)]
        self.rows, self.cols = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32)

    def add(self, rows, cols, n_cols, coeffs):
        at = slice(self.end, self.end + len(rows))
        self.end, self.n_cols, self.rows[at], self.cols[at] = at.stop, self.n_cols + n_cols, rows, self.n_cols + cols
        self.coeffs = [None if c is None else kept for kept, c in zip(self.coeffs, coeffs)]
        for kept, c in zip(self.coeffs, coeffs):
            if c is not None:
                kept[at] = c

    def operators(self, n_rows):
        # the entries are in column order and scipy's coo -> csr is a stable
        # counting sort, so it keeps each row's in column order: their CSR
        # pattern, with each one's position as data
        pat = sp.csr_matrix((np.arange(self.end), (self.rows, self.cols)), shape=(n_rows, self.n_cols))
        ops = [pat.shape if c is None else (c[pat.data], pat.indices, pat.indptr) for c in self.coeffs]
        return [sp.csr_matrix(op, shape=pat.shape) for op in ops]


_Split = namedtuple("_Split", "xi moving block base ops le_fixed le_moving")
# (coefficient, value) of each base sum: msl, asl from phi, dphi; mee, aee from their squares
_READS = ((0, 0), (1, 1), (2, 0)), ((0, 0), (0, 1), (1, 0))


def _split(space, support: _Support, t_max) -> _Split:
    """The support split at xi* (time_independent_xi at t_max), past which the
    profile is the same at every level: the moving points' xi, the moving
    mask over every point; the coupling pattern; the fixed points' base data
    (msl, asl, mee, aee, without eps, from phi and dphi at t_max) and load
    operator (phi folded in) over every load column of the support, with
    none in a moving point's; the moving points' operators (sl_m, sl_a1,
    sl_a2, ee_m, ee_ang) and load operator over their load columns.
    np.add.at sums the fixed points' terms in point order, one by one as a
    CSR mat-vec would (moving points add 0)."""
    n, m = space.n_standard, space.n_enriched
    xi_star = time_independent_xi(space.enrichment, t_max)
    xi, present, n_sl = np.empty(support.size), np.zeros(n * m, dtype=bool), 0
    for sel in support.chunks:
        xi[sel], (keys, point) = support.terms(sel, keys_only=True)
        present[keys] = True
        n_sl += np.count_nonzero(xi[sel][point] < xi_star)
    moving = xi < xi_star
    n_moving = np.count_nonzero(moving)
    count, block = _coupling_block(present, n, m)
    base = np.zeros((3, block.nnz)), np.zeros((3, m * m))
    (ee_size, le_size), width = support.per_point, support.width
    kept = [_Kept(n_sl, 3), _Kept(ee_size * n_moving, 2), _Kept(le_size * n_moving, 1)]
    # the fixed load's entries, met in point order, at their absolute load columns
    fixed = _Kept(le_size * (support.size - n_moving), 1)
    # the load column of each point: in 1D its p column, then its 1 - p one
    lead = np.arange(support.coords[0].size // support.size)[:, None] * support.size
    for sel in support.chunks:
        for part in np.flatnonzero(~moving[sel]) + sel.start, np.flatnonzero(moving[sel]) + sel.start:
            if len(part) == 0:
                continue
            (keys, sl_point, sl), ee, (le_rows, le_point, le) = support.terms(part)
            entries = [(count[keys], sl_point, len(part), sl), (*ee[:2], len(part), ee[2])]
            if moving[part[0]]:
                le_cols = np.arange(len(le_rows)) // width
                for k, entry in zip(kept, entries + [(le_rows, le_cols, le_cols[-1] + 1, le)]):
                    k.add(*entry)
                continue
            phi, dphi = enrichment_profile(space.enrichment, xi[part], t_max)
            for sums, reads, power, (rows, point, _, coeffs) in zip(base, _READS, (1, 2), entries):
                vals = phi**power, dphi**power
                for acc, (c, v) in zip(sums, reads):
                    if coeffs[c] is not None:
                        np.add.at(acc, rows, coeffs[c] * vals[v][point])
            fixed.add(le_rows, np.repeat((lead + part).ravel(), width), 0, (le[0] * phi[le_point],))
    sl_ops, ee_ops, (le_moving,) = (kept.pop(0).operators(k) for k in (block.nnz, m * m, m))
    le_fixed = sp.csr_matrix((fixed.coeffs[0], (fixed.rows, fixed.cols)), shape=(m, support.coords[0].size))
    (msl, asl_r, asl_a), (mee, aee_r, aee_a) = base
    base = msl, asl_r + asl_a, mee, aee_r + aee_a
    return _Split(xi[moving], moving, block, base, (*sl_ops, *ee_ops), le_fixed, le_moving)


def _check_gram(mee):
    vals = np.linalg.eigvalsh(mee)
    if vals[0] <= 0.0 or vals[-1] / vals[0] > 1e15:
        raise AssemblyError("enriched Gram block is numerically singular")


def _symmetric(flat, m):
    g = flat.reshape(m, m)
    return 0.5 * (g + g.T)


def _split_layout(space, support, epsilon, t_max, standard_load):
    """The levels of a run that ends at t_max, on the support's points split
    once (_split): a level evaluates the profile and runs the mat-vecs on the
    moving points only.  t_max None: every point of a time-dependent kind
    moves.

    Returns rebuild(t, previous=None) -> EnrichedLevel (the one fixed level
    when no point moves), the standard DOFs R whose coupling entries a moving
    point touches (the only rows on which levels differ), and the system's
    make_load (standard_load: the standard load points and operator; the
    enriched load reads the support's own load points).
    The Gram block of a level taken without a previous one (the first of a
    march, the fixed level, a dump's level) is checked for singularity."""
    spec = space.enrichment
    n, m = space.n_standard, space.n_enriched
    xi_moving, moving, block, base, ops, le_fixed, le_moving = _split(space, support, t_max)
    (base_msl, base_asl, base_mee, base_aee), (sl_m, sl_a1, sl_a2, ee_m, ee_ang) = base, ops
    cutoff = cutoff_delta(xi_moving), cutoff_delta_dxi(xi_moving)
    # the coupling operators share one pattern, explicit zeros included, so
    # the entries with a moving point in sl_m are those of all three
    entry_row = np.repeat(np.arange(n), np.diff(block.indptr))
    moving_rows = np.unique(entry_row[np.diff(sl_m.indptr) > 0])

    def coupling(data):
        return sp.csr_matrix((data, block.indices, block.indptr), shape=block.shape)

    def level(t, previous):
        p, dp = enrichment_profile(spec, xi_moving, t, cutoff)
        p2 = p**2
        mee = _symmetric(base_mee + ee_m @ p2, m)
        if previous is None:
            _check_gram(mee)
        return EnrichedLevel(
            msl=coupling(base_msl + sl_m @ p),
            asl=coupling(epsilon * (base_asl + (sl_a1 @ dp + sl_a2 @ p))),
            mee=mee,
            aee=_symmetric(epsilon * (base_aee + (ee_m @ dp**2 + ee_ang @ p2)), m),
            cee=mee if previous is None else _symmetric(base_mee + ee_m @ (p * previous.phi), m),
            phi=p,
        )

    if not moving.any():
        static = level(t_max, None)

        def rebuild(t, previous=None):
            return static

    else:

        def rebuild(t, previous=None):
            if t_max is not None and t > t_max:
                raise ValueError(f"level t = {t} lies past the split time t_max = {t_max}")
            return level(t, previous)

    # the moving load columns, point by point in each row of the load coordinates
    moving_cols = np.flatnonzero(np.broadcast_to(moving, support.coords[0].shape))
    enriched = support.coords, le_fixed, le_moving if moving.any() else None, moving_cols
    return rebuild, moving_rows, _load_maker(*standard_load, enriched)


def assemble_enriched(space: BasisSpace, epsilon: float, t_max: float = None, layout=None) -> AssembledSystem:
    """The system of the enriched space: the standard blocks, and the levels
    of the enriched blocks.

    In both dimensions the enriched blocks of a level are sparse mat-vecs of
    the profile values at fixed quadrature points (see _Support); only the
    support builder depends on the dimension.  t_max is the last time a
    level is taken at (default: none given, so no point is taken as fixed);
    see _split.  No level is built here unless every point is fixed.
    In 2D the points are read from `layout`, element_rules_2d over the whole
    mesh at the profile's eps, built here if not given.
    """
    if space.enrichment is None:
        raise AssemblyError("space carries no enrichment")
    system = assemble_standard(space, epsilon)
    if space.mesh.dim == 1:
        support = _support_1d(space)
    else:
        if layout is None:
            layout = element_rules_2d(space.mesh, space.enrichment.epsilon)
        support = _support_2d(space, layout)
    standard_load = system.load_coords, system.load_op
    rebuild, moving_rows, make_load = _split_layout(space, support, epsilon, t_max, standard_load)
    return replace(system, moving_rows=moving_rows, parts=dict(rebuild=rebuild, make_load=make_load))


# ---------------------------------------------------------------------------
# initial data and field evaluation


def project_initial(space: BasisSpace, system: AssembledSystem, u0):
    """L2 projection of the initial condition onto the discrete space at the
    level t = 0.

    With a time-dependent profile the layer part is absent at t = 0, so the
    projection is taken in the standard block only, and u0 is evaluated at
    the standard load points alone."""
    from .linsolve import solve_spd, stack

    def u0_at(*coords):
        return ((unit_factor, u0(*coords)),)

    if space.enrichment is not None and space.enrichment.time_dependent:
        coeffs = np.zeros(space.total_dofs)
        rhs = _load_maker(system.load_coords, system.load_op)(u0_at)(0.0)
        coeffs[: space.n_standard] = solve_spd(system.mss, rhs)
        return coeffs
    level = system.parts["rebuild"](0.0)
    rhs = system.parts["make_load"](u0_at)(0.0, level.phi)
    return solve_spd(stack(system.mss, level.msl, level.mee), rhs)


def _discrete_field(space: BasisSpace, coeffs, points, element, bary, t):
    """Value (points,) and gradient (points, dim) of the discrete solution at
    points (1D: (n,), 2D: (n, 2)) lying in the given mesh elements at the
    given barycentric coordinates; the one read-out of a solution.

    The enrichment is read only where it can be nonzero.  1D: columns 0 and
    1 are phi(x) and phi(1 - x), so xi = (x, 1 - x) and d/dx = (d/dxi,
    -d/dxi), each evaluated only within its own support.  2D: phi(xi) times
    the two angular hats alive at eta, at the points of the support
    triangles (_support_triangles), chunk by chunk (_chunks)."""
    mesh, spec = space.mesh, space.enrichment
    c = np.zeros(len(mesh.nodes))
    c[space.interior_nodes] = coeffs[: space.n_standard]
    c = c[mesh.elements]
    # the vertices' terms summed from 0 in vertex order, as np.sum(axis=1) sums them
    vals = sum((bary * c.take(element, axis=0)).T)
    # the P1 gradient is constant on each element
    grads = np.einsum("tk,tkd->td", c, _hat_gradients(mesh)).take(element, axis=0)
    if spec is None:
        return vals, grads
    ec = coeffs[space.n_standard :]
    if mesh.dim == 1:
        at = np.flatnonzero(np.minimum(points, 1.0 - points) <= spec.support + 1e-12)
        xi = np.stack([points[at], 1.0 - points[at]])
        inside = xi <= spec.support + 1e-12
        phi, dphi = np.zeros_like(xi), np.zeros_like(xi)
        phi[inside], dphi[inside] = enrichment_profile(spec, xi[inside], t)
        ec = ec[np.broadcast_to(np.arange(2), phi.T.shape)]
        vals[at] += np.einsum("pj,pj->p", ec, phi.T)
        grads[at] += np.einsum("pj,pjd->pd", ec, (dphi * np.array([[1.0], [-1.0]])).T[:, :, None])
        return vals, grads
    near = np.flatnonzero(_support_triangles(space)[element])
    for sel in _chunks(len(near)):
        # phi times the two hats alive at eta, whose slopes are -slope and slope
        at = near[sel]
        x, y = points[at, 0], points[at, 1]
        eta, xi, r = fitted_arrays(x, y)
        frac, cols = _hat_columns(space.n_enriched, eta)
        phi, dphi = enrichment_profile(spec, xi, t)
        c0, c1 = ec[cols.T]
        vals[at] += c0 * (phi * (1.0 - frac)) + c1 * (phi * frac)
        grad_xi, grad_eta, _ = _fitted_gradients(x, y, r)
        d0, d1, d_eta = dphi * (1.0 - frac), dphi * frac, phi * (1.0 / (2.0 * np.pi / space.n_enriched))
        for d, (g_xi, g_eta) in enumerate(zip(grad_xi, grad_eta)):
            grads[at, d] += c0 * (d0 * g_xi - d_eta * g_eta) + c1 * (d1 * g_xi + d_eta * g_eta)
    return vals, grads


def evaluate_field_1d(space: BasisSpace, coeffs, x, t: float = None):
    """Discrete solution values at points x of the interval (vectorized)."""
    x = np.asarray(x, dtype=float)
    return _discrete_field(space, coeffs, x, *_locate_1d(space.mesh.nodes, x), t)[0]
