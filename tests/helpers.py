"""Test helpers shared by several test modules: the layout of a subset of
the disk mesh triangles, the triangle that holds a point, the enriched
terms at every point, oracles for the library's read-out, the block
stacking and the load as they were formulated before the march ran on
fixed operators, oracles for linsolve.stack and make_load (among them the
load of one block-diagonal operator over the standard and the fixed
enriched points), and the enriched blocks as linear maps with one column
per support point, the oracle for the chunked assembly."""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from blfem.assembly import (
    AssemblyError,
    _hat_columns,
    _hat_gradients,
    _layer_rule_1d,
    _locate_1d,
    _support_triangles,
    element_rules_2d,
    fitted_arrays,
    triangle_rule_points,
)
from blfem.corrector import enrichment_profile, time_independent_xi
from blfem.quadrature import QuadratureLayout


def subset_layout(mesh, eps, triangles):
    """The layout of the listed disk mesh triangles, in their order, built
    as element_rules_2d builds the whole mesh's."""
    triangles = np.asarray(triangles)
    tris = mesh.triangles[triangles]
    points, weights, bary, counts = triangle_rule_points(mesh.nodes[tris], np.isin(tris, mesh.boundary_nodes), eps)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return QuadratureLayout(points, weights, bary, np.repeat(triangles, counts), starts)


def locate_disk(mesh, points):
    """The disk mesh triangle each point (n, 2) lies deepest in, and the
    point's barycentric coordinates there; a point in the sliver between
    the polygon and the circle takes the boundary triangle next to it."""
    v = mesh.nodes[mesh.triangles]
    inv = np.linalg.inv(np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2))
    lam = np.einsum("tij,ptj->pti", inv, points[:, None, :] - v[None, :, 0])
    bary = np.concatenate([1.0 - lam.sum(axis=2, keepdims=True), lam], axis=2)
    element = bary.min(axis=2).argmax(axis=1)
    return element, bary[np.arange(len(points)), element]


def _angular_hats(m, x, y):
    """Boundary-fitted coordinates of points (x, y) and the two of the m
    angular hats alive at each: xi, r (guarded at the center), the hat
    columns and values psi (points, 2), their slopes dpsi/deta (2,), and
    the gradients of xi and eta (points, 2)."""
    deta = 2.0 * np.pi / m
    eta, xi, r = fitted_arrays(x, y)
    r = np.maximum(r, 1e-12)
    frac, cols = _hat_columns(m, eta)
    psi = np.stack([1.0 - frac, frac], axis=1)
    grad_xi = np.stack([-x / r, -y / r], axis=1)
    grad_eta = np.stack([-y / r**2, x / r**2], axis=1)
    return xi, r, cols, psi, np.array([-1.0, 1.0]) / deta, grad_xi, grad_eta


def enriched_terms(space, points, t):
    """The enriched DOF columns alive at each point, (points, 2), with the
    values phi * psi_j there, (points, 2), and their gradients, (points, 2,
    dim), evaluated at every point.  1D: columns 0 and 1 are phi(x) and
    phi(1 - x), each evaluated within its own support; 2D: phi(xi) times the
    two angular hats alive at eta."""
    spec = space.enrichment
    if space.mesh.dim == 1:
        xi = np.stack([points, 1.0 - points])
        near = xi <= spec.support + 1e-12
        phi, dphi = np.zeros_like(xi), np.zeros_like(xi)
        phi[near], dphi[near] = enrichment_profile(spec, xi[near], t)
        cols = np.broadcast_to(np.arange(2), phi.T.shape)
        return cols, phi.T, (dphi * np.array([[1.0], [-1.0]])).T[:, :, None]
    xi, _, cols, psi, dpsi, grad_xi, grad_eta = _angular_hats(space.n_enriched, points[:, 0], points[:, 1])
    phi, dphi = enrichment_profile(spec, xi, t)
    grads = (
        dphi[:, None, None] * psi[:, :, None] * grad_xi[:, None, :]
        + phi[:, None, None] * dpsi[:, None] * grad_eta[:, None, :]
    )
    return cols, phi[:, None] * psi, grads


def bmat_stack(kss, kse, kee):
    """[[kss, kse], [kse^T, kee]] by sparse bmat, stored zeros dropped."""
    whole = sp.bmat([[kss, kse], [kse.T, sp.csr_matrix(kee)]], format="csr")
    whole.eliminate_zeros()
    return whole


def _bind(source, coords):
    g, shape = source(*coords), coords[0].shape
    return lambda t: np.broadcast_to(np.asarray(g(t), dtype=float), shape)


def block_diagonal(a, b):
    """[[a, 0], [0, b]] for CSR a and b, each row's entries in their order."""
    data, indices = np.concatenate([a.data, b.data]), np.concatenate([a.indices, b.indices + a.shape[1]])
    shape = (a.shape[0] + b.shape[0], a.shape[1] + b.shape[1])
    return sp.csr_matrix((data, indices, np.concatenate([a.indptr, b.indptr[1:] + a.nnz])), shape=shape)


def block_diagonal_load(coords, op, le_moving=None, moving_points=None):
    """make_load(source) -> load(t, phi_vals) with the source bound once to
    the points coords (flat arrays): op @ f(*coords, t) at the leading
    op.shape[1] points, plus, where points move, le_moving @ (phi * f) at
    the others, phi = phi_vals[moving_points], on the last (enriched) rows."""
    k = op.shape[1]

    def make_load(source):
        values = _bind(source, coords)

        def load(t, phi_vals=None):
            fv = values(t)
            out = op @ fv[:k]
            if le_moving is not None:
                out[-le_moving.shape[0] :] += le_moving @ (phi_vals[moving_points] * fv[k:])
            return out

        return load

    return make_load


def on_every_column(le_fixed, moving):
    """The fixed points' load operator, whose columns are the fixed load
    columns, over every load column (moving: a mask of them), with the
    moving ones empty."""
    fixed, shape = np.flatnonzero(~moving), (le_fixed.shape[0], len(moving))
    return sp.csr_matrix((le_fixed.data, fixed[le_fixed.indices], le_fixed.indptr), shape=shape)


def separate_load(space, system, t_max=None):
    """make_load(source) -> load(t, phi_vals) of `system` (assembled with
    split time t_max), with the source bound to the standard, the fixed and
    the moving enriched load points apart: the standard load from its own
    operator, concatenated with the fixed points' load (the profile folded
    into the operator) plus the moving points' load."""
    if space.enrichment is None:
        return lambda source: (lambda t, phi_vals=None: system.load_op @ _bind(source, system.load_coords)(t))
    split = operator_split(space, t_max)
    k = split.le_fixed.shape[1]

    def make_load(source):
        standard, enriched = _bind(source, system.load_coords), _bind(source, split.coords)

        def load(t, phi_vals):
            fv = enriched(t)
            enriched_part = split.le_fixed @ fv[:k] + split.le_moving @ (phi_vals[split.moving_points] * fv[k:])
            return np.concatenate([system.load_op @ standard(t), enriched_part])

        return load

    return make_load


# ---------------------------------------------------------------------------
# the enriched blocks as CSR operators with one column per support point


@dataclass
class CouplingLayout:
    """The enriched-space integrals as linear maps from values at the
    quadrature points of the profile support: each operator is a CSR matrix
    with one column per point, so one mat-vec sums the point values into
    the stored entries of a block:
    - sl_m @ phi and sl_a1 @ dphi + sl_a2 @ phi (times eps) are the data of
      the coupling blocks msl and asl on the fixed (n, m) CSR pattern of
      sl_block;
    - ee_m and ee_ang map phi**2, dphi**2 or phi_new * phi_old to the
      flattened (m, m) enriched blocks;
    - le @ (phi * f(*coords, t)).ravel() is the enriched load, with one
      row of load points in coords per enriched copy of the points."""

    xi: np.ndarray
    coords: tuple
    sl_block: sp.csr_matrix
    sl_m: sp.csr_matrix
    sl_a1: sp.csr_matrix
    sl_a2: sp.csr_matrix
    ee_m: sp.csr_matrix
    ee_ang: sp.csr_matrix
    le: sp.csr_matrix


def point_pattern(rows, per_point, n_rows, positions):
    """The CSR pattern of an operator from point values, from the rows and
    flat coefficient positions of per_point[i] contributions of each point
    i, listed point by point, with coefficient positions as its data."""
    indptr = np.concatenate([[0], np.cumsum(per_point)])
    return sp.csc_matrix((positions, rows, indptr), shape=(n_rows, len(per_point))).tocsr()


def _operator(pat, coeff):
    return sp.csr_matrix((coeff.ravel()[pat.data], pat.indices, pat.indptr), shape=pat.shape)


def coupling_pattern(space, dof, col):
    """The pattern that sums the contributions (point, a, b) of standard DOF
    dof (-1: boundary, dropped) to enriched DOF col (broadcast together)
    into the stored entries of the (n, m) coupling blocks, and a block with
    those entries (its data are their keys), by a presence count."""
    n, m = space.n_standard, space.n_enriched
    key = dof * m + col
    keep = np.broadcast_to(dof >= 0, key.shape).copy()
    key = key[keep]
    present = np.bincount(key, minlength=n * m) > 0
    count = np.concatenate([[0], np.cumsum(present)])
    keys = np.flatnonzero(present)
    block = sp.csr_matrix((keys, keys % m, count[::m]), shape=(n, m))
    return point_pattern(count[key], keep.sum(axis=(1, 2)), len(keys), np.flatnonzero(keep)), block


def coupling_layout_1d(space, pattern=coupling_pattern):
    """Enriched DOF 0 is phi(x) and DOF 1 its mirror phi(1 - x), so each
    point p of the layer rule carries DOF 0 at x = p and DOF 1 at x = 1 - p,
    where d/dx = -d/dxi."""
    rule = _layer_rule_1d(space)
    p, w = rule.points, rule.weights
    n_pts = len(p)
    x = np.stack([p, 1.0 - p], axis=1)
    elem, hat = _locate_1d(space.mesh.nodes, x)
    dof = space.node_to_dof[space.mesh.elements[elem]]
    slope = _hat_gradients(space.mesh)[elem][..., 0] * np.array([1.0, -1.0])[:, None]
    wb = w[:, None, None]
    sl, sl_block = pattern(space, dof, np.arange(2)[:, None])
    two = np.arange(2 * n_pts)
    ee = point_pattern(np.tile([0, 3], n_pts), np.full(n_pts, 2), 4, two)
    le = point_pattern(np.repeat([0, 1], n_pts), np.ones(2 * n_pts, int), 2, two)
    return CouplingLayout(
        xi=p,
        coords=(x.T,),
        sl_block=sl_block,
        sl_m=_operator(sl, wb * hat),
        sl_a1=_operator(sl, wb * slope),
        sl_a2=sp.csr_matrix(sl.shape),
        ee_m=_operator(ee, np.repeat(w, 2)),
        ee_ang=sp.csr_matrix(ee.shape),
        le=_operator(le, np.tile(w, 2)),
    )


def coupling_layout_2d(space, layout, pattern=coupling_pattern):
    """The coupling layout on the support triangles, read from `layout`,
    the layout over every triangle of the mesh, whose leading slice they
    are; the coordinates are views of it."""
    mesh = space.mesh
    m = space.n_enriched
    support = _support_triangles(space)
    k = np.count_nonzero(support)
    if not support[:k].all() or len(layout.starts) != len(support):
        raise AssemblyError("the triangles meeting the profile support do not lead the mesh")
    end = layout.starts[k] if k < len(support) else len(layout.weights)
    w, bary, tri_idx = layout.weights[:end], layout.bary[:end], layout.element[:end]
    x, y = layout.points[:end, 0], layout.points[:end, 1]
    xi, r, cols, psi, dpsi, grad_xi, grad_eta = _angular_hats(m, x, y)
    n_pts = len(xi)
    dof = space.node_to_dof[mesh.triangles[tri_idx]]
    grads = _hat_gradients(mesh)[tri_idx]
    g_xi, g_eta = (grads[..., 0] * g[:, 0, None] + grads[..., 1] * g[:, 1, None] for g in (grad_xi, grad_eta))
    wb = w[:, None]
    sl, sl_block = pattern(space, dof[:, :, None], cols[:, None, :])
    ee_rows = (cols[:, :, None] * m + cols[:, None, :]).ravel()
    ee = point_pattern(ee_rows, np.full(n_pts, 4), m * m, np.arange(4 * n_pts))
    ang = (w[:, None, None] * dpsi[:, None] * dpsi) / (r**2)[:, None, None]
    return CouplingLayout(
        xi=xi,
        coords=(x, y),
        sl_block=sl_block,
        sl_m=_operator(sl, (wb * bary)[:, :, None] * psi[:, None, :]),
        sl_a1=_operator(sl, (wb * g_xi)[:, :, None] * psi[:, None, :]),
        sl_a2=_operator(sl, (wb * g_eta)[:, :, None] * dpsi),
        ee_m=_operator(ee, (wb * psi)[:, :, None] * psi[:, None, :]),
        ee_ang=_operator(ee, ang),
        le=_operator(point_pattern(cols.ravel(), np.full(n_pts, 2), m, np.arange(2 * n_pts)), wb * psi),
    )


def operator_split(space, t_max=None, layout=None, pattern=coupling_pattern):
    """What a run keeps of its support points (the fields of
    assembly._Split, plus moving_rows, the enriched load coordinates and
    the moving load columns' points), from the operators of the coupling
    layout: base block data by mat-vecs of the profile values at t_max
    (zero at the moving points), the moving points' operators as column
    slices, and the load columns reordered fixed first.  In 2D `layout` is
    element_rules_2d over the whole mesh, built here if not given."""
    spec = space.enrichment
    n = space.n_standard
    if space.mesh.dim == 1:
        cl = coupling_layout_1d(space, pattern)
    else:
        cl = coupling_layout_2d(space, layout or element_rules_2d(space.mesh, spec.epsilon), pattern)
    xi = cl.xi
    moving = xi < time_independent_xi(spec, t_max)
    fixed = ~moving
    phi, dphi = np.zeros(len(xi)), np.zeros(len(xi))
    if fixed.any():
        phi[fixed], dphi[fixed] = enrichment_profile(spec, xi[fixed], t_max)
    base = (
        cl.sl_m @ phi,
        cl.sl_a1 @ dphi + cl.sl_a2 @ phi,
        cl.ee_m @ phi**2,
        cl.ee_m @ dphi**2 + cl.ee_ang @ phi**2,
    )
    ops = (cl.sl_m, cl.sl_a1, cl.sl_a2, cl.ee_m, cl.ee_ang)
    if fixed.any():
        ops = tuple(op[:, moving] for op in ops)
    entry_row = np.repeat(np.arange(n), np.diff(cl.sl_block.indptr))
    moving_rows = np.unique(entry_row[np.diff(ops[0].indptr) > 0])
    col_point = np.broadcast_to(np.arange(len(xi)), cl.coords[0].shape).ravel()
    order = np.argsort(moving[col_point], kind="stable")
    k = np.count_nonzero(fixed[col_point])
    le_fixed, le_moving = cl.le[:, order[:k]], cl.le[:, order[k:]]
    le_fixed.data *= phi[col_point[order[:k]]][le_fixed.indices]
    return SimpleNamespace(
        xi=xi,
        moving=moving,
        phi=phi,
        dphi=dphi,
        block=cl.sl_block,
        base=base,
        ops=ops,
        le_fixed=le_fixed,
        le_moving=le_moving,
        moving_rows=moving_rows,
        coords=tuple(c.ravel()[order] for c in cl.coords),
        moving_points=np.searchsorted(np.flatnonzero(moving), col_point[order[k:]]),
    )


def whole_field(space, coeffs, points, element, bary, t):
    """assembly._discrete_field as it read the enrichment before it went
    chunk by chunk: on boolean-mask copies of every point it reads."""
    mesh, spec = space.mesh, space.enrichment
    c = np.zeros(len(mesh.nodes))
    c[space.interior_nodes] = coeffs[: space.n_standard]
    c = c[mesh.elements]
    vals = np.sum(bary * c[element], axis=1)
    grads = np.einsum("tk,tkd->td", c, _hat_gradients(mesh))[element]
    if mesh.dim == 1:
        near = np.minimum(points, 1.0 - points) <= spec.support + 1e-12
        xi = np.stack([points[near], 1.0 - points[near]])
        inside = xi <= spec.support + 1e-12
        phi, dphi = np.zeros_like(xi), np.zeros_like(xi)
        phi[inside], dphi[inside] = enrichment_profile(spec, xi[inside], t)
        cols = np.broadcast_to(np.arange(2), phi.T.shape)
        evals, egrads = phi.T, (dphi * np.array([[1.0], [-1.0]])).T[:, :, None]
    else:
        near = _support_triangles(space)[element]
        xi, _, cols, psi, dpsi, grad_xi, grad_eta = _angular_hats(space.n_enriched, *points[near].T)
        phi, dphi = enrichment_profile(spec, xi, t)
        evals = phi[:, None] * psi
        egrads = (
            dphi[:, None, None] * psi[:, :, None] * grad_xi[:, None, :]
            + phi[:, None, None] * dpsi[:, None] * grad_eta[:, None, :]
        )
    ec = coeffs[space.n_standard :][cols]
    vals[near] += np.einsum("pj,pj->p", ec, evals)
    grads[near] += np.einsum("pj,pjd->pd", ec, egrads)
    return vals, grads


def traced_transient(call):
    """The result of call() and the bytes that tracemalloc saw allocated
    during it beyond what the result holds: its peak less its end."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = call()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - end
