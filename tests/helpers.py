"""Test helpers shared by several test modules: the layout of a subset of
the disk mesh triangles, the triangle that holds a point, the enriched
terms at every point, an oracle for the library's read-out, and the block
stacking and the load as they were formulated before the march ran on
fixed operators, oracles for linsolve.stack and make_load."""

import numpy as np
import scipy.sparse as sp

from blfem import assembly
from blfem.assembly import _angular_hats, element_rules_2d, triangle_rule_points
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


def separate_load(space, system, t_max=None):
    """make_load(source) -> load(t, phi_vals) of `system` (assembled with
    split time t_max), with the source bound to the standard, the fixed and
    the moving enriched load points apart: the standard load from its own
    operator, concatenated with the fixed points' load (the profile folded
    into the operator) plus the moving points' load."""
    if space.enrichment is None:
        return lambda source: (lambda t, phi_vals=None: system.load_op @ _bind(source, system.load_coords)(t))
    spec = space.enrichment
    if space.mesh.dim == 1:
        layout = assembly._coupling_layout_1d(space)
    else:
        layout = assembly._coupling_layout_2d(space, element_rules_2d(space.mesh, spec.epsilon))
    xi = layout.xi
    moving = xi < time_independent_xi(spec, t_max)
    phi = np.zeros(len(xi))
    if not moving.all():
        phi[~moving] = enrichment_profile(spec, xi[~moving], t_max)[0]
    col_point = np.broadcast_to(np.arange(len(xi)), layout.coords[0].shape).ravel()
    order = np.argsort(moving[col_point], kind="stable")
    k = np.count_nonzero(~moving[col_point])
    coords = tuple(c.ravel()[order] for c in layout.coords)
    le_fixed, le_moving = layout.le[:, order[:k]], layout.le[:, order[k:]]
    le_fixed.data *= phi[col_point[order[:k]]][le_fixed.indices]
    at = np.searchsorted(np.flatnonzero(moving), col_point[order[k:]])

    def make_load(source):
        standard, enriched = _bind(source, system.load_coords), _bind(source, coords)

        def load(t, phi_vals):
            fv = enriched(t)
            enriched_part = le_fixed @ fv[:k] + le_moving @ (phi_vals[at] * fv[k:])
            return np.concatenate([system.load_op @ standard(t), enriched_part])

        return load

    return make_load
