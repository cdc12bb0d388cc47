"""Flat quadrature layouts: the batched builders against per-element rules,
and the vectorized error report against a per-element reference loop."""

import dataclasses

import numpy as np
import pytest

from blfem import assembly
from blfem.analysis import compute_error_report, solve_scenario
from blfem.assembly import (
    AssemblyError,
    _discrete_field,
    _support_triangles,
    build_space,
    element_rules_1d,
    element_rules_2d,
    triangle_rule_points,
)
from blfem.corrector import EnrichmentSpec, enrichment_profile
from blfem.mesh import build_disk_mesh, build_interval_mesh
from blfem.quadrature import composite_interval, gauss_interval, gauss_triangle, geometric_panels
from helpers import enriched_terms, subset_layout


def _boundary_masks(mesh):
    on_bdy = np.zeros(len(mesh.nodes), dtype=bool)
    on_bdy[mesh.boundary_nodes] = True
    return on_bdy[mesh.triangles]


def _sym_panels(n_half, first_width):
    half = geometric_panels(0.5, n_half, first_width)
    return np.concatenate([half, (1.0 - half[::-1])[1:]])


def _triangle_rule(tri_xy, bdy_mask, eps, n_sub=6, n_gauss=4):
    """The rule of one triangle, built on its own: points, weights
    and barycentric coordinates.  The reference for the batched
    triangle_rule_points."""
    p0, p1, p2 = np.asarray(tri_xy, dtype=float)
    area = 0.5 * abs((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1]))
    nb = int(np.sum(bdy_mask))
    ell = 4.0 * np.sqrt(eps)
    if nb == 0:
        rule = gauss_triangle()
        x, y = rule.points[:, 0], rule.points[:, 1]
        lam = np.stack([1.0 - x - y, x, y], axis=1)
        return lam @ np.vstack([p0, p1, p2]), rule.weights * 2.0 * area, lam
    # order vertices: boundary ones first
    order = list(np.argsort(~np.asarray(bdy_mask)))
    A, B, C = (p0, p1, p2)[order[0]], (p0, p1, p2)[order[1]], (p0, p1, p2)[order[2]]
    if nb == 2:
        # A, B on the boundary, C interior
        L = np.linalg.norm(B - A)
        height = 2.0 * area / L
        s_breaks = geometric_panels(1.0, n_sub, max(ell / height, 1e-8))
        u_breaks = _sym_panels(n_sub, max(2.0 * ell / L**2, 1e-8))
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


def _triangle_rules(mesh, eps, refine=1):
    """Per-triangle _triangle_rule, in triangle order."""
    masks = _boundary_masks(mesh)
    return [
        (k, *_triangle_rule(mesh.nodes[mesh.triangles[k]], masks[k], eps, n_sub=6 * refine, n_gauss=4 * refine))
        for k in range(len(mesh.triangles))
    ]


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


def _element_rules_1d(mesh, eps, refine=1):
    """Per-element graded interval rules, in element order."""
    out = []
    for k, (a, b) in enumerate(mesh.nodes[mesh.elements]):
        toward = "left" if a < 0.3 else "right" if b > 0.7 else None
        out.append((k, *_interval_points(a, b, eps, toward, n_sub=6 * refine, n_gauss=4 * refine)))
    return out


class TestLayout2D:
    @pytest.mark.parametrize("b", [8, 16, 26, 52, 104])
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-8])
    def test_matches_per_triangle_rules(self, b, refine, eps):
        mesh = build_disk_mesh(b)
        layout = element_rules_2d(mesh, eps, refine=refine)
        ref = _triangle_rules(mesh, eps, refine)
        counts = [len(w) for _, _, w, _ in ref]
        assert np.array_equal(layout.starts, np.concatenate([[0], np.cumsum(counts)[:-1]]))
        assert np.array_equal(layout.element, np.repeat(np.arange(len(mesh.triangles)), counts))
        # points and barycentric coordinates are O(1); weights are compared
        # relative to their own size
        for got, idx, rtol, atol in (
            (layout.points, 1, 0.0, 1e-15),
            (layout.weights, 2, 1e-15, 0.0),
            (layout.bary, 3, 0.0, 1e-15),
        ):
            want = np.concatenate([r[idx] for r in ref])
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=rtol, atol=atol)

    @pytest.mark.parametrize("mask", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]])
    def test_every_boundary_pattern_matches_its_own_rule(self, mask):
        # the disk mesh lists boundary vertices first; any other order is
        # taken back to vertex order
        tri = np.array([[1.0, 0.0], [0.93, 0.35], [0.8, 0.1]])
        pts, wts, bary, counts = triangle_rule_points(tri[None], [mask], 1e-6)
        want = _triangle_rule(tri, np.array(mask, dtype=bool), 1e-6)
        assert counts.tolist() == [len(want[1])]
        assert np.allclose(pts, want[0], rtol=0.0, atol=1e-15)
        assert np.allclose(wts, want[1], rtol=1e-15, atol=0.0)
        assert np.allclose(bary, want[2], rtol=0.0, atol=1e-15)

    def test_weights_sum_to_polygon_area(self):
        mesh = build_disk_mesh(52)
        layout = element_rules_2d(mesh, 1e-8)
        b = len(mesh.boundary_nodes)
        assert layout.weights.sum() == pytest.approx(0.5 * b * np.sin(2.0 * np.pi / b), rel=1e-12)


class TestSharedLayout:
    """A 2D run builds its layer-resolving layout once; the coupling blocks
    read the leading slice of it on the profile-support triangles."""

    @pytest.mark.filterwarnings("ignore:source does not vanish")
    @pytest.mark.parametrize("scheme, refine, builds", [("sfem", 1, 1), ("nfem", 1, 1), ("nfem", 2, 2)])
    def test_one_rule_batch_per_run(self, monkeypatch, scheme, refine, builds):
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return triangle_rule_points(*args, **kwargs)

        monkeypatch.setattr(assembly, "triangle_rule_points", counted)
        solve_scenario(2, 1e-5, 16, 0.5, 0.25, scheme, enrichment_kind="phi0_tilde", refine=refine)
        mesh = build_disk_mesh(16)
        assert calls == [len(mesh.triangles)] * builds

    @pytest.mark.parametrize("kind, sigma", [("phi_m1_lin", 0.15), ("phi0_tilde", None)])
    def test_coupling_layout_is_the_support_prefix(self, kind, sigma):
        eps = 1e-5
        mesh = build_disk_mesh(26)
        space = build_space(mesh, EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma))
        layout = element_rules_2d(mesh, eps)
        support_points = assembly._support_2d(space, layout)
        xi = support_points.terms(slice(0, support_points.size), keys_only=True)[0]
        r_max = np.hypot(*mesh.nodes.T)[mesh.triangles].max(axis=1)
        support = np.nonzero(r_max > 1.0 - space.enrichment.support + 1e-12)[0]
        assert 0 < len(support) < len(mesh.triangles)
        own = subset_layout(mesh, eps, support)
        for got, want in zip(support_points.coords, own.points.T):
            assert got.tobytes() == want.tobytes()
            assert np.shares_memory(got, layout.points)
        # the read-out takes the enrichment on the same support triangles, so
        # its points there are exactly this slice: a handed-over profile is
        # read whole, and one of another length raises
        near = _support_triangles(space)[layout.element]
        k = len(xi)
        assert near[:k].all() and not near[k:].any()
        args = (space, np.ones(space.total_dofs), layout.points, layout.element, layout.bary, 0.5)
        phi, dphi = enrichment_profile(space.enrichment, xi, 0.5)
        evaluated, given = _discrete_field(*args), _discrete_field(*args, profile=(phi, dphi))
        assert all(e.tobytes() == g.tobytes() for e, g in zip(evaluated, given))
        for cut in (phi[:-1], dphi[:-1]), (np.append(phi, 0.0), np.append(dphi, 0.0)):
            with pytest.raises(AssemblyError):
                _discrete_field(*args, profile=cut)

    def test_support_not_leading_the_mesh_rejected(self):
        mesh = build_disk_mesh(16)
        flipped = dataclasses.replace(mesh, triangles=mesh.triangles[::-1].copy())
        space = build_space(flipped, EnrichmentSpec(kind="phi_m1_lin", epsilon=1e-5, sigma=0.15))
        with pytest.raises(AssemblyError):
            assembly._support_2d(space, element_rules_2d(flipped, 1e-5))


class TestLayout1D:
    @pytest.mark.parametrize("n", [50, 200, 800])
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("eps", [1e-5, 1e-8])
    def test_matches_per_element_rules(self, refine, eps, n):
        mesh = build_interval_mesh(n)
        layout = element_rules_1d(mesh, eps, refine=refine)
        ref = _element_rules_1d(mesh, eps, refine)
        assert layout.points.tobytes() == np.concatenate([r[1] for r in ref]).tobytes()
        assert layout.weights.tobytes() == np.concatenate([r[2] for r in ref]).tobytes()
        assert np.array_equal(layout.element, np.concatenate([np.full(len(r[1]), r[0]) for r in ref]))
        counts = [len(r[1]) for r in ref]
        assert np.array_equal(layout.starts, np.concatenate([[0], np.cumsum(counts)[:-1]]))
        a, b = mesh.nodes[mesh.elements[layout.element]].T
        assert np.allclose(layout.bary @ np.array([1.0, 1.0]), 1.0, atol=1e-15)
        assert np.allclose(layout.bary[:, 0] * a + layout.bary[:, 1] * b, layout.points, atol=1e-15)


class TestGaussIntervalSharing:
    def test_rule_is_shared_and_read_only(self):
        rule = gauss_interval(5)
        assert gauss_interval(5) is rule
        with pytest.raises(ValueError):
            rule.points[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0


# ---------------------------------------------------------------------------
# the error report against a per-element reference loop


def _reference_field_2d(space, coeffs, k, x, y, t):
    """Value and gradient of the discrete field at points of triangle k, with
    the barycentric map solved from the triangle's vertices, plus the
    enrichment terms."""
    tri = space.mesh.triangles[k]
    inv = np.linalg.solve(np.vstack([np.ones(3), space.mesh.nodes[tri].T]), np.eye(3))
    dof = space.node_to_dof[tri]
    c = np.where(dof >= 0, coeffs[np.clip(dof, 0, None)], 0.0)
    uh = c @ (inv @ np.vstack([np.ones_like(x), x, y]))
    guh = np.tile(c @ inv[:, 1:], (len(x), 1))
    if space.enrichment is not None:
        cols, vals, grads = enriched_terms(space, np.stack([x, y], axis=1), t)
        ec = coeffs[space.n_standard :][cols]
        uh = uh + np.sum(vals * ec, axis=1)
        guh = guh + np.sum(grads * ec[:, :, None], axis=1)
    return uh, guh


def _reference_report_2d(space, coeffs, exact, t, eps, strip=0.25):
    mesh = space.mesh
    err2 = ex2 = h12 = 0.0
    worst = global_max = 0.0
    for k, pts, wts, _ in _triangle_rules(mesh, eps):
        x, y = pts[:, 0], pts[:, 1]
        uh, guh = _reference_field_2d(space, coeffs, k, x, y, t)
        ue = exact.u(x, y, t)
        gue = exact.grad(x, y, t)
        err2 += float(np.dot(wts, (uh - ue) ** 2))
        ex2 += float(np.dot(wts, ue**2))
        h12 += float(np.dot(wts, np.sum((guh - gue) ** 2, axis=1)))
        verts = mesh.nodes[mesh.triangles[k]]
        uev = exact.u(verts[:, 0], verts[:, 1], t)
        global_max = max(global_max, float(np.abs(ue).max()))
        if np.hypot(*verts.mean(axis=0)) >= 1.0 - strip:
            lo, hi = min(ue.min(), uev.min()), max(ue.max(), uev.max())
            worst = max(worst, float(uh.max()) - hi, lo - float(uh.min()))
    return np.sqrt(err2 / ex2), np.sqrt(h12), worst / global_max


def _reference_field_1d(space, coeffs, k, x, t):
    """Value and x-derivative of the discrete field at points x of element
    k: the P1 part by linear interpolation of the nodal values and its
    slope over the element, plus c_0 phi(x) + c_1 phi(1 - x)."""
    nodes = space.mesh.nodes
    nodal = np.zeros(len(nodes))
    nodal[space.interior_nodes] = coeffs[: space.n_standard]
    uh = np.interp(x, nodes, nodal)
    a, b = space.mesh.elements[k]
    guh = np.full_like(x, (nodal[b] - nodal[a]) / (nodes[b] - nodes[a]))
    spec = space.enrichment
    if spec is not None:
        cl, cr = coeffs[space.n_standard :]
        uh = uh + cl * enrichment_profile(spec, x, t)[0] + cr * enrichment_profile(spec, 1.0 - x, t)[0]
        guh = guh + cl * enrichment_profile(spec, x, t)[1] - cr * enrichment_profile(spec, 1.0 - x, t)[1]
    return uh, guh


def _reference_report_1d(space, coeffs, exact, t, eps, strip=0.25):
    mesh = space.mesh
    err2 = ex2 = h12 = 0.0
    worst = global_max = 0.0
    for k, pts, wts in _element_rules_1d(mesh, eps):
        uh, guh = _reference_field_1d(space, coeffs, k, pts, t)
        ue = exact.u(pts, t)
        err2 += float(np.dot(wts, (uh - ue) ** 2))
        ex2 += float(np.dot(wts, ue**2))
        h12 += float(np.dot(wts, (guh - exact.grad(pts, t)[:, 0]) ** 2))
        ends = mesh.nodes[mesh.elements[k]]
        uev = exact.u(ends, t)
        global_max = max(global_max, float(np.abs(ue).max()))
        mid = ends.mean()
        if mid < strip or mid > 1.0 - strip:
            lo, hi = min(ue.min(), uev.min()), max(ue.max(), uev.max())
            worst = max(worst, float(uh.max()) - hi, lo - float(uh.min()))
    return np.sqrt(err2 / ex2), np.sqrt(h12), worst / global_max


@pytest.mark.filterwarnings("ignore:source does not vanish")
@pytest.mark.parametrize(
    "dim, level, eps, scheme, kind",
    [
        (2, 16, 1e-8, "sfem", None),
        (2, 16, 1e-8, "nfem", "phi_m1_lin"),
        (2, 16, 1e-5, "nfem", "phi0_tilde"),
        (1, 50, 1e-8, "sfem", None),
        (1, 50, 1e-5, "nfem", "phi_m1_lin"),
        (1, 50, 1e-5, "nfem", "phi_m1"),
    ],
)
def test_error_report_matches_per_element_loop(dim, level, eps, scheme, kind):
    T = 1.0
    _, fieldsol, space, exact = solve_scenario(
        dim, eps, level, T, 0.1, scheme, enrichment_kind=kind or "phi_m1_lin"
    )
    report = compute_error_report(space, fieldsol.final, exact, T, eps)
    reference = _reference_report_1d if dim == 1 else _reference_report_2d
    rel_l2, h1, osc = reference(space, fieldsol.final, exact, T, eps)
    assert report.rel_l2 == pytest.approx(rel_l2, rel=1e-12)
    assert report.h1_seminorm_error == pytest.approx(h1, rel=1e-12)
    assert report.oscillation_index == pytest.approx(max(osc, 0.0), rel=1e-12, abs=1e-15)
