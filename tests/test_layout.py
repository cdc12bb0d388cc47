"""Flat quadrature layouts: the batched builders against per-element rules,
and the vectorized error report against a per-element reference loop."""

import numpy as np
import pytest

from blfem.analysis import compute_error_report, solve_scenario
from blfem.assembly import (
    _enriched_point_terms,
    element_rules_1d,
    element_rules_2d,
    triangle_rule_points,
)
from blfem.corrector import enrichment_profile, enrichment_profile_dxi
from blfem.mesh import build_disk_mesh, build_interval_mesh
from blfem.quadrature import composite_interval, gauss_interval, geometric_panels


def _boundary_masks(mesh):
    on_bdy = np.zeros(len(mesh.nodes), dtype=bool)
    on_bdy[mesh.boundary_nodes] = True
    return on_bdy[mesh.triangles]


def _triangle_rules(mesh, eps, refine=1, triangles=None):
    """Per-triangle triangle_rule_points, in triangle order."""
    masks = _boundary_masks(mesh)
    ids = range(len(mesh.triangles)) if triangles is None else triangles
    return [
        (k, *triangle_rule_points(mesh.nodes[mesh.triangles[k]], masks[k], eps, n_sub=6 * refine, n_gauss=4 * refine))
        for k in ids
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
    @pytest.mark.parametrize("b", [16, 52])
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("eps", [1e-5, 1e-8])
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

    def test_triangle_subset(self):
        mesh = build_disk_mesh(16)
        subset = np.array([3, 0, len(mesh.triangles) - 1, 7])
        subset.sort()
        layout = element_rules_2d(mesh, 1e-6, triangles=subset)
        ref = _triangle_rules(mesh, 1e-6, triangles=subset)
        assert np.array_equal(np.unique(layout.element), subset)
        assert np.allclose(layout.points, np.concatenate([r[1] for r in ref]), rtol=0.0, atol=1e-15)
        assert np.allclose(layout.weights, np.concatenate([r[2] for r in ref]), rtol=1e-15, atol=0.0)

    def test_weights_sum_to_polygon_area(self):
        mesh = build_disk_mesh(52)
        layout = element_rules_2d(mesh, 1e-8)
        b = len(mesh.boundary_nodes)
        assert layout.weights.sum() == pytest.approx(0.5 * b * np.sin(2.0 * np.pi / b), rel=1e-12)


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
        cols, vals, grads = _enriched_point_terms(space, np.stack([x, y], axis=1), t)
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
        uh = uh + cl * enrichment_profile(spec, x, t) + cr * enrichment_profile(spec, 1.0 - x, t)
        guh = guh + cl * enrichment_profile_dxi(spec, x, t) - cr * enrichment_profile_dxi(spec, 1.0 - x, t)
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
