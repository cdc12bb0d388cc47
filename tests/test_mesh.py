"""Mesh generators, quality statistics, and the boundary-fitted
coordinates (eta, xi) = (polar angle, 1 - r) with their chain rule."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blfem.assembly import _discrete_field, _locate_1d, build_space, fitted_arrays
from blfem.corrector import EnrichmentSpec
from blfem.mesh import build_disk_mesh, build_interval_mesh
from helpers import locate_disk


class TestIntervalMesh:
    def test_basic_structure(self):
        mesh = build_interval_mesh(10)
        assert len(mesh.nodes) == 11
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[-1] == 1.0
        assert mesh.h == pytest.approx(0.1)
        assert np.all(np.diff(mesh.nodes) > 0.0)
        assert list(mesh.boundary_nodes) == [0, 10]
        assert mesh.dim == 1

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_interval_mesh(1)

    @given(st.integers(min_value=2, max_value=500))
    def test_uniform_spacing(self, n):
        mesh = build_interval_mesh(n)
        assert len(mesh.elements) == n
        assert np.ptp(np.diff(mesh.nodes)) < 1e-14


class TestDiskMesh:
    @pytest.mark.parametrize("b", [26, 52, 104])
    def test_quality(self, b):
        mesh = build_disk_mesh(b)
        assert len(mesh.boundary_nodes) == b
        assert mesh.min_angle_deg >= 20.0
        assert mesh.quasi_uniformity < 6.0

    @pytest.mark.parametrize("b", [26, 52, 104])
    def test_boundary_nodes_on_unit_circle(self, b):
        mesh = build_disk_mesh(b)
        r = np.hypot(*mesh.nodes[mesh.boundary_nodes].T)
        assert np.max(np.abs(r - 1.0)) < 1e-12
        # equally spaced, starting at angle 0
        ang = np.mod(np.arctan2(*mesh.nodes[mesh.boundary_nodes][:, ::-1].T), 2 * np.pi)
        assert np.allclose(np.sort(ang), 2 * np.pi * np.arange(b) / b, atol=1e-12)

    def test_euler_formula_closed_disk(self):
        # triangulated polygon: V - E + F = 2 with the outer face
        for b in (26, 52):
            mesh = build_disk_mesh(b)
            edges = set()
            for tri in mesh.triangles:
                for a, c in ((0, 1), (1, 2), (2, 0)):
                    edges.add(frozenset((int(tri[a]), int(tri[c]))))
            v = len(mesh.nodes)
            e = len(edges)
            f = len(mesh.triangles) + 1
            assert v - e + f == 2

    def test_area_matches_inscribed_polygon(self):
        b = 52
        mesh = build_disk_mesh(b)
        p = mesh.nodes[mesh.triangles]
        area = 0.5 * np.abs(
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        ).sum()
        polygon = 0.5 * b * math.sin(2.0 * math.pi / b)
        assert area == pytest.approx(polygon, abs=1e-10)

    def test_refinement_halves_h(self):
        h52 = build_disk_mesh(52).h
        h104 = build_disk_mesh(104).h
        assert 0.4 < h104 / h52 < 0.6

    def test_triangle_count_scale(self):
        mesh = build_disk_mesh(52)
        assert 857 <= len(mesh.triangles) <= 1159  # within 15% of ~1000

    def test_ring_structure(self):
        mesh = build_disk_mesh(52)
        assert len(mesh.rings) >= 3
        assert np.array_equal(mesh.rings[0], mesh.boundary_nodes)
        assert mesh.outer_ring_width > 0.0
        # outermost ring sits one ring width inside the boundary
        r1 = np.hypot(*mesh.nodes[mesh.rings[1]].T)
        assert np.allclose(r1, 1.0 - mesh.outer_ring_width, atol=1e-12)

    def test_ccw_orientation(self):
        mesh = build_disk_mesh(26)
        p = mesh.nodes[mesh.triangles]
        signed = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 2, 0] - p[:, 0, 0]
        ) * (p[:, 1, 1] - p[:, 0, 1])
        assert np.all(signed > 0.0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_disk_mesh(7)


def _enriched_disk(b=16, eps=1e-3):
    return build_space(build_disk_mesh(b), EnrichmentSpec(kind="phi_m1", epsilon=eps))


def _enriched_columns(space, points, t):
    """The value (points, m) and gradient (points, m, dim) of each enriched
    basis function, read by _discrete_field from the coefficients that are
    one on that function alone."""
    mesh = space.mesh
    where = _locate_1d(mesh.nodes, points) if mesh.dim == 1 else locate_disk(mesh, points)
    fields = [_discrete_field(space, c, points, *where, t) for c in np.eye(space.total_dofs)[space.n_standard :]]
    return np.stack([v for v, _ in fields], axis=1), np.stack([g for _, g in fields], axis=1)


class TestFittedCoordinates:
    def test_examples(self):
        eta, xi, r = fitted_arrays([1.0, 0.0, 0.0], [0.0, 0.5, 0.0])
        assert eta[0] == 0.0 and xi[0] == 0.0
        assert eta[1] == pytest.approx(math.pi / 2.0)
        assert xi[1] == pytest.approx(0.5)
        assert xi[2] == 1.0 and r[2] == 0.0

    def test_eta_just_below_positive_axis(self):
        # arctan2 gives -1e-20 there, which the mod by 2 pi rounds up to
        # exactly 2 pi; the angle is mapped to 0, inside [0, 2 pi)
        assert float(fitted_arrays(1.0, -1e-20)[0]) == 0.0
        eta, _, _ = fitted_arrays(np.array([1.0, 1.0, 1.0]), np.array([-1e-20, -1e-9, 0.0]))
        assert eta[0] == 0.0 and eta[2] == 0.0
        assert eta[1] == pytest.approx(2.0 * math.pi - 1e-9, abs=1e-15) and eta[1] < 2.0 * math.pi

    @given(
        st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_round_trip(self, eta, r):
        got_eta, xi, got_r = fitted_arrays(r * math.cos(eta), r * math.sin(eta))
        assert float(xi) == pytest.approx(1.0 - r, abs=1e-12)
        assert float(got_r) == pytest.approx(r, abs=1e-15)
        assert 0.0 <= float(got_eta) < 2.0 * math.pi
        d = abs((float(got_eta) - eta + math.pi) % (2.0 * math.pi) - math.pi)
        assert d < 1e-9 / r

    @staticmethod
    def _chain_rule_points(dim, rng):
        """A 1D or 2D enriched space and 40 points inside its layer, away
        from the angular hat kinks."""
        if dim == 1:
            space = build_space(build_interval_mesh(10), EnrichmentSpec(kind="phi_m1", epsilon=1e-3))
            near = rng.uniform(0.005, 0.2, 20)  # on the cutoff plateau
            return space, np.concatenate([near, 1.0 - near])
        space = _enriched_disk()
        deta = 2.0 * np.pi / space.n_enriched
        eta = deta * (rng.integers(0, space.n_enriched, 40) + rng.uniform(0.1, 0.9, 40))
        r = rng.uniform(0.9, 0.995, 40)
        return space, np.stack([r * np.cos(eta), r * np.sin(eta)], axis=1)

    def test_gradient_transform_chain_rule(self):
        # the gradients of the enriched terms that _discrete_field maps to x
        # against central differences of its values, in both dimensions.
        # 1D: phi(x) and phi(1 - x), whose x-derivative is -phi'(1 - x);
        # 2D: phi(xi) psi_j(eta)
        rng = np.random.default_rng(5)
        h = 1e-6
        for dim in (1, 2):
            space, points = self._chain_rule_points(dim, rng)
            vals, grads = _enriched_columns(space, points, 1.0)
            assert grads.shape == (40, space.n_enriched, dim)
            for axis in range(dim):
                step = h * np.eye(dim)[axis] if dim == 2 else h
                vp, _ = _enriched_columns(space, points + step, 1.0)
                vm, _ = _enriched_columns(space, points - step, 1.0)
                assert np.array_equal(vp != 0.0, vals != 0.0) and np.array_equal(vm != 0.0, vals != 0.0)
                fd = (vp - vm) / (2.0 * h)
                assert np.allclose(grads[:, :, axis], fd, rtol=1e-6, atol=1e-6 * np.abs(grads).max())
        # 1D: phi rises into the plateau, and the mirror term falls
        space, points = self._chain_rule_points(1, rng)
        _, grads = _enriched_columns(space, points, 1.0)
        assert np.all(grads[:20, 0, 0] > 0.0) and np.all(grads[:20, 1, 0] == -grads[20:, 0, 0])

    def test_gradient_transform_angular(self):
        # on the cutoff plateau phi = 1 - exp(-xi^2 / (4 eps)) = 1 to double
        # precision, so the gradient is the angular term alone:
        # phi * dpsi/deta * grad(eta) with grad(eta) = (-y, x) / r^2
        space = _enriched_disk(eps=1e-8)
        deta = 2.0 * np.pi / space.n_enriched
        x, y = 0.8, -0.4  # xi = 0.106, inside the plateau [0, 0.25]
        vals, grads = _enriched_columns(space, np.array([[x, y]]), 1.0)
        r2 = x * x + y * y
        assert vals[0].sum() == pytest.approx(1.0, abs=1e-15)
        panel = int(fitted_arrays(x, y)[0] // deta)
        for k, sign in ((panel, -1.0), ((panel + 1) % space.n_enriched, 1.0)):
            assert grads[0, k] == pytest.approx(sign / deta * np.array([-y / r2, x / r2]), abs=1e-12)

    def test_gradient_transform_singular_center(self):
        # 1/r in grad(eta) is never formed there: the center lies outside
        # every profile support, so values and gradients are exactly zero
        vals, grads = _enriched_columns(_enriched_disk(), np.zeros((1, 2)), 1.0)
        assert np.all(vals == 0.0) and np.all(grads == 0.0)
