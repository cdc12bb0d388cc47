"""Galerkin assembly: standard P1 blocks against closed forms, enriched
blocks against independent quadrature oracles, projection and evaluation."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import integrate as sp_integrate

from blfem.analysis import ExactSolution1D, ExactSolution2D
from blfem.assembly import (
    RAD_N_GAUSS,
    RAD_N_SUB,
    AssemblyError,
    _assemble_standard_1d,
    _check_gram,
    _discrete_field,
    _layer_rule_1d,
    _locate_1d,
    _spatial_values,
    assemble_enriched,
    assemble_standard,
    build_space,
    element_rules_2d,
    evaluate_field_1d,
    fitted_arrays,
    project_initial,
    triangle_geometry,
    triangle_rule_points,
)
from blfem.corrector import ENRICHMENT_KINDS, EnrichmentSpec, enrichment_profile, source_values, unit_factor
from blfem.linsolve import stack
from blfem.mesh import build_disk_mesh, build_interval_mesh
from blfem.quadrature import composite_interval, gauss_interval, gauss_triangle, geometric_panels
from blfem.timestep import TimeGrid, cross_level_product
from helpers import (
    applied,
    coupling_layout_2d,
    frozen,
    locate_disk,
    on_every_column,
    operator_split,
    point_pattern,
    separate_load,
    sources,
    subset_layout,
    wavy_source,
)


def _space_1d(n=10, spec=None):
    return build_space(build_interval_mesh(n), spec)


def _stacked(system, t):
    """The stacked (mass, stiffness) of the system's level at t."""
    level = system.parts["rebuild"](t)
    return stack(system.mss, level.msl, level.mee), stack(system.ass, level.asl, level.aee)


class TestStandard1D:
    def test_tridiagonal_closed_form(self):
        n, eps = 8, 1e-3
        h = 1.0 / n
        space = _space_1d(n)
        system = assemble_standard(space, eps)
        mass = system.mss.toarray()
        stiff = system.ass.toarray()
        m = n - 1
        mass_exact = np.zeros((m, m))
        stiff_exact = np.zeros((m, m))
        for i in range(m):
            mass_exact[i, i] = 2.0 * h / 3.0
            stiff_exact[i, i] = 2.0 * eps / h
            if i + 1 < m:
                mass_exact[i, i + 1] = mass_exact[i + 1, i] = h / 6.0
                stiff_exact[i, i + 1] = stiff_exact[i + 1, i] = -eps / h
        assert np.allclose(mass, mass_exact, atol=1e-12)
        assert np.allclose(stiff, stiff_exact, atol=1e-12)

    def test_stiffness_kills_linears_in_the_interior(self):
        # A applied to the nodal values of a linear function must vanish on
        # rows whose hat support does not touch the boundary
        n = 12
        space = _space_1d(n)
        system = assemble_standard(space, 0.7)
        nodes = space.mesh.nodes[space.interior_nodes]
        vals = 2.0 * nodes + 1.0
        resid = system.ass @ vals
        assert np.max(np.abs(resid[1:-1])) < 1e-12

    def test_epsilon_linearity(self):
        space = _space_1d(10)
        a1 = assemble_standard(space, 1e-3).ass.toarray()
        a2 = assemble_standard(space, 2e-3).ass.toarray()
        assert np.allclose(a2, 2.0 * a1, atol=1e-15)
        m1 = assemble_standard(space, 1e-3).mss.toarray()
        m2 = assemble_standard(space, 2e-3).mss.toarray()
        assert np.allclose(m1, m2, atol=1e-16)

    def test_load_vector_oracle(self):
        # f = x^2 is within the load rule's exactness degree
        n = 6
        space = _space_1d(n)
        system = assemble_standard(space, 1e-2)
        load = system.parts["make_load"](lambda x: ((unit_factor, x**2),))(0.0)
        nodes = space.mesh.nodes
        for k, i in enumerate(space.interior_nodes):
            hat = lambda x: np.clip(
                1.0 - np.abs(x - nodes[i]) * n, 0.0, 1.0
            )
            exact, _ = sp_integrate.quad(lambda x: x**2 * hat(x), 0.0, 1.0, epsabs=1e-14)
            assert load[k] == pytest.approx(exact, abs=1e-12)

    def test_mass_row_sums_partition_of_unity(self):
        # away from the boundary the row sum of M is int hat_i = h
        n = 10
        space = _space_1d(n)
        mass = assemble_standard(space, 1.0).mss.toarray()
        sums = mass.sum(axis=1)
        assert np.allclose(sums[1:-1], 1.0 / n, atol=1e-14)


class TestStandard2D:
    def test_symmetry_and_spd(self):
        space = build_space(build_disk_mesh(26))
        system = assemble_standard(space, 1e-2)
        mass = system.mss.toarray()
        stiff = system.ass.toarray()
        assert np.max(np.abs(mass - mass.T)) < 1e-14
        assert np.max(np.abs(stiff - stiff.T)) < 1e-14
        assert np.linalg.eigvalsh(mass).min() > 0.0
        assert np.linalg.eigvalsh(stiff).min() > 0.0

    def test_stiffness_kills_linears_in_the_interior(self):
        mesh = build_disk_mesh(26)
        space = build_space(mesh)
        system = assemble_standard(space, 0.3)
        nodes = mesh.nodes[space.interior_nodes]
        vals = 0.4 * nodes[:, 0] - 1.1 * nodes[:, 1]
        resid = system.ass @ vals
        # rows of nodes not adjacent to the boundary must vanish
        bset = set(int(b) for b in mesh.boundary_nodes)
        adjacent = set()
        for tri in mesh.triangles:
            if any(int(v) in bset for v in tri):
                adjacent.update(int(v) for v in tri)
        for k, node in enumerate(space.interior_nodes):
            if int(node) not in adjacent:
                assert abs(resid[k]) < 1e-12

    def test_mass_total_is_interior_hat_volume(self):
        # sum_ij M_ij = int (sum_i hat_i)^2 over the polygon; with a constant
        # test vector this equals the load of f = sum_i hat_i
        space = build_space(build_disk_mesh(26))
        system = assemble_standard(space, 1.0)
        ones = np.ones(space.n_standard)
        total = float(ones @ (system.mss @ ones))
        # oracle through the independent error-report quadrature, which is
        # exact for the piecewise quadratic (sum_i hat_i)^2
        layout = element_rules_2d(space.mesh, 1e-4)
        hat_sum, _ = _discrete_field(space, ones, layout.points, layout.element, layout.bary, 0.0)
        assert total == pytest.approx(float(np.dot(layout.weights, hat_sum**2)), rel=1e-10)

    def test_misoriented_triangle_rejected(self):
        mesh = build_disk_mesh(26)
        tris = mesh.triangles.copy()
        tris[0] = tris[0][[0, 2, 1]]
        bad = type(mesh)(
            nodes=mesh.nodes,
            triangles=tris,
            boundary_nodes=mesh.boundary_nodes,
            rings=mesh.rings,
            h=mesh.h,
            min_angle_deg=mesh.min_angle_deg,
            quasi_uniformity=mesh.quasi_uniformity,
            outer_ring_width=mesh.outer_ring_width,
        )
        with pytest.raises(AssemblyError):
            assemble_standard(build_space(bad), 1.0)


class TestTriangleRulePoints:
    def test_constant_integrates_to_area(self):
        tri = np.array([[1.0, 0.0], [0.9, 0.3], [0.7, 0.05]])
        area = 0.5 * abs(
            (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
            - (tri[2, 0] - tri[0, 0]) * (tri[1, 1] - tri[0, 1])
        )
        for mask in ([True, True, False], [True, False, False], [False, False, False]):
            pts, wts, bary, counts = triangle_rule_points(tri[None], [mask], 1e-6)
            assert counts.tolist() == [len(wts)]
            assert np.sum(wts) == pytest.approx(area, rel=1e-12)
            assert np.all(wts > 0.0)
            assert np.allclose(bary.sum(axis=1), 1.0, atol=1e-12)
            # barycentric coordinates reproduce the physical points
            assert np.allclose(bary @ tri, pts, atol=1e-12)

    def test_linear_exactness(self):
        tri = np.array([[0.2, 0.1], [0.9, 0.2], [0.4, 0.8]])
        f = lambda x, y: 1.0 + 2.0 * x - 3.0 * y
        centroid = tri.mean(axis=0)
        area = 0.5 * abs(
            (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
            - (tri[2, 0] - tri[0, 0]) * (tri[1, 1] - tri[0, 1])
        )
        exact = area * f(*centroid)
        for mask in ([True, True, False], [True, False, False], [False, False, False]):
            pts, wts, _, _ = triangle_rule_points(tri[None], [mask], 1e-4)
            assert np.dot(wts, f(pts[:, 0], pts[:, 1])) == pytest.approx(exact, rel=1e-10)

    def test_batch_matches_single_triangles(self):
        # a mixed batch, in an order that interleaves the boundary patterns,
        # gives each triangle the rule it gets on its own
        tri = np.array([[1.0, 0.0], [0.9, 0.3], [0.7, 0.05]])
        masks = [
            [True, True, False],
            [False, False, False],
            [False, True, False],
            [True, False, True],
            [False, False, False],
        ]
        verts = np.stack([tri + 0.01 * k for k in range(len(masks))])
        pts, wts, bary, counts = triangle_rule_points(verts, masks, 1e-6)
        at = np.concatenate([[0], np.cumsum(counts)])
        for k, mask in enumerate(masks):
            one = triangle_rule_points(verts[k : k + 1], [mask], 1e-6)
            for got, want in zip((pts, wts, bary), one):
                assert np.array_equal(got[at[k] : at[k + 1]], want)

    def test_three_boundary_vertices_rejected(self):
        # a graded rule resolves the layer along one edge or at one vertex;
        # a triangle inscribed in the circle has neither, and no disk mesh
        # makes one
        tri = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(AssemblyError):
            triangle_rule_points(tri[None], [[True, True, True]], 1e-6)


class TestEnriched1D:
    def test_gram_blocks_match_scipy_quad(self):
        eps, sigma = 1e-4, 0.1
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=sigma)
        space = _space_1d(20, spec)
        level = assemble_enriched(space, eps).parts["rebuild"](0.0)
        mee, aee = level.mee, level.aee
        phi2, _ = sp_integrate.quad(
            lambda x: float(enrichment_profile(spec, x)[0]) ** 2, 0.0, sigma,
            epsabs=1e-14, limit=200,
        )
        dphi2, _ = sp_integrate.quad(
            lambda x: float(enrichment_profile(spec, x)[1]) ** 2, 0.0, sigma,
            epsabs=1e-12, limit=200, points=[math.sqrt(eps)],
        )
        assert mee[0, 0] == pytest.approx(phi2, rel=1e-8)
        assert mee[1, 1] == pytest.approx(phi2, rel=1e-8)
        assert mee[0, 1] == 0.0  # disjoint supports
        assert aee[0, 0] == pytest.approx(eps * dphi2, rel=1e-8)

    def test_coupling_block_matches_scipy_quad(self):
        eps, sigma, n = 1e-4, 0.1, 20
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=sigma)
        space = _space_1d(n, spec)
        msl = assemble_enriched(space, eps).parts["rebuild"](0.0).msl.toarray()
        nodes = space.mesh.nodes
        for k in (0, 1):  # first two interior hats, near the left layer
            i = space.interior_nodes[k]
            hat = lambda x: np.clip(1.0 - np.abs(x - nodes[i]) * n, 0.0, 1.0)
            exact, _ = sp_integrate.quad(
                lambda x: float(enrichment_profile(spec, x)[0]) * hat(x),
                0.0, sigma, epsabs=1e-14, limit=200,
            )
            assert msl[k, 0] == pytest.approx(exact, rel=1e-8)

    def test_right_profile_mirrors_left(self):
        eps, sigma = 1e-4, 0.1
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=sigma)
        space = _space_1d(20, spec)
        msl = assemble_enriched(space, eps).parts["rebuild"](0.0).msl.toarray()
        assert np.allclose(msl[:, 1], msl[::-1, 0], atol=1e-14)

    def test_coupling_vanishes_away_from_layers(self):
        eps, sigma = 1e-6, 0.05
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=sigma)
        space = _space_1d(40, spec)
        msl = assemble_enriched(space, eps).parts["rebuild"](0.0).msl.toarray()
        nodes = space.mesh.nodes[space.interior_nodes]
        far = (nodes > sigma + 0.025) & (nodes < 1.0 - sigma - 0.025)
        assert np.max(np.abs(msl[far])) == 0.0

    def test_full_system_spd_and_symmetric(self):
        eps = 1e-5
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=0.02)
        space = _space_1d(50, spec)
        mass = _stacked(assemble_enriched(space, eps), 0.0)[0].toarray()
        assert np.max(np.abs(mass - mass.T)) < 1e-14
        assert np.linalg.eigvalsh(mass).min() > 0.0

    def test_gram_singularity_detected(self):
        with pytest.raises(AssemblyError):
            _check_gram(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(AssemblyError):
            _check_gram(np.array([[1.0, 0.0], [0.0, -1e-18]]))


@pytest.fixture(scope="module")
def enriched():
    eps = 1e-4
    mesh = build_disk_mesh(26)
    sigma = min(3.0 * mesh.outer_ring_width, 0.5)
    spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=sigma)
    space = build_space(mesh, spec)
    system = assemble_enriched(space, eps)
    return space, system, eps


class TestEnriched2D:
    def test_dof_layout(self, enriched):
        space, system, _ = enriched
        assert space.n_enriched == 26
        assert _stacked(system, 1.0)[0].shape == (space.total_dofs,) * 2

    def test_gram_matches_independent_quadrature(self, enriched):
        # re-integrate Mee with a finer rule and freshly written code
        space, system, eps = enriched
        mesh = space.mesh
        spec = space.enrichment
        m = space.n_enriched
        deta = 2.0 * np.pi / m
        bset = set(int(b) for b in mesh.boundary_nodes)
        vert_r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
        mee = np.zeros((m, m))
        tris = np.array([tri for tri in mesh.triangles if vert_r[tri].max() > 1.0 - spec.support + 1e-12])
        masks = [[int(v) in bset for v in tri] for tri in tris]
        pts, wts, _, _ = triangle_rule_points(mesh.nodes[tris], masks, eps, n_sub=10, n_gauss=6)
        eta, xi, _ = fitted_arrays(pts[:, 0], pts[:, 1])
        phi = np.asarray(enrichment_profile(spec, xi, 1.0)[0])
        panel = np.minimum((eta / deta).astype(int), m - 1)
        frac = eta / deta - panel
        for jj, psi_j in ((panel, 1.0 - frac), ((panel + 1) % m, frac)):
            for kk, psi_k in ((panel, 1.0 - frac), ((panel + 1) % m, frac)):
                np.add.at(mee, (jj, kk), wts * phi**2 * psi_j * psi_k)
        # tolerance set by the angular hat kinks cutting through triangles:
        # neither rule aligns panels with them, capping agreement near 0.5%
        assert np.allclose(system.parts["rebuild"](1.0).mee, mee, rtol=1e-2, atol=1e-10)

    def test_gram_near_uniform_diagonal(self, enriched):
        # the profile is rotation invariant; the triangulation is only nearly
        # so (ring node counts vary), so diagonal entries agree to a few %
        _, system, _ = enriched
        diag = np.diag(system.parts["rebuild"](1.0).mee)
        assert np.all(diag > 0.0)
        assert np.ptp(diag) / diag.mean() < 0.05

    def test_coupling_vanishes_for_inner_nodes(self, enriched):
        space, system, _ = enriched
        msl = system.parts["rebuild"](1.0).msl.toarray()
        vert_r = np.hypot(*space.mesh.nodes[space.interior_nodes].T)
        inner = vert_r < 1.0 - space.enrichment.support - space.mesh.h
        assert np.max(np.abs(msl[inner])) == 0.0

    def test_full_system_spd(self, enriched):
        _, system, _ = enriched
        mass, stiff = (a.toarray() for a in _stacked(system, 1.0))
        assert np.max(np.abs(mass - mass.T)) < 1e-13
        assert np.linalg.eigvalsh(mass).min() > 0.0
        assert np.linalg.eigvalsh(stiff).min() > 0.0

    def test_enrichment_requires_ring_structure(self):
        flat = dataclasses.replace(build_disk_mesh(26), rings=())
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=1e-4, sigma=0.1)
        with pytest.raises(AssemblyError):
            build_space(flat, spec)

    def test_angular_interpolation_consistency(self):
        # coefficients d_j = g(eta_j) must reproduce g(eta) * phi(xi) up to
        # pure angular P1 interpolation error, which is O(deta^2)
        eps = 1e-6
        g = lambda eta: np.cos(eta) + 0.5 * np.sin(2.0 * eta)
        errs = []
        for b in (26, 52):
            mesh = build_disk_mesh(b)
            sigma = min(3.0 * mesh.outer_ring_width, 0.5)
            spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=sigma)
            space = build_space(mesh, spec)
            coeffs = np.zeros(space.total_dofs)
            angles = 2.0 * np.pi * np.arange(b) / b
            coeffs[space.n_standard :] = g(angles)
            r = 1.0 - 0.3 * sigma
            eta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
            x, y = r * np.cos(eta), r * np.sin(eta)
            # the standard part is zero, so the field is the enrichment alone
            points = np.stack([x, y], axis=1)
            got, _ = _discrete_field(space, coeffs, points, *locate_disk(mesh, points), 1.0)
            want = g(eta) * float(enrichment_profile(spec, 1.0 - r, 1.0)[0])
            errs.append(np.max(np.abs(got - want)))
        assert errs[1] < errs[0] / 2.0  # at least first order in the angle


def _moving_space(dim, kind, eps):
    mesh = build_interval_mesh(20) if dim == 1 else build_disk_mesh(16)
    return build_space(mesh, EnrichmentSpec(kind=kind, epsilon=eps))


def _max_diff(a, b):
    return abs(a - b).max() if (a - b).nnz else 0.0


def _cross_mass(system, new, old):
    """The dense mass matrix between levels new (rows) and old (columns), as
    the march's block right-hand side applies it."""
    eye = np.eye(system.mss.shape[0] + len(new.mee))
    return np.column_stack([cross_level_product(system.mss, new, old, e) for e in eye])


class TestTimeLevels:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["phi0_tilde", "phi0"])
    def test_restacked_level_matches_fresh_assembly(self, dim, kind):
        # a level rebuilt after others matches one of a fresh assembly, and
        # its cross mass matrix against itself is its stacked mass matrix
        eps = 1e-4
        space = _moving_space(dim, kind, eps)
        system = assemble_enriched(space, eps)
        system.parts["rebuild"](0.0)
        for t in (0.3, 0.5):
            fresh_mass, fresh_stiff = _stacked(assemble_enriched(space, eps), t)
            level = system.parts["rebuild"](t)
            mass, stiff = stack(system.mss, level.msl, level.mee), stack(system.ass, level.asl, level.aee)
            scale = abs(fresh_mass).max()
            assert _max_diff(mass, fresh_mass) <= 1e-14 * scale
            assert _max_diff(stiff, fresh_stiff) <= 1e-14 * abs(fresh_stiff).max()
            cross = _cross_mass(system, system.parts["rebuild"](t, level), level)
            assert np.max(np.abs(cross - fresh_mass.toarray())) <= 1e-14 * scale

    def test_gram_checked_on_levels_without_previous(self, monkeypatch):
        # the first level of a march (and a projection's or a dump's level)
        # is checked; a level taken after another one is not checked again
        import blfem.assembly as assembly

        eps = 1e-4
        space = _moving_space(1, "phi0", eps)
        rebuild = assemble_enriched(space, eps, t_max=1.0).parts["rebuild"]
        checked = []
        monkeypatch.setattr(assembly, "_check_gram", lambda mee: checked.append(mee.copy()))
        first = rebuild(0.25)
        rebuild(0.5, first)
        assert len(checked) == 1 and np.array_equal(checked[0], first.mee)
        monkeypatch.undo()
        # every point moves without a split time: a vanishing profile leaves
        # a zero Gram block
        rebuild = assemble_enriched(space, eps).parts["rebuild"]
        monkeypatch.setattr(assembly, "enrichment_profile", lambda spec, xi, t=None, cutoff=None: 2 * (np.zeros(np.shape(xi)),))
        with pytest.raises(AssemblyError, match="numerically singular"):
            rebuild(0.75)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cross_mass_rows_at_new_level_columns_at_old(self, dim):
        eps = 1e-4
        space = _moving_space(dim, "phi0", eps)
        system = assemble_enriched(space, eps)
        parts = system.parts
        n = space.n_standard
        old = parts["rebuild"](0.3)
        new = parts["rebuild"](0.5, old)
        cross = _cross_mass(system, new, old)
        mass_new = _stacked(assemble_enriched(space, eps), 0.5)[0].toarray()
        mass_old = _stacked(assemble_enriched(space, eps), 0.3)[0].toarray()
        assert np.array_equal(cross[:n, :n], mass_new[:n, :n])
        assert np.allclose(cross[:n, n:], mass_old[:n, n:], rtol=0.0, atol=1e-16)
        assert np.allclose(cross[n:, :n], mass_new[n:, :n], rtol=0.0, atol=1e-16)
        swapped = _cross_mass(system, parts["rebuild"](0.3, new), new)
        assert np.allclose(cross[n:, n:], swapped[n:, n:].T, rtol=0.0, atol=1e-16)
        if dim == 1:
            spec = space.enrichment
            want, _ = sp_integrate.quad(
                lambda x: float(enrichment_profile(spec, x, 0.5)[0]) * float(enrichment_profile(spec, x, 0.3)[0]),
                0.0, spec.support, epsabs=1e-14, limit=200, points=[math.sqrt(eps)],
            )
            # the strip rule matches quad to ~4e-8 for phi0; the profiles at
            # t = 0.3 and 0.5 differ by ~3e-3 in this integral
            assert cross[n, n] == pytest.approx(want, rel=1e-6)
            assert cross[n + 1, n + 1] == pytest.approx(want, rel=1e-6)


def _reference_blocks_2d(space, eps, t, t_old, f):
    """The enriched 2D blocks at t by one COO / bincount contribution per
    (point, hat, angular hat): msl, asl, mee, aee, the cross Gram block
    between t and t_old, and the enriched load of f at t (all dense)."""
    mesh, spec = space.mesh, space.enrichment
    n, m = space.n_standard, space.n_enriched
    deta = 2.0 * np.pi / m
    r_max = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])[mesh.triangles].max(axis=1)
    quad = subset_layout(mesh, spec.epsilon, np.nonzero(r_max > 1.0 - spec.support + 1e-12)[0])
    x, y = quad.points[:, 0], quad.points[:, 1]
    w, tri = quad.weights, quad.element
    eta, xi, r = fitted_arrays(x, y)
    phi, dphi = enrichment_profile(spec, xi, t)
    phi_old = enrichment_profile(spec, xi, t_old)[0]
    panel = np.minimum((eta / deta).astype(int), m - 1)
    frac = eta / deta - panel
    hats = ((panel, 1.0 - frac, -1.0 / deta), ((panel + 1) % m, frac, 1.0 / deta))
    _, bx, by = triangle_geometry(mesh.nodes, mesh.triangles)

    rows, cols, mvals, avals = [], [], [], []
    for a in range(3):
        dof = space.node_to_dof[mesh.triangles[tri, a]]
        keep = dof >= 0
        g_xi = -(bx[tri, a] * x + by[tri, a] * y) / r
        g_eta = (by[tri, a] * x - bx[tri, a] * y) / r**2
        for col, psi, dpsi in hats:
            rows.append(dof[keep])
            cols.append(col[keep])
            mvals.append((w * quad.bary[:, a] * psi * phi)[keep])
            avals.append((eps * w * (g_xi * psi * dphi + g_eta * dpsi * phi))[keep])
    rows, cols = np.concatenate(rows), np.concatenate(cols)

    def coupling(vals):
        return sp.coo_matrix((np.concatenate(vals), (rows, cols)), shape=(n, m)).toarray()

    def gram(vals):
        g = sum(np.bincount(ri * m + ci, weights=w * v, minlength=m * m) for ri, ci, v in vals).reshape(m, m)
        return 0.5 * (g + g.T)

    pairs = [(ri, ci, pi * pj, di * dj) for ri, pi, di in hats for ci, pj, dj in hats]
    return dict(
        msl=coupling(mvals),
        asl=coupling(avals),
        mee=gram([(ri, ci, pp * phi**2) for ri, ci, pp, _ in pairs]),
        aee=gram([(ri, ci, eps * (pp * dphi**2 + dd * phi**2 / r**2)) for ri, ci, pp, dd in pairs]),
        cee=gram([(ri, ci, pp * phi * phi_old) for ri, ci, pp, _ in pairs]),
        load=sum(np.bincount(col, weights=w * psi * phi * f(x, y, t), minlength=m) for col, psi, _ in hats),
    )


def _reference_blocks_1d(space, eps, t, t_old, f):
    """The enriched 1D blocks at t by np.add.at over the layer rule, one
    pass per (enriched DOF, hat): msl, asl, mee, aee, the cross Gram block
    between t and t_old, and the enriched load of f at t (all dense)."""
    spec, nodes = space.enrichment, space.mesh.nodes
    rule = _layer_rule_1d(space)
    w = rule.weights
    phi, dphi = enrichment_profile(spec, rule.points, t)
    phi_old = enrichment_profile(spec, rule.points, t_old)[0]
    msl = np.zeros((space.n_standard, 2))
    asl = np.zeros((space.n_standard, 2))
    # enriched dof 0 lives at the left endpoint, dof 1 mirrored at the right
    for col, sign in ((0, 1.0), (1, -1.0)):
        xpts = rule.points if col == 0 else 1.0 - rule.points
        elem = np.clip(np.searchsorted(nodes, xpts, side="right") - 1, 0, len(nodes) - 2)
        hl = nodes[elem + 1] - nodes[elem]
        lam = (xpts - nodes[elem]) / hl
        for node, hat, slope in ((elem, 1.0 - lam, -1.0 / hl), (elem + 1, lam, 1.0 / hl)):
            dof = space.node_to_dof[node]
            keep = dof >= 0
            np.add.at(msl[:, col], dof[keep], (w * hat * phi)[keep])
            np.add.at(asl[:, col], dof[keep], (eps * w * slope * sign * dphi)[keep])
    return dict(
        msl=msl,
        asl=asl,
        mee=np.dot(w, phi**2) * np.eye(2),
        aee=eps * np.dot(w, dphi**2) * np.eye(2),
        cee=np.dot(w, phi * phi_old) * np.eye(2),
        load=np.array([np.dot(w, phi * f(rule.points, t)), np.dot(w, phi * f(1.0 - rule.points, t))]),
    )


def _source(x, y, t):
    return (1.0 + x - 2.0 * y) * (1.0 + t)


def _source_1d(x, t):
    return (1.0 + 3.0 * x) * (1.0 + t)


def _assert_level_matches(space, eps, reference, source):
    system = assemble_enriched(space, eps)
    parts = system.parts
    n = space.n_standard
    old = parts["rebuild"](0.3)
    new = parts["rebuild"](0.5, old)
    ref = reference(space, eps, 0.5, 0.3, source)
    cross = _cross_mass(system, new, old)
    got = dict(
        msl=new.msl.toarray(),
        asl=new.asl.toarray(),
        mee=new.mee,
        aee=new.aee,
        cee=cross[n:, n:],
        load=parts["make_load"](frozen(source, 0.5))(0.5, phi_vals=new.phi)[n:],
    )
    for name, want in ref.items():
        scale = np.max(np.abs(want))
        assert scale > 0.0, name
        assert np.max(np.abs(got[name] - want)) <= 1e-14 * scale, name
    assert np.array_equal(new.msl.indices, old.msl.indices)
    assert np.array_equal(new.msl.indptr, old.msl.indptr)


class TestSplitLayout:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["phi0", "phi0_tilde"])
    def test_split_levels_match_unsplit(self, dim, kind):
        # summing the fixed points once moves no block by more than rounding,
        # and two levels differ only on the moving rows
        eps = 1e-5
        space = _moving_space(dim, kind, eps)
        n = space.n_standard
        whole = assemble_enriched(space, eps).parts
        split_system = assemble_enriched(space, eps, t_max=1.0)
        split, rows = split_system.parts, split_system.moving_rows
        assert 0 < len(rows) < n
        levels = {}
        for t in (0.0, 0.25, 1.0):
            want, got = whole["rebuild"](t), split["rebuild"](t)
            levels[t] = got
            assert len(got.phi) < len(want.phi)
            for name in ("msl", "asl", "mee", "aee"):
                a, b = getattr(want, name), getattr(got, name)
                a, b = (a.toarray(), b.toarray()) if sp.issparse(a) else (a, b)
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a)), (name, t)
            prev_want, prev_got = whole["rebuild"](0.5 * t), split["rebuild"](0.5 * t)
            cee_want = whole["rebuild"](t, prev_want).cee
            assert np.max(np.abs(split["rebuild"](t, prev_got).cee - cee_want)) <= 1e-14 * np.max(np.abs(cee_want))
            source = frozen(_source if dim == 2 else _source_1d, t)
            load_want = whole["make_load"](source)(t, phi_vals=want.phi)
            load_got = split["make_load"](source)(t, phi_vals=got.phi)
            assert np.max(np.abs(load_got - load_want)) <= 1e-14 * np.max(np.abs(load_want))
        off = np.setdiff1d(np.arange(n), rows)
        for name in ("msl", "asl"):
            a, b = getattr(levels[0.25], name), getattr(levels[1.0], name)
            assert np.array_equal(a[off].toarray(), b[off].toarray())
            assert not np.array_equal(a[rows].toarray(), b[rows].toarray())

    def test_band_ends_at_rounding(self, monkeypatch):
        # B = 104 phi0_tilde, eps = 1e-8: at most half the moving points of a
        # band that ended where the layer factors underflow (exp(-a) at
        # a = 745.14, erfc_gauss at z = 37.68)
        import blfem.assembly as assembly

        eps = 1e-8
        space = build_space(build_disk_mesh(104), EnrichmentSpec(kind="phi0_tilde", epsilon=eps))
        support = assembly._support_2d(space, element_rules_2d(space.mesh, eps))
        moving = np.count_nonzero(assembly._split(space, support, 1.0).moving)
        underflow = lambda spec, t_max: max(math.sqrt(4.0 * eps * 745.14), 37.68 * math.sqrt(2.0 * eps)) * math.sqrt(t_max)
        monkeypatch.setattr(assembly, "time_independent_xi", underflow)
        assert 0 < 2 * moving <= np.count_nonzero(assembly._split(space, support, 1.0).moving)

    @pytest.mark.parametrize("b", [16, 52])
    @pytest.mark.parametrize("kind", ENRICHMENT_KINDS)
    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-8])
    def test_fixed_values_and_every_level_are_the_profile_at_its_time(self, b, kind, eps):
        # every level's base sums take the fixed points' values at t_max,
        # so past xi*(t_max) they must equal the profile at every t in
        # [0, t_max], and each level's values are the profile at the moving
        # points; with no t_max every point of a time-dependent kind moves.
        # To the bit for t > 0, as values at t = 0 (the t = 0 limits of phi0
        # and phi0_tilde differ there in the sign of zeros)
        import blfem.assembly as assembly

        mesh = build_disk_mesh(b)
        sigma = min(3.0 * mesh.outer_ring_width, 0.5) if kind == "phi_m1_lin" else None
        spec = EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma)
        space = build_space(mesh, spec)
        layout = element_rules_2d(mesh, eps)
        support = assembly._support_2d(space, layout)
        xi = coupling_layout_2d(space, layout).xi
        grid = TimeGrid(T=0.5, n_steps=4)
        for t_max in (grid.T, None):
            moving = assembly._split(space, support, t_max).moving
            assert moving.all() == (t_max is None and spec.time_dependent)
            fixed = enrichment_profile(spec, xi[~moving], t_max) if not moving.all() else (np.zeros(0),) * 2
            rebuild = assemble_enriched(space, eps, t_max=t_max, layout=layout).parts["rebuild"]
            for t in grid.times:
                want = enrichment_profile(spec, xi, t)
                got = (*fixed, rebuild(t).phi)
                want = want[0][~moving], want[1][~moving], want[0][moving]
                if t > 0.0:
                    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), t
                else:
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["phi_m1", "phi_m1_lin"])
    def test_time_independent_kind_has_one_level(self, dim, kind):
        eps = 1e-5
        mesh = build_interval_mesh(20) if dim == 1 else build_disk_mesh(16)
        sigma = None
        if kind == "phi_m1_lin":
            sigma = 0.1 if dim == 1 else min(3.0 * mesh.outer_ring_width, 0.5)
        space = build_space(mesh, EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma))
        system = assemble_enriched(space, eps, t_max=1.0)
        parts = system.parts
        assert len(system.moving_rows) == 0
        level = parts["rebuild"](0.0)
        assert parts["rebuild"](1.0, level) is level
        assert np.array_equal(level.cee, level.mee)
        assert len(level.phi) == 0
        mass = stack(system.mss, level.msl, level.mee)
        # every point fixed: the one full sum per block, as without a split
        whole = assemble_enriched(space, eps)
        assert (mass != _stacked(whole, 1.0)[0]).nnz == 0


class TestOperatorAssembly2D:
    @pytest.mark.parametrize("kind", ["phi0", "phi0_tilde", "phi_m1", "phi_m1_lin"])
    def test_level_matches_contribution_assembly(self, kind):
        eps = 1e-5
        mesh = build_disk_mesh(16)
        sigma = min(3.0 * mesh.outer_ring_width, 0.5) if kind == "phi_m1_lin" else None
        space = build_space(mesh, EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma))
        _assert_level_matches(space, eps, _reference_blocks_2d, _source)


class TestOperatorAssembly1D:
    @pytest.mark.parametrize("kind", ["phi0", "phi0_tilde", "phi_m1", "phi_m1_lin"])
    def test_level_matches_contribution_assembly(self, kind):
        # a taper of one element (the solver's default) would make every asl
        # entry an integral of phi' that cancels to rounding
        eps = 1e-5
        sigma = 0.1 if kind == "phi_m1_lin" else None
        space = _space_1d(20, EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma))
        _assert_level_matches(space, eps, _reference_blocks_1d, _source_1d)


class TestProjectionAndEvaluation:
    def test_projection_reproduces_p1_function_1d(self):
        n = 16
        space = _space_1d(n)
        system = assemble_standard(space, 1e-2)
        rng = np.random.default_rng(3)
        nodal = np.zeros(n + 1)
        nodal[1:-1] = rng.standard_normal(n - 1)
        u0 = lambda x: np.interp(x, space.mesh.nodes, nodal)
        got = project_initial(space, system, u0)
        assert np.allclose(got, nodal[1:-1], atol=1e-10)

    def test_projection_residual_small(self):
        eps = 1e-5
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=0.02)
        space = _space_1d(50, spec)
        system = assemble_enriched(space, eps)
        u0 = lambda x: np.sin(np.pi * np.asarray(x))
        got = project_initial(space, system, u0)
        level = system.parts["rebuild"](0.0)
        rhs = system.parts["make_load"](lambda x: ((unit_factor, u0(x)),))(0.0, level.phi)
        resid = np.linalg.norm(stack(system.mss, level.msl, level.mee) @ got - rhs) / np.linalg.norm(rhs)
        assert resid < 1e-10

    def test_time_dependent_projection_uses_standard_block_only(self):
        eps = 1e-4
        spec = EnrichmentSpec(kind="phi0_tilde", epsilon=eps)
        space = _space_1d(20, spec)
        system = assemble_enriched(space, eps)
        got = project_initial(space, system, lambda x: np.sin(np.pi * np.asarray(x)))
        assert np.all(got[space.n_standard :] == 0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["phi0", "phi0_tilde"])
    def test_time_dependent_projection_reads_u0_at_standard_load_points_only(self, dim, kind):
        # u0 is evaluated once, at the points of the standard load rule (4
        # Gauss points per interval, the triangle rule per triangle), never
        # at the enriched layout's points
        eps = 1e-4
        space = _moving_space(dim, kind, eps)
        system = assemble_enriched(space, eps, t_max=1.0)
        sizes = []

        def u0(*coords):
            sizes.append(np.size(coords[0]))
            return np.ones(np.shape(coords[0]))

        got = project_initial(space, system, u0)
        rule = gauss_interval(4) if dim == 1 else gauss_triangle()
        assert sizes == [len(space.mesh.elements) * len(rule.weights)]
        assert np.all(got[space.n_standard :] == 0.0)

    def test_field_evaluation_reproduces_linear_2d(self):
        # on the triangles without a boundary vertex the interior nodal
        # values of a linear function reproduce it and its gradient
        mesh = build_disk_mesh(26)
        space = build_space(mesh)
        nodes = mesh.nodes[space.interior_nodes]
        coeffs = 0.3 * nodes[:, 0] + 0.9 * nodes[:, 1]
        on_bdy = np.isin(mesh.triangles, mesh.boundary_nodes).any(axis=1)
        layout = subset_layout(mesh, 1e-6, np.nonzero(~on_bdy)[0])
        got, grads = _discrete_field(space, coeffs, layout.points, layout.element, layout.bary, 0.0)
        x, y = layout.points.T
        assert np.allclose(got, 0.3 * x + 0.9 * y, atol=1e-12)
        assert np.allclose(grads, [0.3, 0.9], atol=1e-12)

    def test_field_evaluation_1d_with_enrichment(self):
        # the standard part is zero, so the field is c_0 phi(x) + c_1 phi(1 - x)
        # and its x-derivative c_0 phi'(x) - c_1 phi'(1 - x)
        eps = 1e-4
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=0.1)
        space = _space_1d(10, spec)
        coeffs = np.zeros(space.total_dofs)
        coeffs[space.n_standard :] = 2.0, -0.5
        xs = np.array([0.0, 0.01, 0.05, 0.5, 0.97, 0.99, 1.0])
        want = 2.0 * np.asarray(enrichment_profile(spec, xs)[0]) - 0.5 * np.asarray(enrichment_profile(spec, 1.0 - xs)[0])
        assert np.allclose(evaluate_field_1d(space, coeffs, xs), want, atol=1e-14)
        wantg = 2.0 * np.asarray(enrichment_profile(spec, xs)[1]) + 0.5 * np.asarray(
            enrichment_profile(spec, 1.0 - xs)[1]
        )
        _, grads = _discrete_field(space, coeffs, xs, *_locate_1d(space.mesh.nodes, xs), None)
        assert grads.shape == (len(xs), 1)
        assert np.allclose(grads[:, 0], wantg, atol=1e-12)

    def test_locate_1d(self):
        # a point takes the element to its right, the last node the last element
        nodes = build_interval_mesh(4).nodes
        elem, bary = _locate_1d(nodes, np.array([0.0, 0.1, 0.25, 0.6, 1.0]))
        assert np.array_equal(elem, [0, 0, 1, 2, 3])
        assert np.allclose(bary, [[1.0, 0.0], [0.6, 0.4], [1.0, 0.0], [0.6, 0.4], [0.0, 1.0]], atol=1e-15)


class TestTriangleGeometry:
    def test_gradients_reproduce_linear(self):
        mesh = build_disk_mesh(26)
        area, bx, by = triangle_geometry(mesh.nodes, mesh.triangles)
        assert np.all(area > 0.0)
        # P1 gradient of f = 2x - y on each triangle from nodal values
        f = 2.0 * mesh.nodes[:, 0] - mesh.nodes[:, 1]
        gx = np.sum(bx * f[mesh.triangles], axis=1)
        gy = np.sum(by * f[mesh.triangles], axis=1)
        assert np.allclose(gx, 2.0, atol=1e-12)
        assert np.allclose(gy, -1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the standard load and the 1D standard blocks against contribution-list
# references


def _reference_standard_load(space, source, t):
    """The standard load from one (element, vertex, point) contribution per
    DOF, each term's values and weight spread out per vertex, summed by
    bincount term by term; sum_k tau_k(t) * L v_k."""
    mesh = space.mesh
    if mesh.dim == 1:
        base = gauss_interval(4)
        a, b = mesh.nodes[mesh.elements].T
        coords = (a[:, None] + (b - a)[:, None] * base.points,)
        wts = (b - a)[:, None] * base.weights
        hats = np.stack([1.0 - base.points, base.points])
        elems = mesh.elements
    else:
        rule = gauss_triangle()
        lam = np.stack([1.0 - rule.points[:, 0] - rule.points[:, 1], rule.points[:, 0], rule.points[:, 1]], axis=1)
        v = mesh.nodes[mesh.triangles]
        area2 = np.abs(
            (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
            - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
        )
        pts = lam @ v
        coords = (pts[..., 0], pts[..., 1])
        wts = rule.weights * area2[:, None]
        hats = lam.T
        elems = mesh.triangles
    dofs = space.node_to_dof[elems]
    keep = np.broadcast_to((dofs >= 0)[:, :, None], dofs.shape + hats.shape[-1:])

    def spread(vals):
        return np.broadcast_to(vals, keep.shape)[keep]

    contributions = spread(wts[:, None, :]) * spread(hats)
    terms = source(*(spread(c[:, None, :]) for c in coords))
    loads = [
        (tau, np.bincount(spread(dofs[:, :, None]), weights=contributions * v, minlength=space.n_standard))
        for tau, v in terms
    ]
    return source_values(loads, t)


class TestStandardLoadOperator:
    @pytest.mark.parametrize("n", [50, 800])
    @pytest.mark.parametrize("eps", [1e-5, 1e-8])
    def test_1d_bit_identical_to_contribution_sum(self, n, eps):
        space = _space_1d(n)
        source = ExactSolution1D(eps).source
        load = assemble_standard(space, eps).parts["make_load"](source)
        for t in (0.0, 0.37, 1.0):
            assert load(t).tobytes() == _reference_standard_load(space, source, t).tobytes()

    @pytest.mark.parametrize("b", [16, 104])
    @pytest.mark.parametrize("source", ["exact2d", "wavy"])
    def test_2d_bit_identical_to_contribution_sum(self, b, source):
        eps = 1e-8
        space = build_space(build_disk_mesh(b))
        source = ExactSolution2D(eps).source if source == "exact2d" else wavy_source
        load = assemble_standard(space, eps).parts["make_load"](source)
        for t in (0.0, 0.37, 1.0):
            got, want = load(t), _reference_standard_load(space, source, t)
            assert np.any(want != 0.0)
            assert got.tobytes() == want.tobytes()

    def test_constant_source_broadcasts(self):
        space = _space_1d(10)
        load = assemble_standard(space, 1e-3).parts["make_load"](lambda x: ((unit_factor, 2.0),))
        assert np.allclose(load(0.0), 2.0 * 0.1, rtol=1e-14)


class TestOneLoadOperator:
    """make_load takes the source's terms once at every load point and
    applies one block-diagonal operator to the standard and the fixed
    enriched points; the load of the terms taken per point set and
    concatenated (helpers.separate_load) is the oracle."""

    @pytest.mark.parametrize("kind, t_max", [(None, 1.0), ("phi_m1_lin", 1.0), ("phi0_tilde", 1.0), ("phi0_tilde", None)])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_bit_identical_to_separate_bindings(self, dim, kind, t_max):
        eps, dt, T = 1e-5, 0.1, 1.0
        mesh = build_interval_mesh(50) if dim == 1 else build_disk_mesh(26)
        if kind is None:
            space = build_space(mesh)
            system = assemble_standard(space, eps)
        else:
            sigma = (mesh.h if dim == 1 else min(3.0 * mesh.outer_ring_width, 0.5)) if kind == "phi_m1_lin" else None
            space = build_space(mesh, EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma))
            system = assemble_enriched(space, eps, t_max=t_max)
        # the fixed kind has no moving point; phi0_tilde split at T has both
        assert (len(system.moving_rows) > 0) == (kind == "phi0_tilde")
        source = ExactSolution1D(eps).source if dim == 1 else wavy_source
        got, want = system.parts["make_load"](source), separate_load(space, system, t_max)(source)
        for t in (0.0, dt, T):
            phi = system.parts["rebuild"](t).phi
            a, b = got(t, phi), want(t, phi)
            assert len(a) == space.total_dofs and np.any(b[space.n_standard :] != 0.0) == (kind is not None)
            assert a.tobytes() == b.tobytes()


class TestLoadFromTerms:
    """make_load forms each term's L v_k once per march and a step sums
    tau_k(t) * L v_k, against the per-point path: the load of the closed
    form's values f(., t) (helpers.frozen), in the plain space and in the
    phi0_tilde space split at T = 1, which has fixed and moving points."""

    @pytest.mark.parametrize("dim, level", [(1, 50), (1, 800), (2, 26), (2, 104)])
    def test_load_matches_per_point_quadrature(self, dim, level):
        # Summing the terms after the mat-vecs instead of before them
        # reorders a sum over points and terms, so an entry moves by rounding
        # relative to sum_p |L_ip| sum_k |tau_k(t) v_k,p|; that is
        # sum_p |L_ip f_p| for one term.  Measured: at most 7.8 ulps (2D,
        # B = 104), so 16 ulps.
        eps, ulps = 1e-5, 16 * 2.0**-52
        mesh = build_interval_mesh(level) if dim == 1 else build_disk_mesh(level)
        plain, space = build_space(mesh), build_space(mesh, EnrichmentSpec(kind="phi0_tilde", epsilon=eps))
        standard, system = assemble_standard(plain, eps), assemble_enriched(space, eps, t_max=1.0)
        per_point, split = separate_load(space, system, 1.0), operator_split(space, 1.0)
        k, n = split.le_fixed.shape[1], space.n_standard
        assert k > 0 and split.le_moving.shape[1] > 0
        for name, source, f in sources(dim, eps):
            def magnitude(*coords_t):
                return sum(abs(tau(coords_t[-1])) * np.abs(v) for tau, v in source(*coords_t[:-1]))

            plain_load, load = standard.parts["make_load"](source), system.parts["make_load"](source)
            for t in (0.0, 0.37, 1.0):
                phi = system.parts["rebuild"](t).phi
                # the terms sum to the closed form bit for bit at every load point
                for coords in (standard.load_coords, split.coords):
                    assert source_values(source(*coords), t).tobytes() == f(*coords, t).tobytes(), name
                # each load entry within a few ulps of the per-point one
                for got, want, scale in (
                    (plain_load(t), *(_reference_standard_load(plain, frozen(g, t), t) for g in (f, magnitude))),
                    (load(t, phi), *(per_point(frozen(g, t))(t, phi) for g in (f, magnitude))),
                ):
                    assert np.all(np.abs(got - want) <= ulps * scale), (name, t)
                # one term of factor 1, as the projection binds u0, loads bit
                # for bit as the per-point path
                once = frozen(f, t)
                assert standard.parts["make_load"](once)(t).tobytes() == _reference_standard_load(plain, once, t).tobytes()
                assert system.parts["make_load"](once)(t, phi).tobytes() == per_point(once)(t, phi).tobytes()
                # the moving points' part reads the per-point values f(., t)
                moving = split.le_moving @ (phi[split.moving_points] * f(*(c[k:] for c in split.coords), t))
                fixed = source_values(applied(split.le_fixed, _spatial_values(source, split.coords), slice(k)), t)
                assert load(t, phi)[n:].tobytes() == (fixed + moving).tobytes(), (name, t)


def _reference_standard_1d(space, epsilon):
    """P1 mass and stiffness on an interval mesh, element by element."""
    nd = space.node_to_dof
    rows, cols, mvals, avals = [], [], [], []
    for i, j in space.mesh.elements:
        h = space.mesh.nodes[j] - space.mesh.nodes[i]
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
    return (
        sp.csr_matrix((mvals, (rows, cols)), shape=(n, n)),
        sp.csr_matrix((avals, (rows, cols)), shape=(n, n)),
    )


class TestStandard1DBatched:
    @pytest.mark.parametrize("n", [2, 50, 800])
    @pytest.mark.parametrize("eps", [1e-3, 1e-8])
    def test_matches_per_element_loop(self, n, eps):
        space = _space_1d(n)
        for got, want in zip(_assemble_standard_1d(space, eps), _reference_standard_1d(space, eps)):
            assert np.array_equal(got.data, want.data)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.indptr, want.indptr)

    def test_degenerate_element_rejected(self):
        space = _space_1d(4)
        space.mesh.nodes[2] = space.mesh.nodes[1]
        with pytest.raises(AssemblyError, match="degenerate element"):
            _assemble_standard_1d(space, 1e-3)


# ---------------------------------------------------------------------------
# the 1D enriched mass matrix: SPD for every kind, and equal to an
# element-by-element assembly


KINDS = ["phi_m1_lin", "phi_m1", "phi0", "phi0_tilde"]


def _spec_1d(kind, eps, n):
    # the solver's default taper width for phi_m1_lin is one element
    return EnrichmentSpec(kind=kind, epsilon=eps, sigma=1.0 / n if kind == "phi_m1_lin" else None)


def _aligned_mass_1d(space, t):
    """The enriched 1D mass matrix element by element: on each element the
    hat, phi(x) and phi(1 - x) products are integrated with Gauss panels
    split at the layer breakpoints that fall inside it."""
    spec, mesh = space.enrichment, space.mesh
    n = space.n_standard
    layer = geometric_panels(spec.support, RAD_N_SUB, np.sqrt(4.0 * spec.epsilon))
    layer = np.concatenate([layer, 1.0 - layer])
    mass = np.zeros((n + 2, n + 2))
    for i, j in mesh.elements:
        a, b = mesh.nodes[i], mesh.nodes[j]
        h = b - a
        dofs = [space.node_to_dof[i], space.node_to_dof[j]]
        rule = composite_interval(np.concatenate([[a], np.sort(layer[(layer > a) & (layer < b)]), [b]]), RAD_N_GAUSS)
        x, w = rule.points, rule.weights
        hats = [(b - x) / h, (x - a) / h]
        phis = [enrichment_profile(spec, x, t)[0], enrichment_profile(spec, 1.0 - x, t)[0]]
        for r in range(2):
            for c in range(2):
                if dofs[r] >= 0 and dofs[c] >= 0:
                    mass[dofs[r], dofs[c]] += h / 3.0 if r == c else h / 6.0
                mass[n + r, n + c] += np.dot(w, phis[r] * phis[c])
            for k, phi in enumerate(phis):
                if dofs[r] >= 0:
                    mass[dofs[r], n + k] += np.dot(w, hats[r] * phi)
                    mass[n + k, dofs[r]] += np.dot(w, hats[r] * phi)
    return mass


class TestEnrichedMass1D:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-8])
    @pytest.mark.parametrize("n", [50, 200])
    def test_symmetric_positive_definite(self, kind, eps, n):
        space = _space_1d(n, _spec_1d(kind, eps, n))
        system = assemble_enriched(space, eps)
        times = (0.1, 0.5, 1.0) if space.enrichment.time_dependent else (1.0,)
        for t in times:
            mass = _stacked(system, t)[0].toarray()
            assert np.array_equal(mass, mass.T)
            assert np.linalg.eigvalsh(mass)[0] > 0.0, (kind, eps, n, t)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    @pytest.mark.parametrize("n", [10, 50])
    def test_matches_element_aligned_reference(self, kind, eps, n):
        space = _space_1d(n, _spec_1d(kind, eps, n))
        system = assemble_enriched(space, eps)
        for t in (0.5, 1.0):
            mass = _stacked(system, t)[0].toarray()
            want = _aligned_mass_1d(space, t)
            assert np.max(np.abs(mass - want)) <= 1e-12 * np.max(np.abs(want)), (kind, eps, n, t)

    @pytest.mark.parametrize("eps", [1e-5, 1e-8])
    @pytest.mark.parametrize("n", [50, 200, 800])
    def test_no_sliver_panels(self, eps, n, monkeypatch):
        # a node x and the mirror 1 - x of another one an ulp away make one
        # break: every panel is wider than 1e-12, and every node and mirror
        # inside the support still lies on a break
        import blfem.assembly as assembly

        seen = []
        monkeypatch.setattr(assembly, "composite_interval", lambda b, g: seen.append(b) or composite_interval(b, g))
        space = _space_1d(n, _spec_1d("phi_m1", eps, n))
        assemble_enriched(space, eps)
        (breaks,) = seen
        assert breaks[0] == 0.0 and breaks[-1] == space.enrichment.support
        assert np.diff(breaks).min() > 1e-12
        kinks = np.concatenate([space.mesh.nodes, 1.0 - space.mesh.nodes])
        kinks = kinks[(kinks > 0.0) & (kinks < space.enrichment.support)]
        assert np.abs(kinks[:, None] - breaks[None, :]).min(axis=1).max() <= 1e-12


class TestEnrichedSpd2D:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("eps", [1e-5, 1e-8])
    @pytest.mark.parametrize("b", [16, 52])
    def test_symmetric_positive_definite(self, kind, eps, b):
        mesh = build_disk_mesh(b)
        # the solver's default taper width for phi_m1_lin: three ring widths
        sigma = min(3.0 * mesh.outer_ring_width, 0.5) if kind == "phi_m1_lin" else None
        space = build_space(mesh, EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma))
        system = assemble_enriched(space, eps)
        times = (0.1, 0.5, 1.0) if space.enrichment.time_dependent else (1.0,)
        for t in times:
            for matrix in _stacked(system, t):
                dense = matrix.toarray()
                assert np.array_equal(dense, dense.T)
                assert np.linalg.eigvalsh(dense)[0] > 0.0, (kind, eps, b, t)


def _unique_coupling_pattern(space, dof, col):
    """The coupling pattern and block by np.unique over the kept keys and
    searchsorted into them: the rule that the presence count replaced."""
    n, m = space.n_standard, space.n_enriched
    key = dof * m + col
    keep = np.broadcast_to(dof >= 0, key.shape).copy()
    key = key[keep]
    keys = np.unique(key)
    block = sp.csr_matrix((keys, keys % m, np.searchsorted(keys // m, np.arange(n + 1))), shape=(n, m))
    rows = np.searchsorted(keys, key)
    return point_pattern(rows, keep.sum(axis=(1, 2)), len(keys), np.flatnonzero(keep)), block


def _assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


class TestCouplingPatternOracle:
    @pytest.mark.parametrize(
        "dim, level, kind",
        [(1, 20, "phi0"), (1, 40, "phi_m1_lin"), (2, 16, "phi0_tilde"), (2, 16, "phi_m1_lin"), (2, 26, "phi0")],
    )
    def test_coupling_operators_identical_to_unique_oracle(self, dim, level, kind):
        # with no split time every point of phi0 and phi0_tilde moves, so
        # their moving operators are the operators over every point
        import blfem.assembly as assembly

        mesh = build_interval_mesh(level) if dim == 1 else build_disk_mesh(level)
        sigma = (mesh.h if dim == 1 else min(3.0 * mesh.outer_ring_width, 0.5)) if kind == "phi_m1_lin" else None
        space = build_space(mesh, EnrichmentSpec(kind=kind, epsilon=1e-5, sigma=sigma))
        layout = None if dim == 1 else element_rules_2d(mesh, 1e-5)
        support = assembly._support_1d(space) if dim == 1 else assembly._support_2d(space, layout)

        # the support points lie in elements with boundary hats, whose
        # contributions are dropped
        elem = assembly._locate_1d(mesh.nodes, support.coords[0])[0] if dim == 1 else layout.element[: support.size]
        assert np.any(space.node_to_dof[mesh.elements[elem]] < 0)
        got = assembly._split(space, support, None)
        want = operator_split(space, None, layout, pattern=_unique_coupling_pattern)
        for name in ("block", "le_moving"):
            _assert_same_csr(getattr(got, name), getattr(want, name))
        _assert_same_csr(got.le_fixed, on_every_column(want.le_fixed, np.tile(want.moving, 3 - dim)))
        for a, b in zip(got.ops, want.ops):
            _assert_same_csr(a, b)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.base, want.base))

    def test_pattern_identical_to_unique_oracle_on_random_keys(self):
        # rows without any entry, repeated keys and dropped contributions:
        # the presence count's block and entry positions against np.unique's
        from blfem.assembly import _coupling_block, _coupling_keys

        rng = np.random.default_rng(3)
        for n, m, points in ((7, 5, 40), (30, 8, 200), (4, 3, 1)):
            space = dataclasses.make_dataclass("Space", ["n_standard", "n_enriched"])(n, m)
            dof = rng.integers(-1, n, size=(points, 3, 1))
            dof[dof == n // 2] = -1
            col = rng.integers(0, m, size=(points, 1, 2))
            keys = _coupling_keys(m, dof, col)[0]
            present = np.zeros(n * m, dtype=bool)
            present[keys] = True
            count, block = _coupling_block(present, n, m)
            _assert_same_csr(block, _unique_coupling_pattern(space, dof, col)[1])
            assert np.array_equal(count[keys], np.searchsorted(np.unique(keys), keys))
