"""Galerkin assembly: standard P1 blocks against closed forms, enriched
blocks against independent quadrature oracles, projection and evaluation."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import integrate as sp_integrate

from blfem.assembly import (
    AssemblyError,
    TriangleLocator,
    _check_gram,
    assemble_enriched,
    assemble_standard,
    build_space,
    element_rules_2d,
    evaluate_field_1d,
    evaluate_field_2d,
    evaluate_gradient_1d,
    evaluate_gradient_2d,
    fitted_arrays,
    project_initial,
    triangle_geometry,
    triangle_rule_points,
)
from blfem.corrector import EnrichmentSpec, enrichment_profile, enrichment_profile_dxi
from blfem.mesh import build_disk_mesh, build_interval_mesh


def _space_1d(n=10, spec=None):
    return build_space(build_interval_mesh(n), spec)


class TestStandard1D:
    def test_tridiagonal_closed_form(self):
        n, eps = 8, 1e-3
        h = 1.0 / n
        space = _space_1d(n)
        system = assemble_standard(space, eps)
        mass = system.mass.toarray()
        stiff = system.stiffness.toarray()
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
        resid = system.stiffness @ vals
        assert np.max(np.abs(resid[1:-1])) < 1e-12

    def test_epsilon_linearity(self):
        space = _space_1d(10)
        a1 = assemble_standard(space, 1e-3).stiffness.toarray()
        a2 = assemble_standard(space, 2e-3).stiffness.toarray()
        assert np.allclose(a2, 2.0 * a1, atol=1e-15)
        m1 = assemble_standard(space, 1e-3).mass.toarray()
        m2 = assemble_standard(space, 2e-3).mass.toarray()
        assert np.allclose(m1, m2, atol=1e-16)

    def test_load_vector_oracle(self):
        # f = x^2 is within the load rule's exactness degree
        n = 6
        space = _space_1d(n)
        system = assemble_standard(space, 1e-2)
        load = system.parts["make_load"](lambda x, t: x**2)(0.0)
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
        mass = assemble_standard(space, 1.0).mass.toarray()
        sums = mass.sum(axis=1)
        assert np.allclose(sums[1:-1], 1.0 / n, atol=1e-14)


class TestStandard2D:
    def test_symmetry_and_spd(self):
        space = build_space(build_disk_mesh(26))
        system = assemble_standard(space, 1e-2)
        mass = system.mass.toarray()
        stiff = system.stiffness.toarray()
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
        resid = system.stiffness @ vals
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
        total = float(ones @ (system.mass @ ones))
        # oracle through the independent load quadrature
        load = system.parts["make_load"](
            lambda x, y, t: evaluate_field_2d(space, ones, x, y)
        )(0.0)
        assert total == pytest.approx(float(load @ ones), rel=1e-10)

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
            pts, wts, bary = triangle_rule_points(tri, mask, 1e-6)
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
            pts, wts, _ = triangle_rule_points(tri, mask, 1e-4)
            assert np.dot(wts, f(pts[:, 0], pts[:, 1])) == pytest.approx(exact, rel=1e-10)


class TestEnriched1D:
    def test_gram_blocks_match_scipy_quad(self):
        eps, sigma = 1e-4, 0.1
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=sigma)
        space = _space_1d(20, spec)
        system = assemble_enriched(space, eps)
        mee, aee = system.parts["Mee"], system.parts["Aee"]
        phi2, _ = sp_integrate.quad(
            lambda x: float(enrichment_profile(spec, x)) ** 2, 0.0, sigma,
            epsabs=1e-14, limit=200,
        )
        dphi2, _ = sp_integrate.quad(
            lambda x: float(enrichment_profile_dxi(spec, x)) ** 2, 0.0, sigma,
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
        system = assemble_enriched(space, eps)
        msl = system.parts["Msl"].toarray()
        nodes = space.mesh.nodes
        for k in (0, 1):  # first two interior hats, near the left layer
            i = space.interior_nodes[k]
            hat = lambda x: np.clip(1.0 - np.abs(x - nodes[i]) * n, 0.0, 1.0)
            exact, _ = sp_integrate.quad(
                lambda x: float(enrichment_profile(spec, x)) * hat(x),
                0.0, sigma, epsabs=1e-14, limit=200,
            )
            assert msl[k, 0] == pytest.approx(exact, rel=1e-8)

    def test_right_profile_mirrors_left(self):
        eps, sigma = 1e-4, 0.1
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=sigma)
        space = _space_1d(20, spec)
        msl = assemble_enriched(space, eps).parts["Msl"].toarray()
        assert np.allclose(msl[:, 1], msl[::-1, 0], atol=1e-14)

    def test_coupling_vanishes_away_from_layers(self):
        eps, sigma = 1e-6, 0.05
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=sigma)
        space = _space_1d(40, spec)
        msl = assemble_enriched(space, eps).parts["Msl"].toarray()
        nodes = space.mesh.nodes[space.interior_nodes]
        far = (nodes > sigma + 0.025) & (nodes < 1.0 - sigma - 0.025)
        assert np.max(np.abs(msl[far])) == 0.0

    def test_full_system_spd_and_symmetric(self):
        eps = 1e-5
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=0.02)
        space = _space_1d(50, spec)
        system = assemble_enriched(space, eps)
        mass = system.mass.toarray()
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
    system = assemble_enriched(space, eps, t=1.0)
    return space, system, eps


class TestEnriched2D:
    def test_dof_layout(self, enriched):
        space, system, _ = enriched
        assert space.n_enriched == 26
        assert system.mass.shape == (space.total_dofs,) * 2

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
        for tri in mesh.triangles:
            if vert_r[tri].max() <= 1.0 - spec.support + 1e-12:
                continue
            mask = [int(v) in bset for v in tri]
            pts, wts, _ = triangle_rule_points(mesh.nodes[tri], mask, eps, n_sub=10, n_gauss=6)
            eta, xi, _ = fitted_arrays(pts[:, 0], pts[:, 1])
            phi = np.asarray(enrichment_profile(spec, xi, 1.0))
            panel = np.minimum((eta / deta).astype(int), m - 1)
            frac = eta / deta - panel
            for jj, psi_j in ((panel, 1.0 - frac), ((panel + 1) % m, frac)):
                for kk, psi_k in ((panel, 1.0 - frac), ((panel + 1) % m, frac)):
                    np.add.at(mee, (jj, kk), wts * phi**2 * psi_j * psi_k)
        # tolerance set by the angular hat kinks cutting through triangles:
        # neither rule aligns panels with them, capping agreement near 0.5%
        assert np.allclose(system.parts["Mee"], mee, rtol=1e-2, atol=1e-10)

    def test_gram_near_uniform_diagonal(self, enriched):
        # the profile is rotation invariant; the triangulation is only nearly
        # so (ring node counts vary), so diagonal entries agree to a few %
        _, system, _ = enriched
        diag = np.diag(system.parts["Mee"])
        assert np.all(diag > 0.0)
        assert np.ptp(diag) / diag.mean() < 0.05

    def test_coupling_vanishes_for_inner_nodes(self, enriched):
        space, system, _ = enriched
        msl = system.parts["Msl"].toarray()
        vert_r = np.hypot(*space.mesh.nodes[space.interior_nodes].T)
        inner = vert_r < 1.0 - space.enrichment.support - space.mesh.h
        assert np.max(np.abs(msl[inner])) == 0.0

    def test_full_system_spd(self, enriched):
        _, system, _ = enriched
        mass = system.mass.toarray()
        stiff = system.stiffness.toarray()
        assert np.max(np.abs(mass - mass.T)) < 1e-13
        assert np.linalg.eigvalsh(mass).min() > 0.0
        assert np.linalg.eigvalsh(stiff).min() > 0.0

    def test_enrichment_requires_ring_structure(self, tmp_path):
        from blfem.mesh import read_mesh, write_mesh

        mesh = build_disk_mesh(26)
        path = tmp_path / "m.txt"
        write_mesh(mesh, path)
        flat = read_mesh(path)  # ring structure lost
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
            got = evaluate_field_2d(space, coeffs, x, y, t=1.0)
            want = g(eta) * float(enrichment_profile(spec, 1.0 - r, 1.0))
            errs.append(np.max(np.abs(got - want)))
        assert errs[1] < errs[0] / 2.0  # at least first order in the angle


def _moving_space(dim, kind, eps):
    mesh = build_interval_mesh(20) if dim == 1 else build_disk_mesh(16)
    return build_space(mesh, EnrichmentSpec(kind=kind, epsilon=eps))


def _max_diff(a, b):
    return abs(a - b).max() if (a - b).nnz else 0.0


class TestTimeLevels:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["phi0_tilde", "phi0"])
    def test_restacked_level_matches_fresh_assembly(self, dim, kind):
        eps = 1e-4
        space = _moving_space(dim, kind, eps)
        parts = assemble_enriched(space, eps, t=0.0).parts
        for t in (0.3, 0.5):
            fresh = assemble_enriched(space, eps, t=t)
            level = parts["rebuild"](t)
            mass, stiff = parts["restack"](level)
            scale = abs(fresh.mass).max()
            assert _max_diff(mass, fresh.mass) <= 1e-14 * scale
            assert _max_diff(stiff, fresh.stiffness) <= 1e-14 * abs(fresh.stiffness).max()
            assert _max_diff(parts["cross_mass"](level, level), fresh.mass) <= 1e-14 * scale

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cross_mass_rows_at_new_level_columns_at_old(self, dim):
        eps = 1e-4
        space = _moving_space(dim, "phi0", eps)
        parts = assemble_enriched(space, eps, t=0.0).parts
        n = space.n_standard
        new, old = parts["rebuild"](0.5), parts["rebuild"](0.3)
        cross = parts["cross_mass"](new, old).toarray()
        mass_new = assemble_enriched(space, eps, t=0.5).mass.toarray()
        mass_old = assemble_enriched(space, eps, t=0.3).mass.toarray()
        assert np.array_equal(cross[:n, :n], mass_new[:n, :n])
        assert np.allclose(cross[:n, n:], mass_old[:n, n:], rtol=0.0, atol=1e-16)
        assert np.allclose(cross[n:, :n], mass_new[n:, :n], rtol=0.0, atol=1e-16)
        swapped = parts["cross_mass"](old, new).toarray()
        assert np.allclose(cross[n:, n:], swapped[n:, n:].T, rtol=0.0, atol=1e-16)
        if dim == 1:
            spec = space.enrichment
            want, _ = sp_integrate.quad(
                lambda x: float(enrichment_profile(spec, x, 0.5)) * float(enrichment_profile(spec, x, 0.3)),
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
    quad = element_rules_2d(mesh, spec.epsilon, triangles=np.nonzero(r_max > 1.0 - spec.support + 1e-12)[0])
    x, y = quad.points[:, 0], quad.points[:, 1]
    w, tri = quad.weights, quad.element
    eta, xi, r = fitted_arrays(x, y)
    phi = enrichment_profile(spec, xi, t)
    dphi = enrichment_profile_dxi(spec, xi, t)
    phi_old = enrichment_profile(spec, xi, t_old)
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


def _source(x, y, t):
    return (1.0 + x - 2.0 * y) * (1.0 + t)


class TestOperatorAssembly2D:
    @pytest.mark.parametrize("kind", ["phi0", "phi0_tilde", "phi_m1", "phi_m1_lin"])
    def test_level_matches_contribution_assembly(self, kind):
        eps = 1e-5
        mesh = build_disk_mesh(16)
        sigma = min(3.0 * mesh.outer_ring_width, 0.5) if kind == "phi_m1_lin" else None
        space = build_space(mesh, EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma))
        parts = assemble_enriched(space, eps, t=0.0).parts
        n = space.n_standard
        new, old = parts["rebuild"](0.5), parts["rebuild"](0.3)
        ref = _reference_blocks_2d(space, eps, 0.5, 0.3, _source)
        cross = parts["cross_mass"](new, old).toarray()
        got = dict(
            msl=new.msl.toarray(),
            asl=new.asl.toarray(),
            mee=new.mee,
            aee=new.aee,
            cee=cross[n:, n:],
            load=parts["make_load"](_source)(0.5, phi_vals=new.phi)[n:],
        )
        for name, want in ref.items():
            scale = np.max(np.abs(want))
            assert scale > 0.0, name
            assert np.max(np.abs(got[name] - want)) <= 1e-14 * scale, name
        assert np.array_equal(new.msl.indices, old.msl.indices)
        assert np.array_equal(new.msl.indptr, old.msl.indptr)


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
        rhs = system.parts["make_load"](lambda x, t: u0(x))(0.0)
        resid = np.linalg.norm(system.mass @ got - rhs) / np.linalg.norm(rhs)
        assert resid < 1e-10

    def test_time_dependent_projection_uses_standard_block_only(self):
        eps = 1e-4
        spec = EnrichmentSpec(kind="phi0_tilde", epsilon=eps)
        space = _space_1d(20, spec)
        system = assemble_enriched(space, eps, t=0.0)
        got = project_initial(space, system, lambda x: np.sin(np.pi * np.asarray(x)))
        assert np.all(got[space.n_standard :] == 0.0)

    def test_field_evaluation_reproduces_linear_2d(self):
        mesh = build_disk_mesh(26)
        space = build_space(mesh)
        nodes = mesh.nodes[space.interior_nodes]
        coeffs = 0.3 * nodes[:, 0] + 0.9 * nodes[:, 1]
        rng = np.random.default_rng(11)
        ang = rng.uniform(0.0, 2.0 * np.pi, 50)
        rad = rng.uniform(0.0, 0.85, 50)
        x, y = rad * np.cos(ang), rad * np.sin(ang)
        got = evaluate_field_2d(space, coeffs, x, y)
        assert np.allclose(got, 0.3 * x + 0.9 * y, atol=1e-12)
        grads = evaluate_gradient_2d(space, coeffs, x, y)
        assert np.allclose(grads, [0.3, 0.9], atol=1e-12)

    def test_field_evaluation_1d_with_enrichment(self):
        eps = 1e-4
        spec = EnrichmentSpec(kind="phi_m1_lin", epsilon=eps, sigma=0.1)
        space = _space_1d(10, spec)
        coeffs = np.zeros(space.total_dofs)
        coeffs[space.n_standard] = 2.0  # left enrichment only
        xs = np.array([0.0, 0.01, 0.05, 0.5, 0.99])
        want = 2.0 * np.asarray(enrichment_profile(spec, xs))
        assert np.allclose(evaluate_field_1d(space, coeffs, xs), want, atol=1e-14)
        wantg = 2.0 * np.asarray(enrichment_profile_dxi(spec, xs))
        assert np.allclose(evaluate_gradient_1d(space, coeffs, xs), wantg, atol=1e-12)


class TestTriangleLocator:
    def test_centroids_found_exactly(self):
        mesh = build_disk_mesh(26)
        loc = TriangleLocator(mesh)
        centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        tri_idx, bary = loc.locate(centroids[:, 0], centroids[:, 1])
        assert np.array_equal(tri_idx, np.arange(len(mesh.triangles)))
        assert np.allclose(bary, 1.0 / 3.0, atol=1e-10)

    def test_sliver_points_extrapolate(self):
        # mid-edge boundary points at radius 1 lie outside the polygon; the
        # locator must return the adjacent triangle with bary summing to 1
        mesh = build_disk_mesh(26)
        loc = TriangleLocator(mesh)
        ang = np.pi / 26.0  # between boundary nodes 0 and 1
        tri_idx, bary = loc.locate(np.array([np.cos(ang)]), np.array([np.sin(ang)]))
        assert tri_idx[0] >= 0
        assert bary.sum() == pytest.approx(1.0, abs=1e-10)
        assert bary.min() > -0.2  # mild extrapolation just outside the chord


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
