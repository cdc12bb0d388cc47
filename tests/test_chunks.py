"""The enriched assembly and the 2D read-out stream the support points in
chunks of assembly.CHUNK points.  The formulation with one operator column
per support point and the read-out on whole arrays (tests/helpers.py) are
their oracles, bit for bit at any chunk size, and the memory they allocate
beyond their results is bounded by the chunk, not by the point count."""

import numpy as np
import pytest

from blfem import analysis, assembly
from blfem.analysis import ExactSolution1D, ExactSolution2D
from blfem.assembly import _discrete_field, assemble_enriched, build_space, element_rules_2d
from blfem.corrector import ENRICHMENT_KINDS, EnrichmentSpec, enrichment_profile
from blfem.mesh import build_disk_mesh, build_interval_mesh
from helpers import block_diagonal, block_diagonal_load, on_every_column, operator_split, traced_transient, whole_field

# one chunk, a prime that cuts the point runs of triangles, and the default
CHUNKS = [10**9, 997, assembly.CHUNK]


def _space(dim, kind, level, eps):
    mesh = build_interval_mesh(level) if dim == 1 else build_disk_mesh(level)
    sigma = (mesh.h if dim == 1 else min(3.0 * mesh.outer_ring_width, 0.5)) if kind == "phi_m1_lin" else None
    return build_space(mesh, EnrichmentSpec(kind=kind, epsilon=eps, sigma=sigma))


def _same(got, want):
    """Bit for bit the same array, or CSR data, indices and indptr."""
    if hasattr(want, "indptr"):
        return got.shape == want.shape and all(_same(getattr(got, k), getattr(want, k)) for k in ("data", "indices", "indptr"))
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _source(*coords):
    values = sum(np.sin((i + 2.0) * c) for i, c in enumerate(coords))
    return lambda t: (1.0 + t) * values


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("t_max", [0.5, None])
@pytest.mark.parametrize("kind", ENRICHMENT_KINDS)
@pytest.mark.parametrize("dim, level", [(1, 50), (2, 16)])
class TestChunkedAssemblyAgainstOperators:
    def test_split_identical(self, dim, level, kind, t_max, chunk, monkeypatch):
        # the fixed points' base block data, the moving points' operators
        # and xi, and the load operators; the fixed load over every load
        # column of the support (1D: p, then 1 - p)
        monkeypatch.setattr(assembly, "CHUNK", chunk)
        space = _space(dim, kind, level, 1e-5)
        layout = element_rules_2d(space.mesh, 1e-5) if dim == 2 else None
        support = assembly._support_1d(space) if dim == 1 else assembly._support_2d(space, layout)
        got, want = assembly._split(space, support, t_max), operator_split(space, t_max, layout)
        assert _same(got.xi, want.xi[want.moving])
        for name in ("moving", "block", "le_moving"):
            assert _same(getattr(got, name), getattr(want, name)), name
        assert _same(got.le_fixed, on_every_column(want.le_fixed, np.tile(want.moving, 3 - dim)))
        assert len(got.base) == len(want.base) == 4 and all(map(_same, got.base, want.base))
        assert len(got.ops) == len(want.ops) == 5 and all(map(_same, got.ops, want.ops))

    def test_system_identical(self, dim, level, kind, t_max, chunk, monkeypatch):
        # the moving rows, and the load and the moving profile values of each
        # level; the load against one block-diagonal operator over the
        # standard and the fixed points, the source bound to all at once
        monkeypatch.setattr(assembly, "CHUNK", chunk)
        space = _space(dim, kind, level, 1e-5)
        layout = element_rules_2d(space.mesh, 1e-5) if dim == 2 else None
        system = assemble_enriched(space, 1e-5, t_max=t_max, layout=layout)
        want = operator_split(space, t_max, layout)
        assert _same(system.moving_rows, want.moving_rows)
        coords = tuple(np.concatenate([s, c]) for s, c in zip(system.load_coords, want.coords))
        moving = want.le_moving if want.moving.any() else None
        load = system.parts["make_load"](_source)
        op = block_diagonal(system.load_op, want.le_fixed)
        want_load = block_diagonal_load(coords, op, moving, want.moving_points)(_source)
        for t in (0.25, 0.5):
            level = system.parts["rebuild"](t)
            assert _same(level.phi, enrichment_profile(space.enrichment, want.xi[want.moving], t)[0])
            assert _same(load(t, level.phi), want_load(t, level.phi))


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kind", ENRICHMENT_KINDS)
def test_read_out_identical_to_whole_arrays(kind, chunk, monkeypatch):
    # on the run's layout, and at points in any order; at t = 0 (the limit
    # of the time-dependent profiles), 0.5 and 1
    monkeypatch.setattr(assembly, "CHUNK", chunk)
    space = _space(2, kind, 16, 1e-5)
    layout = element_rules_2d(space.mesh, 1e-5)
    coeffs = np.random.default_rng(5).standard_normal(space.total_dofs)
    order = np.random.default_rng(6).permutation(len(layout.weights))
    reads = [(layout.points, layout.element, layout.bary), (layout.points[order], layout.element[order], layout.bary[order])]
    for t in (0.0, 0.5, 1.0):
        for points, element, bary in reads:
            got = _discrete_field(space, coeffs, points, element, bary, t)
            assert all(map(_same, got, whole_field(space, coeffs, points, element, bary, t))), t


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kind", ["phi_m1_lin", "phi0_tilde"])
def test_fitted_coordinates_formed_once_per_pass(kind, chunk, monkeypatch):
    # a 2D enriched assembly passes each support point through fitted_arrays
    # twice (its keys pass, then its terms pass, fixed and moving points
    # alike), and the read-out of the layout passes each one once
    monkeypatch.setattr(assembly, "CHUNK", chunk)
    space = _space(2, kind, 16, 1e-5)
    layout = element_rules_2d(space.mesh, 1e-5)
    seen, real = [], assembly.fitted_arrays

    def counted(x, y):
        seen.append(np.column_stack([x, y]))
        return real(x, y)

    def passed():  # each point met, as often as it was met, in one order
        points = np.concatenate(seen)
        seen.clear()
        return points[np.lexsort(points.T)]

    monkeypatch.setattr(assembly, "fitted_arrays", counted)
    support = layout.points[: assembly._support_2d(space, layout).size]
    passed_once = support[np.lexsort(support.T)]
    assemble_enriched(space, 1e-5, t_max=0.5, layout=layout)
    assert np.array_equal(passed(), np.repeat(passed_once, 2, axis=0))
    _discrete_field(space, np.ones(space.total_dofs), layout.points, layout.element, layout.bary, 0.5)
    assert np.array_equal(passed(), passed_once)


def _whole_error_integrals(exact, t, layout, field):
    # the error report's sums with the exact solution at every point at once
    uh, guh = field
    ue, gue = exact.value_and_grad(*np.atleast_2d(layout.points.T), t)
    w = layout.weights
    sums = np.dot(w, (uh - ue) ** 2), np.dot(w, ue**2), np.dot(w, np.sum((guh - gue) ** 2, axis=1))
    return (*map(float, sums), ue)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("dim, level", [(1, 50), (2, 16)])
def test_error_integrals_identical_to_whole_arrays(dim, level, chunk, monkeypatch):
    # the exact solution evaluated by chunks, and the three sums over it
    monkeypatch.setattr(assembly, "CHUNK", chunk)
    space = _space(dim, "phi0_tilde", level, 1e-5)
    layout = analysis._element_rules(space.mesh, 1e-5)
    exact = (ExactSolution1D if dim == 1 else ExactSolution2D)(1e-5)
    coeffs = np.random.default_rng(7).standard_normal(space.total_dofs)
    field = _discrete_field(space, coeffs, layout.points, layout.element, layout.bary, 0.5)
    got, want = analysis._error_integrals(exact, 0.5, layout, field), _whole_error_integrals(exact, 0.5, layout, field)
    assert got[:3] == want[:3] and _same(got[3], want[3])


class TestMemoryBoundedByTheChunk:
    """tracemalloc's count of what a call allocates beyond its result, at
    B = 52 and eps = 1e-8 (72,864 support points): the chunked code keeps
    below 35 % of its whole-array oracle's, and the error sums, whose
    squared differences are whole arrays, below 50 %."""

    @pytest.mark.parametrize("kind", ["phi_m1_lin", "phi0_tilde"])
    def test_enriched_assembly(self, kind):
        space = _space(2, kind, 52, 1e-8)
        layout = element_rules_2d(space.mesh, 1e-8)
        _, oracle = traced_transient(lambda: operator_split(space, 1.0, layout))
        _, chunked = traced_transient(lambda: assemble_enriched(space, 1e-8, t_max=1.0, layout=layout))
        assert chunked < 0.35 * oracle, (chunked, oracle)

    def test_read_out(self):
        space = _space(2, "phi_m1_lin", 52, 1e-8)
        layout = element_rules_2d(space.mesh, 1e-8)
        args = space, np.ones(space.total_dofs), layout.points, layout.element, layout.bary, 1.0
        _, oracle = traced_transient(lambda: whole_field(*args))
        _, chunked = traced_transient(lambda: _discrete_field(*args))
        assert chunked < 0.35 * oracle, (chunked, oracle)

    def test_error_integrals(self):
        space = _space(2, "phi0_tilde", 52, 1e-8)
        layout = analysis._element_rules(space.mesh, 1e-8)
        field = _discrete_field(space, np.ones(space.total_dofs), layout.points, layout.element, layout.bary, 1.0)
        args = ExactSolution2D(1e-8), 1.0, layout, field
        _, oracle = traced_transient(lambda: _whole_error_integrals(*args))
        _, chunked = traced_transient(lambda: analysis._error_integrals(*args))
        assert chunked < 0.5 * oracle, (chunked, oracle)
