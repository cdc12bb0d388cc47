"""Deterministic interval meshes and quasi-uniform triangulations of the
unit disk built from concentric node rings.  The rings are what enriched
2D assembly ties its angular hats to; boundary-fitted coordinates live in
`assembly.fitted_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Mesh1D:
    nodes: np.ndarray        # sorted, nodes[0] = 0, nodes[-1] = 1
    elements: np.ndarray     # (n, 2) consecutive index pairs
    h: float

    @property
    def boundary_nodes(self):
        return np.array([0, len(self.nodes) - 1])

    @property
    def dim(self):
        return 1


@dataclass(frozen=True)
class Mesh2D:
    nodes: np.ndarray            # (n, 2)
    triangles: np.ndarray        # (m, 3) CCW index triples
    boundary_nodes: np.ndarray   # indices on the unit circle
    rings: tuple = ()            # per-ring node index arrays, boundary first
    h: float = 0.0               # max triangle diameter
    min_angle_deg: float = 0.0
    quasi_uniformity: float = 0.0  # h / min inscribed-circle diameter
    outer_ring_width: float = 0.0  # radial width of the outermost ring

    @property
    def elements(self):
        return self.triangles

    @property
    def dim(self):
        return 2


def build_interval_mesh(n_elements: int) -> Mesh1D:
    """Uniform mesh of [0, 1] with h = 1/n_elements."""
    if n_elements < 2:
        raise ValueError("n_elements must be >= 2")
    nodes = np.linspace(0.0, 1.0, n_elements + 1)
    elems = np.column_stack([np.arange(n_elements), np.arange(1, n_elements + 1)])
    return Mesh1D(nodes=nodes, elements=elems, h=1.0 / n_elements)


def _ring_angles(count):
    return 2.0 * np.pi * np.arange(count) / count


def _zip_rings(outer_ids, inner_ids):
    """Triangulate the annular band between two rings of node indices by an
    angular merge sweep.  Nodes are assumed equally spaced per ring starting
    at angle 0; ties advance the outer ring first."""
    n_a, n_b = len(outer_ids), len(inner_ids)
    tris = []
    i = j = 0
    while i < n_a or j < n_b:
        pos_a = (i + 1) / n_a if i < n_a else np.inf
        pos_b = (j + 1) / n_b if j < n_b else np.inf
        if pos_a <= pos_b:
            tris.append((outer_ids[i], outer_ids[(i + 1) % n_a], inner_ids[j % n_b]))
            i += 1
        else:
            tris.append((outer_ids[i % n_a], inner_ids[(j + 1) % n_b], inner_ids[j]))
            j += 1
    return tris


def doubled_signed_areas(v):
    """Twice the signed area of each triangle of v (t, 3, 2), > 0 if counterclockwise."""
    return (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1]) - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])


def _triangle_stats(nodes, tris):
    p = nodes[tris]
    e0 = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    e1 = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
    e2 = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
    area = 0.5 * np.abs(doubled_signed_areas(p))
    diam = np.maximum(np.maximum(e0, e1), e2)
    incircle = 4.0 * area / (e0 + e1 + e2)  # 2 * inradius
    angles = []
    for a, b, c in ((e0, e1, e2), (e1, e2, e0), (e2, e0, e1)):
        cosang = np.clip((b**2 + c**2 - a**2) / (2.0 * b * c), -1.0, 1.0)
        angles.append(np.arccos(cosang))
    min_angle = np.degrees(np.min(angles))
    return float(diam.max()), float(min_angle), float(diam.max() / incircle.min())


# Radial ring spacing as a fraction of the boundary node spacing.  Chosen so
# that 52 boundary nodes produce a triangle count close to 1000 while all
# angles stay well above 20 degrees.
RADIAL_FACTOR = 0.48


def build_disk_mesh(boundary_node_count: int) -> Mesh2D:
    """Ring-structured quasi-uniform triangulation of the unit disk.

    Ring k sits at radius 1 - k*dr and holds round(boundary_node_count * r_k)
    equally spaced nodes; once a ring would drop below 8 nodes the remaining
    disk is closed with a fan around a center node.
    """
    if boundary_node_count < 8:
        raise ValueError("boundary_node_count must be >= 8")
    b = boundary_node_count
    dr = RADIAL_FACTOR * 2.0 * np.pi / b

    nodes = []
    rings = []
    k = 0
    while True:
        r = 1.0 - k * dr
        count = int(round(b * r)) if k > 0 else b
        if k > 0 and (count < 8 or r < 0.5 * dr):
            break
        angles = _ring_angles(count)
        start = len(nodes)
        nodes.extend(zip(r * np.cos(angles), r * np.sin(angles)))
        rings.append(np.arange(start, start + count))
        k += 1

    center = len(nodes)
    nodes.append((0.0, 0.0))
    nodes = np.array(nodes)

    tris = []
    for outer, inner in zip(rings[:-1], rings[1:]):
        tris.extend(_zip_rings(outer, inner))
    last = rings[-1]
    for j in range(len(last)):
        tris.append((last[j], last[(j + 1) % len(last)], center))
    tris = np.array(tris, dtype=int)

    # enforce CCW orientation
    flip = doubled_signed_areas(nodes[tris]) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]

    h, min_angle, quality = _triangle_stats(nodes, tris)
    return Mesh2D(
        nodes=nodes,
        triangles=tris,
        boundary_nodes=rings[0].copy(),
        rings=tuple(r.copy() for r in rings),
        h=h,
        min_angle_deg=min_angle,
        quasi_uniformity=quality,
        outer_ring_width=dr,
    )
