"""Structured square background mesh, cell classification, ghost facets.

The background mesh is a uniform grid of axis-aligned square cells over a
square box given by its two corners; `translate_box` shifts the corners by a
fraction of a cell for the cut-translation sweep.  Classification against an
implicit domain probes a uniform point grid per cell and refines the verdict
for candidate cut cells with one batched marching-triangles clip of all of
them (`geometry.clip_cells`), demoting slivers whose inside area is
negligible.  The active mesh keeps the flat clips of its cut cells, from
which `geometry.build_cut_rules` makes the cut rules; `ActiveMesh.clip_for`
returns one cut cell's clip as a one-cell `Clips`.  Mesh objects are
immutable after construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigurationError
from .geometry import SLIVER_FRACTION, Clips, LevelSetDomain, clip_cells

logger = logging.getLogger(__name__)


class CellTag(IntEnum):
    OUTSIDE = 0
    INTERIOR = 1
    CUT = 2


def translate_box(box_lo, box_hi, n: int, delta: float):
    """The corners of the n-cell box shifted by delta*h along both axes.

    The geometry stays fixed; h = (box_hi[0] - box_lo[0]) / n.
    """
    if delta < 0:
        raise ConfigurationError(f"translation delta must be >= 0, got {delta}")
    s = delta * ((box_hi[0] - box_lo[0]) / n)
    return (box_lo[0] + s, box_lo[1] + s), (box_hi[0] + s, box_hi[1] + s)


class BackgroundMesh:
    """Uniform n-by-n grid of square cells with facet adjacency.

    Cells are numbered ix*n + iy (x-major); facets know their normal axis
    and their two neighbor cells (-1 outside the box).
    """

    def __init__(self, box_lo, box_hi, n: int):
        box_lo = np.asarray(box_lo, dtype=float)
        box_hi = np.asarray(box_hi, dtype=float)
        if not np.all(box_hi > box_lo):
            raise ConfigurationError("box_hi must exceed box_lo componentwise")
        ext = box_hi - box_lo
        if abs(ext[0] - ext[1]) > 1e-12 * max(ext):
            raise ConfigurationError(f"box must be square, got extents {ext.tolist()}")
        if n < 2:
            raise ConfigurationError(f"need at least 2 cells per axis, got {n}")
        self.box_lo = box_lo
        self.box_hi = box_hi
        self.n = int(n)
        self.h = float(ext[0]) / n
        self.n_cells = n * n
        self._build_facets()

    def _build_facets(self):
        n = self.n
        # vertical facets (normal = x): grid line ix in 0..n, row iy in 0..n-1
        ix, iy = np.meshgrid(np.arange(n + 1), np.arange(n), indexing="ij")
        ix, iy = ix.ravel(), iy.ravel()
        v_minus = np.where(ix > 0, (ix - 1) * n + iy, -1)
        v_plus = np.where(ix < n, ix * n + iy, -1)
        # horizontal facets (normal = y): column ix in 0..n-1, line iy in 0..n
        jx, jy = np.meshgrid(np.arange(n), np.arange(n + 1), indexing="ij")
        jx, jy = jx.ravel(), jy.ravel()
        h_minus = np.where(jy > 0, jx * n + (jy - 1), -1)
        h_plus = np.where(jy < n, jx * n + jy, -1)

        self.facet_axis = np.concatenate([
            np.zeros(len(v_minus), dtype=np.int8),
            np.ones(len(h_minus), dtype=np.int8),
        ])
        self.facet_cells = np.concatenate([
            np.column_stack([v_minus, v_plus]),
            np.column_stack([h_minus, h_plus]),
        ]).astype(np.int64)

    @property
    def interior_facets(self) -> np.ndarray:
        return np.flatnonzero((self.facet_cells >= 0).all(axis=1))

    def cell_origin(self, c) -> np.ndarray:
        """Lower-left corner of cell(s) c; vectorized over arrays."""
        c = np.asarray(c)
        ix, iy = c // self.n, c % self.n
        return self.box_lo + self.h * np.stack([ix, iy], axis=-1).astype(float)


def build_mesh(box_lo, box_hi, n: int) -> BackgroundMesh:
    """Uniform square background mesh; h = side/n."""
    return BackgroundMesh(box_lo, box_hi, n)


@dataclass(frozen=True)
class ActiveMesh:
    """Classification of a background mesh against an implicit domain.

    Active cells are the interior and cut ones; ghost facets are the
    interior facets with two active neighbors of which at least one is cut.
    `clips` holds the clip of each cut cell, in `cut_cells` order; its
    `subdiv` is the depth each was clipped at, above `subdiv` where the
    clip escalated.  `sliver_cells` are the candidates demoted to outside.
    """

    mesh: BackgroundMesh
    tags: np.ndarray
    active_cells: np.ndarray
    interior_cells: np.ndarray
    cut_cells: np.ndarray
    ghost_facets: np.ndarray
    subdiv: int
    clips: Clips
    sliver_cells: np.ndarray

    def clip_for(self, c: int) -> Clips | None:
        """The one-cell `Clips` of cut cell c, None for other cells."""
        i = int(np.searchsorted(self.cut_cells, c))
        if i == len(self.cut_cells) or self.cut_cells[i] != c:
            return None
        return self.clips.cell(i)

    @property
    def n_active(self) -> int:
        return len(self.active_cells)


def classify(mesh: BackgroundMesh, dom: LevelSetDomain, n_probe: int = 8,
             subdiv: int = 3) -> ActiveMesh:
    """Tag every cell OUTSIDE / INTERIOR / CUT against the domain.

    A cell is interior when the membership function is negative at every
    probe point, outside when positive everywhere, cut otherwise.  Candidate
    cut cells are then clipped together; cells whose inside-area fraction
    falls below the sliver tolerance are demoted to outside (one warning
    lists them), and cells the clip finds entirely inside are promoted to
    interior.
    """
    if n_probe < 2:
        raise ConfigurationError(f"n_probe must be >= 2, got {n_probe}")
    n = mesh.n
    t = np.linspace(0.0, 1.0, n_probe)
    PX, PY = np.meshgrid(t, t, indexing="ij")
    offsets = np.column_stack([PX.ravel(), PY.ravel()])  # includes corners

    origins = mesh.cell_origin(np.arange(mesh.n_cells))
    pts = (origins[:, None, :] + mesh.h * offsets[None, :, :]).reshape(-1, 2)
    psi = dom.psi(pts).reshape(mesh.n_cells, -1)
    del pts  # the probe grid is the largest array here; the clip below needs room

    tags = np.full(mesh.n_cells, CellTag.CUT, dtype=np.int8)
    tags[(psi < 0.0).all(axis=1)] = CellTag.INTERIOR
    tags[(psi > 0.0).all(axis=1)] = CellTag.OUTSIDE

    candidates = np.flatnonzero(tags == CellTag.CUT)
    clips = clip_cells(mesh.cell_origin(candidates), mesh.h, dom, subdiv)
    h2 = mesh.h * mesh.h
    sliver = clips.area < SLIVER_FRACTION * h2
    full = (np.diff(clips.seg_off) == 0) & (clips.area >= (1.0 - SLIVER_FRACTION) * h2)
    slivers = candidates[sliver]
    if len(slivers):
        logger.warning("cells %s: sliver below tolerance, reclassified outside",
                       slivers.tolist())
    tags[slivers] = CellTag.OUTSIDE
    tags[candidates[full]] = CellTag.INTERIOR

    active = np.flatnonzero(tags != CellTag.OUTSIDE)
    interior = np.flatnonzero(tags == CellTag.INTERIOR)
    cut = np.flatnonzero(tags == CellTag.CUT)

    inter = mesh.interior_facets
    nb = mesh.facet_cells[inter]
    both_active = (tags[nb[:, 0]] != CellTag.OUTSIDE) & (tags[nb[:, 1]] != CellTag.OUTSIDE)
    any_cut = (tags[nb[:, 0]] == CellTag.CUT) | (tags[nb[:, 1]] == CellTag.CUT)
    ghost = inter[both_active & any_cut]

    return ActiveMesh(
        mesh=mesh,
        tags=tags,
        active_cells=active,
        interior_cells=interior,
        cut_cells=cut,
        ghost_facets=ghost,
        subdiv=subdiv,
        clips=clips.take(~(sliver | full)),
        sliver_cells=slivers,
    )

