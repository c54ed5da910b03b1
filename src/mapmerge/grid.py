"""Occupancy grids: text serialization, inside tests, ray casting, expected
views at a pose, and the likelihood-field scan model used to weight in-map
particles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt

from .views import ExtractionParams, RangeScan, ViewAlphabet, canonicalize
from . import views

FREE, OCCUPIED, UNKNOWN = 0, 1, 2
_CHAR_FOR = {FREE: ".", OCCUPIED: "#", UNKNOWN: "?"}
_CELL_FOR = {v: k for k, v in _CHAR_FOR.items()}

RAY_STEP_FRACTION = 0.5  # ray sampling step, in cell widths


def wrap_angle(theta):
    """Normalize angles to (-pi, pi]."""
    t = np.asarray(theta, dtype=float)
    out = -(np.mod(-t + np.pi, 2.0 * np.pi) - np.pi)
    return float(out) if np.isscalar(theta) else out


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.theta))):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "theta", wrap_angle(self.theta))


class MapParseError(ValueError):
    pass


class OccupancyGrid:
    """Rectangular cell grid.  origin is the world position of the corner of
    cell (row 0, col 0); world x grows with columns, y with rows."""

    def __init__(self, cells: np.ndarray, resolution: float, origin=(0.0, 0.0)):
        cells = np.asarray(cells, dtype=np.int8)
        if cells.ndim != 2:
            raise ValueError("cells must be a 2-D array")
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.cells = cells
        self.resolution = float(resolution)
        self.origin = (float(origin[0]), float(origin[1]))
        self._distance_field = None
        self._likelihood_tables: dict = {}

    @property
    def shape(self):
        return self.cells.shape

    def __eq__(self, other):
        return (isinstance(other, OccupancyGrid)
                and self.resolution == other.resolution
                and self.origin == other.origin
                and np.array_equal(self.cells, other.cells))

    def cell_of(self, x, y):
        col = math.floor((x - self.origin[0]) / self.resolution)
        row = math.floor((y - self.origin[1]) / self.resolution)
        return row, col

    def cell_center(self, row, col):
        return (self.origin[0] + (col + 0.5) * self.resolution,
                self.origin[1] + (row + 0.5) * self.resolution)

    def distance_field(self) -> np.ndarray:
        """Per-cell distance (meters) to the nearest OCCUPIED cell."""
        if self._distance_field is None:
            occ = self.cells == OCCUPIED
            if occ.any():
                self._distance_field = (
                    distance_transform_edt(~occ) * self.resolution)
            else:
                self._distance_field = np.full(self.cells.shape, np.inf)
        return self._distance_field

    def likelihood_table(self, params: ScanLikelihoodParams) -> np.ndarray:
        """Per-beam log-likelihood of an endpoint in each cell, flattened,
        with one last entry for endpoints off the grid (distance inf)."""
        table = self._likelihood_tables.get(params)
        if table is None:
            d = np.append(self.distance_field().ravel(), np.inf)
            table = np.log(params.z_hit * np.exp(-0.5 * (d / params.sigma_hit) ** 2)
                           + params.z_rand)
            self._likelihood_tables[params] = table
        return table


def dump_map(grid: OccupancyGrid) -> str:
    lines = [f"resolution {grid.resolution!r}",
             f"origin {grid.origin[0]!r} {grid.origin[1]!r}"]
    for row in grid.cells:
        lines.append("".join(_CHAR_FOR[int(c)] for c in row))
    return "\n".join(lines) + "\n"


def load_map(text: str) -> OccupancyGrid:
    lines = text.splitlines()
    if len(lines) < 3:
        raise MapParseError("map file needs a resolution line, an origin line, and rows")
    try:
        key, value = lines[0].split()
        assert key == "resolution"
        resolution = float(value)
    except (ValueError, AssertionError):
        raise MapParseError("line 1: expected 'resolution <meters>'") from None
    try:
        parts = lines[1].split()
        assert parts[0] == "origin" and len(parts) == 3
        origin = (float(parts[1]), float(parts[2]))
    except (ValueError, AssertionError):
        raise MapParseError("line 2: expected 'origin <x> <y>'") from None
    rows = []
    width = len(lines[2])
    for lineno, line in enumerate(lines[2:], start=3):
        if len(line) != width:
            raise MapParseError(f"line {lineno}: ragged row (expected width {width})")
        try:
            rows.append([_CELL_FOR[ch] for ch in line])
        except KeyError as exc:
            raise MapParseError(f"line {lineno}: unknown cell character {exc}") from None
    return OccupancyGrid(np.array(rows, dtype=np.int8), resolution, origin)


def is_inside(grid: OccupancyGrid, pose: Pose) -> bool:
    """A pose is inside the partial map iff its cell exists and is FREE."""
    row, col = grid.cell_of(pose.x, pose.y)
    h, w = grid.shape
    return 0 <= row < h and 0 <= col < w and grid.cells[row, col] == FREE


def inside_mask(grid: OccupancyGrid, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    cols = np.floor((xs - grid.origin[0]) / grid.resolution).astype(np.int64)
    rows = np.floor((ys - grid.origin[1]) / grid.resolution).astype(np.int64)
    h, w = grid.shape
    ok = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    out = np.zeros(xs.shape, dtype=bool)
    out[ok] = grid.cells[rows[ok], cols[ok]] == FREE
    return out


def _ray_samples(grid: OccupancyGrid, x: float, y: float, angles: np.ndarray,
                 max_range: float):
    """Sample cell states along each ray.  Returns (ts, states, flat, ok):
    sample distances, states of shape (n_rays, n_steps) with samples off the
    grid read as FREE, each sample's index into the flattened cells, and
    whether the sample lies on the grid."""
    step = grid.resolution * RAY_STEP_FRACTION
    ts = np.arange(step, max_range + step, step)
    h, w = grid.shape
    # in place, in the order of x + cos * t, minus origin, over resolution;
    # the floored cell coordinates stay floats until the flat index
    cols = np.cos(angles)[:, None] * ts[None, :]
    cols += x
    cols -= grid.origin[0]
    cols /= grid.resolution
    np.floor(cols, out=cols)
    rows = np.sin(angles)[:, None] * ts[None, :]
    rows += y
    rows -= grid.origin[1]
    rows /= grid.resolution
    np.floor(rows, out=rows)
    ok = cols >= 0
    ok &= cols < w
    ok &= rows >= 0
    ok &= rows < h
    rows *= w
    rows += cols
    flat = rows.astype(np.intp)
    states = np.where(ok, grid.cells.ravel().take(flat, mode="clip"), FREE)
    return ts, states.astype(np.int8, copy=False), flat, ok


def raycast_full(grid: OccupancyGrid, pose: Pose, bearings: np.ndarray,
                 max_range: float):
    """Cast rays from a pose.  Returns (ranges, crossed_unknown): distance to
    the first OCCUPIED cell per bearing (max_range when nothing is hit), and
    whether the ray traversed any UNKNOWN cell before terminating.  UNKNOWN
    cells are transparent."""
    row, col = grid.cell_of(pose.x, pose.y)
    h, w = grid.shape
    if not (0 <= row < h and 0 <= col < w):
        raise ValueError("raycast pose is off the grid")
    angles = pose.theta + np.asarray(bearings, dtype=float)
    ts, states, _, _ = _ray_samples(grid, pose.x, pose.y, angles, max_range)
    occ = states == OCCUPIED
    hit_any = occ.any(axis=1)
    first = np.argmax(occ, axis=1)
    ranges = np.where(hit_any, ts[first], max_range)
    unknown = states == UNKNOWN
    stop = np.where(hit_any, first, len(ts))
    crossed_unknown = unknown.any(axis=1) & (np.argmax(unknown, axis=1) < stop)
    return ranges, crossed_unknown


def raycast(grid: OccupancyGrid, pose: Pose, bearings: np.ndarray,
            max_range: float) -> RangeScan:
    ranges, _ = raycast_full(grid, pose, bearings, max_range)
    return RangeScan(np.asarray(bearings, dtype=float), ranges, max_range)


def default_bearings(beam_count: int = 181, fov: float = math.pi) -> np.ndarray:
    return np.linspace(-fov / 2.0, fov / 2.0, beam_count)


def expected_view(grid: OccupancyGrid, pose: Pose, alphabet: ViewAlphabet,
                  params: ExtractionParams, bearings: np.ndarray | None = None,
                  max_range: float = 8.0, headings: np.ndarray | None = None,
                  memo: dict | None = None):
    """View id the partial map predicts at a pose.  Beams that crossed
    unexplored cells are reported as max-range, matching what the mapping
    robot could have seen from its frontier.

    With headings, returns one view id per heading at the pose's position
    (pose.theta is then ignored).  Their rays are cast once over the
    distinct ray angles.  memo maps a scan's first-hit sample indices to its
    view id; it is exact only while grid resolution, bearings, max_range,
    params and alphabet stay fixed, as within one ViewField build.
    """
    if not is_inside(grid, pose):
        raise ValueError("expected_view requires a pose inside the partial map")
    if bearings is None:
        bearings = default_bearings()
    bearings = views.readonly(bearings)  # shared by the scans built below
    if headings is None:
        thetas = np.array([pose.theta])
    else:
        thetas = wrap_angle(np.asarray(headings, dtype=float))
    uniq, inv = np.unique(thetas[:, None] + bearings[None, :], return_inverse=True)
    # at most one scan's worth of rays per call: the allocator reuses
    # temporaries that size, while one call over all angles measured ~1.7x
    # slower, mostly in page faults on fresh temporaries at every site
    origin = Pose(pose.x, pose.y, 0.0)
    ranges = np.empty(len(uniq))
    for lo in range(0, len(uniq), len(bearings)):
        part, crossed_unknown = raycast_full(grid, origin,
                                             uniq[lo:lo + len(bearings)], max_range)
        ranges[lo:lo + len(part)] = np.where(crossed_unknown, max_range, part)
    ranges = ranges[inv].reshape(len(thetas), len(bearings))
    # ranges are ray sample distances or max_range, so the rounded sample
    # number identifies a scan exactly; -1 stands for max_range
    step = grid.resolution * RAY_STEP_FRACTION
    keys = np.where(ranges == max_range, -1, np.rint(ranges / step))
    keys = keys.astype(np.int16 if max_range / step < 2**15 - 1 else np.int32)
    if memo is None:
        memo = {}
    out = np.empty(len(thetas), dtype=np.int64)
    for k, key in enumerate(keys):
        key = key.tobytes()
        vid = memo.get(key)
        if vid is None:
            scan = RangeScan(bearings, ranges[k], max_range)
            s = views.extract_scan_string(scan, params)
            vid = memo[key] = views.view_of(alphabet, canonicalize(s))
        out[k] = vid
    return int(out[0]) if headings is None else out


class ViewField:
    """Expected view ids precomputed on a coarse pose lattice over a map.

    Views vary slowly with pose, so a lattice of a few cells' spacing and a
    handful of heading bins is enough; lattice sites whose center cell is not
    FREE borrow the value of the nearest computed neighbor.  Each site casts
    the distinct ray angles of all its headings once, and scans repeated
    within one build are extracted once.  Lookup is a pure array index, cheap
    enough for per-particle weighting.
    """

    def __init__(self, grid: OccupancyGrid, alphabet: ViewAlphabet,
                 params: ExtractionParams, bearings: np.ndarray | None = None,
                 max_range: float = 8.0, stride_cells: int = 5,
                 n_headings: int = 8):
        if stride_cells < 1 or n_headings < 1:
            raise ValueError("stride_cells and n_headings must be >= 1")
        if bearings is None:
            bearings = default_bearings()
        self.grid = grid
        self.stride = int(stride_cells)
        self.n_headings = int(n_headings)
        h, w = grid.shape
        lat_h = (h + self.stride - 1) // self.stride
        lat_w = (w + self.stride - 1) // self.stride
        table = np.full((lat_h, lat_w, self.n_headings), -1, dtype=np.int16)
        thetas = -np.pi + 2.0 * np.pi * np.arange(self.n_headings) / self.n_headings
        half = self.stride // 2
        memo: dict = {}
        for i in range(lat_h):
            row = min(i * self.stride + half, h - 1)
            for j in range(lat_w):
                col = min(j * self.stride + half, w - 1)
                if grid.cells[row, col] != FREE:
                    continue
                x = grid.origin[0] + (col + 0.5) * grid.resolution
                y = grid.origin[1] + (row + 0.5) * grid.resolution
                table[i, j] = expected_view(
                    grid, Pose(x, y, 0.0), alphabet, params, bearings, max_range,
                    headings=thetas, memo=memo)
        self.table = _fill_missing(table)

    def views_at(self, poses: np.ndarray) -> np.ndarray:
        """View id per pose row (x, y, theta); -1 where the map holds no
        computed view at all."""
        poses = np.atleast_2d(np.asarray(poses, dtype=float))
        g = self.grid
        cols = np.floor((poses[:, 0] - g.origin[0]) / g.resolution).astype(np.int64)
        rows = np.floor((poses[:, 1] - g.origin[1]) / g.resolution).astype(np.int64)
        i = np.clip(rows // self.stride, 0, self.table.shape[0] - 1)
        j = np.clip(cols // self.stride, 0, self.table.shape[1] - 1)
        step = 2.0 * np.pi / self.n_headings
        k = np.round((poses[:, 2] + np.pi) / step).astype(np.int64) % self.n_headings
        return self.table[i, j, k].astype(np.int64)


def _fill_missing(table: np.ndarray) -> np.ndarray:
    """Fill -1 lattice sites with the nearest computed view id per heading."""
    out = table.copy()
    for k in range(out.shape[2]):
        plane = out[:, :, k]
        missing = plane == -1
        if not missing.any() or missing.all():
            continue
        idx = distance_transform_edt(missing, return_distances=False,
                                     return_indices=True)
        out[:, :, k] = plane[tuple(idx)]
    return out


@dataclass(frozen=True)
class ScanLikelihoodParams:
    sigma_hit: float = 0.2
    z_hit: float = 0.9
    z_rand: float = 0.1
    beam_stride: int = 10
    likelihood_exponent: float = 0.3

    def __post_init__(self):
        if abs(self.z_hit + self.z_rand - 1.0) > 1e-9:
            raise ValueError("z_hit + z_rand must equal 1")
        if self.sigma_hit <= 0 or self.beam_stride < 1:
            raise ValueError("sigma_hit must be positive and beam_stride >= 1")
        if not (0.0 < self.likelihood_exponent <= 1.0):
            raise ValueError("likelihood_exponent must lie in (0, 1]")


def scan_log_likelihoods(grid: OccupancyGrid, poses: np.ndarray, scan: RangeScan,
                         params: ScanLikelihoodParams) -> np.ndarray:
    """Tempered likelihood-field log-likelihood of a scan at each pose.

    poses: (N, 3) array of x, y, theta.  Every beam_stride-th returned beam
    contributes; no-return beams are skipped.  Endpoints off the grid take
    the random-measurement floor.
    """
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    use = np.arange(0, len(scan), params.beam_stride)
    returned = scan.ranges[use] < scan.max_range - 1e-9
    use = use[returned]
    if len(use) == 0:
        return np.zeros(len(poses))
    a = scan.angles[use]
    r = scan.ranges[use]
    world_ang = poses[:, 2:3] + a[None, :]
    ex = poses[:, 0:1] + r[None, :] * np.cos(world_ang)
    ey = poses[:, 1:2] + r[None, :] * np.sin(world_ang)
    cols = np.floor((ex - grid.origin[0]) / grid.resolution).astype(np.int64)
    rows = np.floor((ey - grid.origin[1]) / grid.resolution).astype(np.int64)
    h, w = grid.shape
    ok = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    flat = np.where(ok, rows * w + cols, h * w)
    logp = grid.likelihood_table(params)[flat]
    return params.likelihood_exponent * logp.sum(axis=1)


def scan_likelihood(grid: OccupancyGrid, pose: Pose, scan: RangeScan,
                    params: ScanLikelihoodParams) -> float:
    row, col = grid.cell_of(pose.x, pose.y)
    h, w = grid.shape
    if not (0 <= row < h and 0 <= col < w):
        raise ValueError("scan_likelihood pose is off the grid")
    logp = scan_log_likelihoods(grid, np.array([[pose.x, pose.y, pose.theta]]),
                                scan, params)
    return float(np.exp(logp[0]))
