"""Occupancy grids: text serialization, inside tests, ray casting, expected
views at a pose, and the likelihood-field scan model used to weight in-map
particles."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .views import ExtractionParams, RangeScan, ViewAlphabet
from . import views

FREE, OCCUPIED, UNKNOWN = 0, 1, 2
_MAP_CHARS = np.frombuffer(b".#?", dtype=np.uint8)  # map file character by cell value
_CELL_OF_CODE = np.full(256, -1, dtype=np.int8)  # cell value by character code, -1 unknown
_CELL_OF_CODE[_MAP_CHARS] = np.arange(len(_MAP_CHARS))

RAY_STEP_FRACTION = 0.5  # ray sampling step, in cell widths
CAST_CHUNK_RAYS = 10_000  # rays per batched cast of many poses' scans
# scan_log_likelihoods weighs poses in blocks of about this many beam
# endpoints, so its working set stays near 1-3 MB at any particle count: one
# call on 200,000 poses at 19 beams allocated 127 MB as one block and 3.2 MB
# in blocks.  At 5,000 particles a call in blocks of 2**13 endpoints took
# 9 % longer, and in one block 28 % longer
SCAN_BLOCK_ENDPOINTS = 2**15
# A batched cast samples its last DENSE_FINISH_RAYS rays densely, in blocks
# of DENSE_BLOCK_RAYS.  Above 1,023 rays the skipping loop's per-ray masks
# stay out of numpy's cache of small buffers, which keeps up to 7 freed
# buffers of every size under 1 KiB.
DENSE_FINISH_RAYS = 1024
DENSE_BLOCK_RAYS = 256


def wrap_angle(theta):
    """Normalize angles to (-pi, pi]: -(mod(pi - t, 2 pi) - pi), bit for bit
    as np.mod computes it."""
    # np.mod of floats is fmod with the divisor added to remainders of the
    # other sign (and a zero made +0.0, which r + 0.0 does here too)
    if np.isscalar(theta):
        t = float(theta)
        if not math.isfinite(t):
            return math.nan  # math.fmod raises where np.fmod gives NaN
        r = math.fmod(math.pi - t, 2.0 * math.pi)
        return -(r + (r < 0) * (2.0 * math.pi) - math.pi)
    r = np.fmod(np.pi - np.asarray(theta, dtype=float), 2.0 * np.pi)
    return -(r + (r < 0) * (2.0 * np.pi) - np.pi)


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.theta))):
            raise ValueError("pose components must be finite")
        # Python floats, so that repr writes a plain number
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
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
        self._skip_tables: dict = {}

    @property
    def shape(self):
        return self.cells.shape

    def __eq__(self, other):
        return (isinstance(other, OccupancyGrid)
                and self.resolution == other.resolution
                and self.origin == other.origin
                and np.array_equal(self.cells, other.cells))

    def free_at(self, x: float, y: float) -> bool:
        """Whether the point (x, y) lies in a FREE cell, which is what
        "inside the partial map" means for a pose.  The scalar twin of
        cell_index, in Python floats for callers that ask one point at a
        time."""
        col = math.floor((x - self.origin[0]) / self.resolution)
        row = math.floor((y - self.origin[1]) / self.resolution)
        h, w = self.cells.shape
        return 0 <= row < h and 0 <= col < w and self.cells.item(row, col) == FREE

    def cell_center(self, row, col):
        return (self.origin[0] + (col + 0.5) * self.resolution,
                self.origin[1] + (row + 0.5) * self.resolution)

    def distance_field(self) -> np.ndarray:
        """Per-cell distance (meters) to the nearest OCCUPIED cell."""
        if self._distance_field is None:
            self._distance_field = self._clearance(self.cells == OCCUPIED)
        return self._distance_field

    def _clearance(self, stops: np.ndarray) -> np.ndarray:
        """Distance (meters between cell centers) from each cell to the
        nearest cell of the boolean mask stops; inf everywhere without one."""
        if not stops.any():
            return np.full(stops.shape, np.inf)
        # the square root of the exact integer, as a float64: the same
        # float as SciPy's exact transform gives
        d = _squared_distances(stops).astype(float)
        np.sqrt(d, out=d)
        d *= self.resolution
        return d

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

    def skip_table(self, unknown_stops: bool) -> np.ndarray:
        """Ray samples a batched cast may advance from a sample in each cell,
        flattened, as uint8; 0 marks the cells where a ray stops: OCCUPIED,
        and UNKNOWN with unknown_stops.

        From a sample in another cell at clearance D (meters between cell
        centers to the nearest stopping cell), every sample closer than
        D - res*sqrt(2) lies in a non-stopping cell or off the grid, so the
        advance is floor((D - res*sqrt(2)) / step) - 1 samples, at least 1
        and at most 255 (Cohen & Sheffer, "Proximity clouds", 1994)."""
        table = self._skip_tables.get(unknown_stops)
        if table is None:
            stops = self.cells != FREE if unknown_stops else self.cells == OCCUPIED
            advance = self._clearance(stops)
            # in place: the transform is as large as the grid
            advance -= self.resolution * math.sqrt(2.0)
            advance /= self.resolution * RAY_STEP_FRACTION
            np.floor(advance, out=advance)
            advance -= 1
            np.clip(advance, 1, 255, out=advance)
            table = advance.astype(np.uint8)
            table[stops] = 0
            table = self._skip_tables[unknown_stops] = table.ravel()
        return table


def dump_map(grid: OccupancyGrid) -> str:
    """The map file text of grid (see load_map); a cell value other than
    FREE, OCCUPIED and UNKNOWN raises a ValueError that names it."""
    cells = grid.cells
    bad = (cells < 0) | (cells >= len(_MAP_CHARS))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValueError(f"cell ({row}, {col}) holds {cells[row, col]}, not FREE (0), "
                         "OCCUPIED (1) or UNKNOWN (2)")
    # one character per cell and a newline after every row, decoded once
    text = np.full((cells.shape[0], cells.shape[1] + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = _MAP_CHARS.take(cells)
    return (f"resolution {grid.resolution!r}\n"
            f"origin {grid.origin[0]!r} {grid.origin[1]!r}\n" + text.tobytes().decode())


def _header_values(lines: list[str], k: int, key: str,
                   names: tuple[str, ...]) -> list[float]:
    """The finite numbers after key on line k + 1, one per name."""
    parts = lines[k].split()
    form = " ".join([key] + [f"<{name}>" for name in names])
    try:
        if len(parts) != len(names) + 1 or parts[0] != key:
            raise ValueError
        values = [float(v) for v in parts[1:]]
    except ValueError:
        raise MapParseError(f"line {k + 1}: expected '{form}'") from None
    if not all(map(math.isfinite, values)):
        raise MapParseError(f"line {k + 1}: {key} must be finite")
    return values


def load_map(text: str) -> OccupancyGrid:
    """Parse a dump_map file; a malformed line raises a MapParseError that
    names it."""
    lines = text.splitlines()
    if len(lines) < 3:
        raise MapParseError("map file needs a resolution line, an origin line, and rows")
    resolution, = _header_values(lines, 0, "resolution", ("meters",))
    if resolution <= 0:
        raise MapParseError("line 1: resolution must be positive")
    origin = _header_values(lines, 1, "origin", ("x", "y"))
    # every row decoded in one pass: the rows' characters as UTF-32 code
    # units (surrogatepass encodes any str), each looked up in a table in
    # which code 255, and every code above it, is unknown
    rows = lines[2:]
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    codes = np.frombuffer("".join(rows).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    cells = _CELL_OF_CODE.take(codes, mode="clip")
    # the first bad row in file order; within a row: empty, ragged, unknown
    width = int(lengths[0])
    misshapen = np.flatnonzero((lengths == 0) | (lengths != width))
    row = misshapen[0] if len(misshapen) else len(rows)
    unknown = np.flatnonzero(cells < 0)[:1]
    if len(unknown):
        u_row = np.searchsorted(np.cumsum(lengths), unknown[0], "right")
        if u_row < row:
            raise MapParseError(f"line {u_row + 3}: unknown cell character "
                                f"{chr(codes[unknown[0]])!r}")
    if row < len(rows):
        problem = "empty row" if lengths[row] == 0 else f"ragged row (expected width {width})"
        raise MapParseError(f"line {row + 3}: {problem}")
    return OccupancyGrid(cells.reshape(len(rows), width), resolution, origin)


def cell_index(grid: OccupancyGrid, xs: np.ndarray, ys: np.ndarray):
    """(flat, on) of the points (xs, ys), float arrays of one shape: each
    point's index into the flattened cells, meaningful only where on, and
    whether the point lies on the grid.  Every array lookup of a world
    point takes its cell here; OccupancyGrid.free_at is the scalar twin.

    xs and ys are overwritten, so callers pass arrays of their own: the
    work runs in place, which for the ray casters' large sample arrays is
    much faster than allocating each step."""
    h, w = grid.shape
    # (x - origin) / resolution, floored; the floored coordinates stay
    # floats until the flat index
    xs -= grid.origin[0]
    xs /= grid.resolution
    np.floor(xs, out=xs)
    ys -= grid.origin[1]
    ys /= grid.resolution
    np.floor(ys, out=ys)
    on = xs >= 0
    on &= xs < w
    on &= ys >= 0
    on &= ys < h
    ys *= w
    ys += xs
    return ys.astype(np.intp), on


def inside_mask(grid: OccupancyGrid, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # copies: cell_index overwrites its arguments
    flat, on = cell_index(grid, xs.astype(float), ys.astype(float))
    return on & (grid.cells.ravel().take(flat, mode="clip") == FREE)


def _sample_distances(grid: OccupancyGrid, max_range: float) -> np.ndarray:
    """Distances of the samples along every ray, half a cell apart and
    none beyond max_range."""
    step = grid.resolution * RAY_STEP_FRACTION
    ts = np.arange(step, max_range + step, step)
    return ts[ts <= max_range]


def _sample_cells(grid: OccupancyGrid, t, x, y, cos, sin):
    """cell_index of the ray samples at distances t from (x, y) along
    (cos, sin), all broadcast together.  Every caster takes its samples
    here, so all see the same cells."""
    xs = cos * t
    xs += x
    ys = sin * t
    ys += y
    return cell_index(grid, xs, ys)


def _first_stop(grid: OccupancyGrid, xs, ys, angles, max_range: float,
                unknown_stops: bool):
    """Cast many rays at once, ray i from (xs[i], ys[i]) on the grid at
    angles[i].  Returns (ts, first, state): the sample distances, each ray's
    first sample in a stopping cell (OCCUPIED, and UNKNOWN with
    unknown_stops; len(ts) when there is none) and that cell's state (FREE
    when there is none).

    Each round every active ray takes one sample, through _sample_cells
    like every other cast.  A ray ends in a stopping cell or when it leaves
    the grid: its floored cell coordinates are monotone in t, so it never
    comes back.  Otherwise it advances by its cell's skip_table entry.  The
    last DENSE_FINISH_RAYS rays, mostly ones grazing a wall, then take all
    their remaining samples at once.
    """
    ts = _sample_distances(grid, max_range)
    angles = np.asarray(angles, dtype=float)
    # each ray's start and direction, broadcast together
    rays = np.empty((4,) + np.broadcast(xs, ys, angles).shape)
    rays[0], rays[1], rays[2], rays[3] = xs, ys, np.cos(angles), np.sin(angles)
    x, y, c, s = rays.reshape(4, -1)
    if not cell_index(grid, x.copy(), y.copy())[1].all():
        raise ValueError("rays must start on the grid")
    cells = grid.cells.ravel()
    skip = grid.skip_table(unknown_stops)
    first = np.full(len(c), len(ts), dtype=np.intp)
    state = np.full(len(c), FREE, dtype=np.int8)
    # a max_range under half a cell leaves no sample: no ray is cast
    ray = np.arange(len(c) if len(ts) else 0)
    k = np.zeros(len(ray), dtype=np.intp)
    while len(ray) > DENSE_FINISH_RAYS:
        flat, on = _sample_cells(grid, ts[k], x, y, c, s)
        advance = skip.take(flat, mode="clip")
        stop = on & (advance == 0)
        first[ray[stop]] = k[stop]
        state[ray[stop]] = cells[flat[stop]]
        k += advance
        keep = on & (advance > 0) & (k < len(ts))
        ray, k, x, y, c, s = ray[keep], k[keep], x[keep], y[keep], c[keep], s[keep]
    # every sample before k is known not to stop, so sampling densely from
    # a block's smallest k finds the same first stop; several blocks take
    # the rays in order of k
    if len(ray) > DENSE_BLOCK_RAYS:
        order = np.argsort(k, kind="stable")
        ray, k, x, y, c, s = ray[order], k[order], x[order], y[order], c[order], s[order]
    for lo in range(0, len(ray), DENSE_BLOCK_RAYS):
        block = slice(lo, lo + DENSE_BLOCK_RAYS)
        start = k[block].min()
        flat, on = _sample_cells(grid, ts[None, start:], x[block, None],
                                 y[block, None], c[block, None], s[block, None])
        stop = on & (skip.take(flat, mode="clip") == 0)
        at = np.argmax(stop, axis=1)
        hit = stop[np.arange(len(at)), at]
        done, at = ray[block][hit], at[hit]
        first[done] = start + at
        state[done] = cells[flat[hit, at]]
    return ts, first, state


def raycast_full(grid: OccupancyGrid, pose: Pose | Sequence[Pose],
                 bearings: np.ndarray, max_range: float) -> np.ndarray:
    """Distance from a pose to the first OCCUPIED cell along each bearing,
    max_range when nothing is hit.  UNKNOWN cells are transparent.

    pose may also be a sequence of poses; the result then has one row per
    pose, and their rays are cast in batches of about CAST_CHUNK_RAYS."""
    poses = [pose] if isinstance(pose, Pose) else list(pose)
    bearings = np.asarray(bearings, dtype=float)
    xs = np.array([p.x for p in poses])[:, None]
    ys = np.array([p.y for p in poses])[:, None]
    angles = np.array([p.theta for p in poses])[:, None] + bearings[None, :]
    ranges = np.empty(angles.shape)
    per_cast = max(1, CAST_CHUNK_RAYS // len(bearings))
    for lo in range(0, len(poses), per_cast):
        hi = min(lo + per_cast, len(poses))
        ts, first, _ = _first_stop(grid, xs[lo:hi], ys[lo:hi], angles[lo:hi],
                                   max_range, unknown_stops=False)
        ranges[lo:hi] = np.append(ts, max_range)[first].reshape(hi - lo, len(bearings))
    return ranges[0] if isinstance(pose, Pose) else ranges


def raycast(grid: OccupancyGrid, pose: Pose, bearings: np.ndarray,
            max_range: float) -> RangeScan:
    ranges = raycast_full(grid, pose, bearings, max_range)
    return RangeScan(np.asarray(bearings, dtype=float), ranges, max_range)


def default_bearings(beam_count: int = 181, fov: float = math.pi) -> np.ndarray:
    return np.linspace(-fov / 2.0, fov / 2.0, beam_count)


def expected_view(grid: OccupancyGrid, pose: Pose | Sequence[Pose],
                  alphabet: ViewAlphabet, params: ExtractionParams,
                  bearings: np.ndarray | None = None,
                  max_range: float = 8.0, headings: np.ndarray | None = None):
    """View id the partial map predicts at a pose.  Beams that reach
    unexplored cells are reported as max-range, matching what the mapping
    robot could have seen from its frontier.

    pose may also be a sequence of poses; the result then has one entry
    (or row, with headings) per pose.  With headings, returns one view id
    per heading at the pose's position (pose.theta is then ignored), and
    the distinct ray angles of all headings are cast once per pose.  Rays
    are cast in batches of about CAST_CHUNK_RAYS with unexplored cells
    stopping them, and each batch's scans not seen earlier in the call,
    keyed by their first-hit sample indices, are extracted in one call.
    """
    poses = [pose] if isinstance(pose, Pose) else list(pose)
    if not all(grid.free_at(p.x, p.y) for p in poses):
        raise ValueError("expected_view requires a pose inside the partial map")
    if bearings is None:
        bearings = default_bearings()
    bearings = np.asarray(bearings, dtype=float)
    xs = np.array([p.x for p in poses])
    ys = np.array([p.y for p in poses])
    if headings is None:
        # each pose's own rays, one scan per pose
        angles = np.array([p.theta for p in poses])[:, None] + bearings[None, :]
        inverse = np.arange(len(bearings))[None, :]
    else:
        # the distinct values of heading + bearing over the wrapped headings,
        # and the index of each (heading, bearing) into them
        thetas = wrap_angle(np.asarray(headings, dtype=float))
        shared, inverse = np.unique(thetas[:, None] + bearings[None, :],
                                    return_inverse=True)
        inverse = inverse.reshape(len(thetas), len(bearings))
        angles = np.broadcast_to(shared, (len(poses), len(shared)))
    n_scans, n_rays = inverse.shape[0], angles.shape[1]
    memo: dict = {}  # view id per scan key
    out = np.empty((len(poses), n_scans), dtype=np.int64)
    per_cast = max(1, CAST_CHUNK_RAYS // n_rays)
    for lo in range(0, len(poses), per_cast):
        hi = min(lo + per_cast, len(poses))
        ts, first, state = _first_stop(grid, xs[lo:hi, None], ys[lo:hi, None],
                                       angles[lo:hi], max_range, unknown_stops=True)
        # the sample index of each beam's hit, len(ts) for max range; it
        # identifies a scan exactly
        hit = np.where(state == OCCUPIED, first, len(ts))
        hit = hit.reshape(hi - lo, n_rays)[:, inverse].reshape(-1, len(bearings))
        keys = [key.tobytes() for key in
                hit.astype(np.int16 if len(ts) < 2**15 else np.int32)]
        # scans new to the memo, the first of each equal scan
        todo = {}
        for k, key in enumerate(keys):
            if key not in memo:
                todo.setdefault(key, k)
        if todo:
            ranges = np.append(ts, max_range)[hit[list(todo.values())]]
            strings = views.extract_scan_strings(ranges, bearings, max_range, params)
            for key, s in zip(todo, strings):
                memo[key] = views.view_of(alphabet, s)
        out[lo:hi] = np.reshape([memo[key] for key in keys], (hi - lo, n_scans))
    if headings is None:
        out = out[:, 0]
    if isinstance(pose, Pose):
        return int(out[0]) if headings is None else out[0]
    return out


class ViewField:
    """Expected view ids precomputed on a coarse pose lattice over a map.

    Views vary slowly with pose, so a lattice of a few cells' spacing and a
    handful of heading bins is enough; lattice sites whose center cell is not
    FREE borrow the value of the nearest computed neighbor.  All FREE sites
    go to one expected_view call, which casts them in batches of about
    CAST_CHUNK_RAYS rays, each site casting the distinct ray angles of all
    its headings once, and extracts scans repeated within the build once.
    Lookup is a pure array index, cheap enough for per-particle weighting.
    """

    def __init__(self, grid: OccupancyGrid, alphabet: ViewAlphabet,
                 params: ExtractionParams, bearings: np.ndarray | None = None,
                 max_range: float = 8.0, stride_cells: int = 5,
                 n_headings: int = 8):
        for name, value in (("stride_cells", stride_cells), ("n_headings", n_headings)):
            if value % 1 or not value >= 1:  # NaN fails both
                raise ValueError(f"{name} must be a whole number >= 1, got {value!r}")
        self.grid = grid
        self.stride = int(stride_cells)
        self.n_headings = int(n_headings)
        h, w = grid.shape
        lat_h = (h + self.stride - 1) // self.stride
        lat_w = (w + self.stride - 1) // self.stride
        table = np.full((lat_h, lat_w, self.n_headings), -1, dtype=np.int16)
        thetas = -np.pi + 2.0 * np.pi * np.arange(self.n_headings) / self.n_headings
        half = self.stride // 2
        rows = np.minimum(np.arange(lat_h) * self.stride + half, h - 1)
        cols = np.minimum(np.arange(lat_w) * self.stride + half, w - 1)
        site_i, site_j = np.nonzero(grid.cells[np.ix_(rows, cols)] == FREE)
        sites = [Pose(*grid.cell_center(rows[i], cols[j]), 0.0)
                 for i, j in zip(site_i, site_j)]
        table[site_i, site_j] = expected_view(grid, sites, alphabet, params,
                                              bearings, max_range, headings=thetas)
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


def _column_pass(mask: np.ndarray):
    """(row, gap) per cell: the row of the nearest mask cell in the cell's
    column, the upper one on a tie, and its distance in rows.  A column
    without mask cells gives a gap longer than any distance on the grid.

    Both are int32 below 8,192 rows plus columns, where a squared gap plus
    a squared column offset stays under 5 * (h + w)**2 < 2**31; int32 made
    the transforms 1.4-1.8x faster than int64 on the benchmark maps."""
    h, w = mask.shape
    rows = np.arange(h, dtype=np.int32 if h + w < 2**13 else np.int64)[:, None]
    far = 2 * (h + w)
    above = np.maximum.accumulate(np.where(mask, rows, -far), axis=0)
    below = np.minimum.accumulate(np.where(mask, rows, far)[::-1], axis=0)[::-1]
    up = rows - above
    down = below - rows
    return np.where(down < up, below, above), np.minimum(up, down)


def _row_min(base: np.ndarray, scale: int) -> np.ndarray:
    """Each cell's least base[r, c'] + scale * (c - c')**2 over the columns
    c' of its row: the row pass of the separable exact distance transform
    (Saito & Toriwaki, 1994).  Once scale * k**2 reaches the largest value
    so far, no column k or more away can lower one.

    At scale 1 on _column_pass's squared gaps it gives squared distances;
    at scale h * w on _fill_missing's int64 keys, the least key.  Every key
    and sum then stays under 6 * (h + w)**2 * h * w < 2**63 below 2**15
    rows plus columns."""
    best = base.copy()
    k = 1
    while k < base.shape[1] and scale * k * k < best.max():
        np.minimum(best[:, k:], base[:, :-k] + scale * k * k, out=best[:, k:])
        np.minimum(best[:, :-k], base[:, k:] + scale * k * k, out=best[:, :-k])
        k += 1
    return best


def _squared_distances(mask: np.ndarray) -> np.ndarray:
    """Squared distance, in cells, from each cell to the nearest cell of the
    boolean mask, exactly, as integers (the mask must hold a cell)."""
    _, gap = _column_pass(mask)
    gap *= gap
    return _row_min(gap, 1)


def _fill_missing(table: np.ndarray) -> np.ndarray:
    """Fill -1 lattice sites with the view ids of the nearest computed site.
    A site is computed or missing at every heading at once, so one
    transform serves every heading plane.

    Each column's nearest site is ranked as one key, gap**2 * s + col * h
    + row with s = h * w, so the least key breaks ties as SciPy's exact
    Euclidean feature transform does: least squared distance, then least
    column, then least row (the column pass keeps the upper one)."""
    missing = table[:, :, 0] == -1
    if not missing.any() or missing.all():
        return table.copy()
    h, w = missing.shape
    s = h * w
    row, gap = _column_pass(~missing)
    gap = gap.astype(np.int64)
    key = _row_min(gap * gap * s + np.arange(w) * h + row, s)
    return table[key % h, key % s // h]


@dataclass(frozen=True)
class ScanLikelihoodParams:
    sigma_hit: float = 0.2
    z_hit: float = 0.9
    z_rand: float = 0.1
    beam_stride: int = 10
    likelihood_exponent: float = 0.3

    def __post_init__(self):
        # each comparison is False for NaN
        if not 0 < self.sigma_hit < math.inf:
            raise ValueError(f"sigma_hit must be finite and > 0, got {self.sigma_hit!r}")
        if not 0 <= self.z_hit < math.inf:
            raise ValueError(f"z_hit must be finite and >= 0, got {self.z_hit!r}")
        # z_rand > 0 keeps the log-likelihood of an endpoint off the grid,
        # at distance inf, finite
        if not 0 < self.z_rand < math.inf:
            raise ValueError(f"z_rand must be finite and > 0, got {self.z_rand!r}")
        if abs(self.z_hit + self.z_rand - 1.0) > 1e-9:
            raise ValueError("z_hit + z_rand must equal 1, "
                             f"got {self.z_hit!r} + {self.z_rand!r}")
        if self.beam_stride % 1 or not self.beam_stride >= 1:
            raise ValueError("beam_stride must be a whole number >= 1, "
                             f"got {self.beam_stride!r}")
        # an int, so that a whole float such as 2.0 still steps beam indices
        object.__setattr__(self, "beam_stride", int(self.beam_stride))
        if not (0.0 < self.likelihood_exponent <= 1.0):
            raise ValueError("likelihood_exponent must lie in (0, 1], "
                             f"got {self.likelihood_exponent!r}")


def scan_log_likelihoods(grid: OccupancyGrid, poses: np.ndarray, scan: RangeScan,
                         params: ScanLikelihoodParams) -> np.ndarray:
    """Tempered likelihood-field log-likelihood of a scan at each pose.

    poses: (N, 3) array of x, y, theta.  Every beam_stride-th returned beam
    contributes; no-return beams are skipped.  Endpoints off the grid take
    the random-measurement floor.  Poses are weighed in blocks of about
    SCAN_BLOCK_ENDPOINTS endpoints.
    """
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    use = np.arange(0, len(scan), params.beam_stride)
    returned = scan.ranges[use] < scan.max_range - 1e-9
    use = use[returned]
    if len(use) == 0:
        return np.zeros(len(poses))
    a = scan.angles[use]
    r = scan.ranges[use]
    table = grid.likelihood_table(params)
    sums = np.empty(len(poses))
    per_block = max(1, SCAN_BLOCK_ENDPOINTS // len(use))
    for lo in range(0, len(poses), per_block):
        block = poses[lo:lo + per_block]
        # endpoints x + r cos(angle), y + r sin(angle), computed in place
        ang = block[:, 2:3] + a[None, :]
        ex = np.cos(ang)
        ex *= r
        ex += block[:, 0:1]
        ey = np.sin(ang, out=ang)
        ey *= r
        ey += block[:, 1:2]
        flat, on = cell_index(grid, ex, ey)
        np.putmask(flat, ~on, grid.cells.size)  # the table's off-grid entry
        # each pose's sum runs over its own row, as in one whole-array sum
        table.take(flat).sum(axis=1, out=sums[lo:lo + per_block])
    return params.likelihood_exponent * sums
