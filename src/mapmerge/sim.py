"""Synthetic worlds: noisy scan simulation, trajectory generation with
odometry, partial-map carving from a trajectory, and production of the
view-transition training data used to fit the structural prior."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import (CAST_CHUNK_RAYS, FREE, OCCUPIED, UNKNOWN, OccupancyGrid, Pose,
                   cell_index, default_bearings, raycast_full, _first_stop,
                   _sample_cells, _sample_distances, wrap_angle)
from .pfilter import MotionNoise
from .views import (ExtractionParams, RangeScan, ViewAlphabet, alphabet_build,
                    readonly, view_of)
from . import views as _views
from . import dirichlet

MAX_STEP = 0.25  # meters of travel per trajectory record
PARTNER_FRACTION = 0.5  # share of a partner run carved into a training partial map


@dataclass(frozen=True)
class WorldConfig:
    beam_count: int = 181
    fov: float = math.pi
    max_range: float = 8.0
    range_noise_sigma: float = 0.02
    dropout_prob: float = 0.01
    odom_noise: MotionNoise = field(default_factory=MotionNoise)
    seed: int = 0

    def __post_init__(self):
        # each comparison is False for NaN
        if not isinstance(self.beam_count, (int, np.integer)) or self.beam_count < 3:
            raise ValueError(f"beam_count must be an integer >= 3, got {self.beam_count!r}")
        if not 0.0 < self.fov <= 2.0 * math.pi:
            raise ValueError(f"fov must lie in (0, 2*pi], got {self.fov!r}")
        if not 0.0 < self.max_range < math.inf:
            raise ValueError(f"max_range must be finite and > 0, got {self.max_range!r}")
        if not 0.0 <= self.range_noise_sigma < math.inf:
            raise ValueError("range_noise_sigma must be finite and >= 0, "
                             f"got {self.range_noise_sigma!r}")
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise ValueError(f"dropout_prob must lie in [0, 1], got {self.dropout_prob!r}")

    @cached_property
    def bearings(self) -> np.ndarray:
        """The beam bearings, built once per config as one read-only array
        that every scan simulated with the config shares."""
        return readonly(default_bearings(self.beam_count, self.fov))


@dataclass(frozen=True)
class TrajectoryRecord:
    true_pose: Pose
    odom: tuple[float, float, float]  # d_trans, d_rot1, d_rot2
    scan: RangeScan


@dataclass
class Trajectory:
    records: list[TrajectoryRecord]
    truncated: bool = False

    @property
    def scan_geometry(self) -> tuple[np.ndarray, float]:
        """(bearings, max_range) of the trajectory's scans; the default
        sensor's when there are no records."""
        if not self.records:
            cfg = WorldConfig()
            return cfg.bearings, cfg.max_range
        scan = self.records[0].scan
        return scan.angles, scan.max_range


def simulate_scan(grid: OccupancyGrid, poses: Sequence[Pose], cfg: WorldConfig,
                  noise: np.ndarray | None = None,
                  uniforms: np.ndarray | None = None) -> list[RangeScan]:
    """One noisy scan per pose: the truth of one raycast_full call over all
    poses, plus range noise and dropout.

    noise and uniforms hold one row of cfg.beam_count draws per pose, or are
    None for no noise or no dropout.  A beam that hits takes its noise
    (drawn as N(0, cfg.range_noise_sigma)) and is clipped to
    [1e-6, max_range]; a beam whose uniform (drawn from [0, 1)) is below
    cfg.dropout_prob then reads max_range.  The scans' ranges are read-only
    rows of one array, and their bearings the config's shared array."""
    if not all(grid.free_at(p.x, p.y) for p in poses):
        raise ValueError("scan pose must be in a FREE cell")
    ranges = raycast_full(grid, poses, cfg.bearings, cfg.max_range)
    if noise is not None:
        noisy = ranges + noise
        ranges = np.where(ranges < cfg.max_range,
                          np.clip(noisy, 1e-6, cfg.max_range), ranges)
    if uniforms is not None:
        ranges = np.where(uniforms < cfg.dropout_prob, cfg.max_range, ranges)
    ranges.flags.writeable = False
    return [RangeScan(cfg.bearings, row, cfg.max_range) for row in ranges]


def _clearance(grid: OccupancyGrid, x: float, y: float, heading: float,
               dist: float) -> float:
    """Free distance ahead along heading, up to dist (noise-free, fine steps).
    Samples every half cell, and at dist itself when the last of them falls
    short of it."""
    step = grid.resolution * 0.5
    last, t = 0.0, step
    while t <= dist:
        if not grid.free_at(x + t * math.cos(heading), y + t * math.sin(heading)):
            return t - step
        last, t = t, t + step
    if last < dist and not grid.free_at(x + dist * math.cos(heading),
                                        y + dist * math.sin(heading)):
        return last
    return dist


def _clearances(grid: OccupancyGrid, x: float, y: float, headings,
                dist: float) -> np.ndarray:
    """_clearance along each of headings, as one array march that is bit for
    bit the scalar one: the same sample distances, summed step by step, and
    the same math.cos and math.sin.  Faster from a handful of headings on;
    for one heading the scalar march is."""
    step = grid.resolution * 0.5
    ts = []
    t = step
    while t <= dist:
        ts.append(t)
        t += step
    # the value each sample gives when it is the first outside a FREE cell
    found = np.array(ts) - step
    last = ts[-1] if ts else 0.0
    if last < dist:
        ts.append(dist)
        found = np.append(found, last)
    ts = np.array(ts)
    xs = ts * np.array([math.cos(h) for h in headings])[:, None]
    xs += x
    ys = ts * np.array([math.sin(h) for h in headings])[:, None]
    ys += y
    flat, on = cell_index(grid, xs, ys)
    # each heading's first sample outside a FREE cell; the last column,
    # always set, stands for none
    stop = np.ones((len(xs), len(ts) + 1), dtype=bool)
    np.logical_not(on, out=stop[:, :-1])
    stop[:, :-1] |= grid.cells.ravel().take(flat, mode="clip") != FREE
    return np.append(found, dist)[np.argmax(stop, axis=1)]


def _odometry_delta(prev: Pose, cur: Pose) -> tuple[float, float, float]:
    dx, dy = cur.x - prev.x, cur.y - prev.y
    d_trans = math.hypot(dx, dy)
    if d_trans > 1e-9:
        d_rot1 = wrap_angle(math.atan2(dy, dx) - prev.theta)
    else:
        d_rot1 = 0.0
    d_rot2 = wrap_angle(cur.theta - prev.theta - d_rot1)
    return d_trans, d_rot1, d_rot2


def _noisy_odom(true_delta, noise: MotionNoise, rng: np.random.Generator):
    d_trans, d_rot1, d_rot2 = true_delta
    s_trans, s_rot = noise.sigmas(d_trans, d_rot1, d_rot2)
    return (d_trans + (rng.normal(0.0, s_trans) if s_trans > 0 else 0.0),
            d_rot1 + (rng.normal(0.0, s_rot) if s_rot > 0 else 0.0),
            d_rot2 + (rng.normal(0.0, s_rot) if s_rot > 0 else 0.0))


def _next_heading(grid: OccupancyGrid, pose: Pose, policy, waypoint,
                  rng: np.random.Generator, goal_heading: list) -> float:
    """Desired heading for one step under the given policy."""
    if policy == "waypoints":
        return math.atan2(waypoint[1] - pose.y, waypoint[0] - pose.x)
    if policy == "wall_follow":
        # hug the left wall: turn left when open, straight else, right when blocked
        for turn in (math.radians(40), 0.0, math.radians(-40),
                     math.radians(-90), math.radians(-140), math.pi):
            h = pose.theta + turn
            if _clearance(grid, pose.x, pose.y, h, 0.6) >= 0.6 - 1e-9:
                return h
        return pose.theta + math.pi
    # random_explore: hold a random goal heading, re-draw when blocked
    if goal_heading[0] is None or \
            _clearance(grid, pose.x, pose.y, goal_heading[0], 0.6) < 0.6 - 1e-9:
        candidates = wrap_angle(pose.theta + np.linspace(-math.pi, math.pi, 16,
                                                         endpoint=False))
        clear = _clearances(grid, pose.x, pose.y, candidates, 3.0)
        best = np.nonzero(clear >= clear.max() - 1e-9)[0]
        goal_heading[0] = float(candidates[best[rng.integers(0, len(best))]])
        goal_heading[0] += float(rng.normal(0.0, 0.2))
    return goal_heading[0]


def generate_trajectory(grid: OccupancyGrid, start: Pose, policy,
                        length: float, cfg: WorldConfig,
                        rng: np.random.Generator | None = None,
                        waypoints=None) -> Trajectory:
    """Collision-free true poses with step <= 0.25 m, noisy recorded odometry,
    and a simulated scan per step.

    policy: 'waypoints' (requires waypoints list of (x, y)), 'wall_follow',
    or 'random_explore'.

    Each step draws its odometry noise, then its scan's range noise and
    dropout uniforms, from rng.  The scans themselves are cast by
    simulate_scan in chunks of about CAST_CHUNK_RAYS rays, each time that
    many steps are pending and once at the end, which leaves every output
    and rng's final state as casting each step's scan at once would.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if not grid.free_at(start.x, start.y):
        raise ValueError("start pose must be in a FREE cell")
    if policy == "waypoints" and not waypoints:
        raise ValueError("waypoints policy requires a waypoint list")
    if policy not in ("waypoints", "wall_follow", "random_explore"):
        raise ValueError(f"unknown policy {policy!r}")

    records: list[TrajectoryRecord] = []
    # steps not yet cast: (pose, odometry, range noise, dropout uniforms)
    pending: list[tuple] = []
    per_cast = max(1, CAST_CHUNK_RAYS // cfg.beam_count)

    def cast_pending():
        poses, odoms, noise, uniforms = zip(*pending)
        scans = simulate_scan(grid, poses, cfg,
                              None if noise[0] is None else np.array(noise),
                              None if uniforms[0] is None else np.array(uniforms))
        records.extend(map(TrajectoryRecord, poses, odoms, scans))
        pending.clear()

    pose = start
    traveled = 0.0
    wp_idx = 0
    goal_heading = [None]
    truncated = False
    max_turn = math.radians(35.0)
    stuck = 0
    while traveled < length:
        if policy == "waypoints":
            if wp_idx >= len(waypoints):
                break
            wp = waypoints[wp_idx]
            if math.hypot(wp[0] - pose.x, wp[1] - pose.y) < 0.3:
                wp_idx += 1
                continue
        else:
            wp = None
        desired = _next_heading(grid, pose, policy, wp, rng, goal_heading)
        turn = np.clip(wrap_angle(desired - pose.theta), -max_turn, max_turn)
        heading = wrap_angle(pose.theta + turn)
        advance = min(MAX_STEP, _clearance(grid, pose.x, pose.y, heading, MAX_STEP))
        if advance < grid.resolution:
            # rotate in place toward the desired heading and try again
            new_pose = Pose(pose.x, pose.y, heading)
            stuck += 1
            if stuck > 40:
                truncated = True
                break
        else:
            stuck = 0
            new_pose = Pose(pose.x + advance * math.cos(heading),
                            pose.y + advance * math.sin(heading), heading)
            traveled += advance
        odom = _noisy_odom(_odometry_delta(pose, new_pose), cfg.odom_noise, rng)
        if not grid.free_at(new_pose.x, new_pose.y):
            raise ValueError("scan pose must be in a FREE cell")
        noise = (rng.normal(0.0, cfg.range_noise_sigma, cfg.beam_count)
                 if cfg.range_noise_sigma > 0 else None)
        uniforms = rng.random(cfg.beam_count) if cfg.dropout_prob > 0 else None
        pending.append((new_pose, odom, noise, uniforms))
        if len(pending) == per_cast:
            cast_pending()
        pose = new_pose
    if pending:
        cast_pending()
    return Trajectory(records=records, truncated=truncated)


def carve_partial_map(grid: OccupancyGrid, trajectory: Trajectory,
                      cfg: WorldConfig) -> OccupancyGrid:
    """Partial map as the trajectory's robot would have built it: noise-free
    rays from every recorded pose reveal the cells they traverse and the
    OCCUPIED cell that stops them, and a pose in a FREE cell reveals that
    cell; everything else stays UNKNOWN.  A pose off the grid raises a
    ValueError that names its record."""
    cells = grid.cells.ravel()
    seen = np.zeros(cells.size, dtype=bool)
    records = trajectory.records
    flat, on = cell_index(grid, np.array([r.true_pose.x for r in records], dtype=float),
                          np.array([r.true_pose.y for r in records], dtype=float))
    if not on.all():
        k = int(np.argmin(on))
        p = records[k].true_pose
        raise ValueError(f"trajectory record {k}: pose ({p.x!r}, {p.y!r}) is off the map")
    seen[flat[cells[flat] == FREE]] = True
    ts = _sample_distances(grid, cfg.max_range)
    for rec in records:
        pose = rec.true_pose
        angles = pose.theta + cfg.bearings
        # every sample up to and including the first OCCUPIED one
        flat, on = _sample_cells(grid, ts[None, :], pose.x, pose.y,
                                 np.cos(angles)[:, None], np.sin(angles)[:, None])
        occ = on & (cells.take(flat, mode="clip") == OCCUPIED)
        last = np.where(occ.any(axis=1), np.argmax(occ, axis=1), len(ts))
        seen[flat[on & (np.arange(len(ts)) <= last[:, None])]] = True
    carved = np.where(seen, cells, UNKNOWN).reshape(grid.shape)
    return OccupancyGrid(carved, grid.resolution, grid.origin)


def _subsample(records: list[TrajectoryRecord], spacing: float):
    """The records every >= spacing meters of travel, the first included."""
    out = []
    dist = math.inf  # take the first record
    prev = None
    for rec in records:
        if prev is not None:
            dist += math.hypot(rec.true_pose.x - prev.x, rec.true_pose.y - prev.y)
        prev = rec.true_pose
        if dist < spacing:
            continue
        dist = 0.0
        out.append(rec)
    return out


def subsampled_views(trajectory: Trajectory, alphabet: ViewAlphabet | None,
                     params: ExtractionParams, spacing: float = 2.0):
    """Scan strings (or view ids, when an alphabet is given) sampled every
    >= spacing meters of travel along the trajectory."""
    strings = [_views.extract_scan_string(rec.scan, params)
               for rec in _subsample(trajectory.records, spacing)]
    return strings if alphabet is None else [view_of(alphabet, s) for s in strings]


@dataclass
class TrainingData:
    alphabet: ViewAlphabet
    counts: list[np.ndarray]        # one transition count matrix per sample
    map_index: list[int]            # source map of each count matrix
    confusion_pairs: list[list[tuple[int, int]]]  # per-sample (true, observed)


def _reference_ranges(grid: OccupancyGrid, partner: OccupancyGrid,
                      poses: list[Pose], cfg: WorldConfig) -> np.ndarray:
    """Noise-free ranges (poses, beams) a noisy scan at each pose is paired
    with: cast in the partner partial map where the pose lies inside it,
    beams that reach unexplored cells censored to max range, and in the
    full map, unexplored cells transparent, elsewhere.  One batched cast
    per map."""
    bearings = cfg.bearings
    ranges = np.empty((len(poses), len(bearings)))
    inside = np.array([partner.free_at(p.x, p.y) for p in poses], dtype=bool)
    for source, picked, unknown_stops in ((partner, inside, True),
                                          (grid, ~inside, False)):
        sel = np.flatnonzero(picked)
        if len(sel) == 0:
            continue
        xs = np.array([poses[k].x for k in sel])
        ys = np.array([poses[k].y for k in sel])
        thetas = np.array([poses[k].theta for k in sel])
        ts, first, state = _first_stop(source, xs[:, None], ys[:, None],
                                       thetas[:, None] + bearings[None, :],
                                       cfg.max_range, unknown_stops)
        hit = np.where(state == OCCUPIED, first, len(ts))
        ranges[sel] = np.append(ts, cfg.max_range)[hit].reshape(len(sel), -1)
    return ranges


def make_training_data(maps: list[OccupancyGrid], trajectories_per_map: int,
                       cfg: WorldConfig, params: ExtractionParams,
                       max_views: int = 16, trajectory_length: float = 60.0,
                       split_trajectories: bool = False) -> TrainingData:
    """Simulate exploration of each map, subsample views every 2 m of travel,
    and count view transitions.  Each noisy view is also paired with the view
    a revisiting robot would be compared against: the expected view in a
    partial map carved from a partner trajectory of the same map (with beams
    crossing unexplored cells censored to max range), falling back to the
    noise-free full-map view where the pose lies outside that partial map.
    This makes the learned confusion model honest about frontier effects, not
    just sensor noise.  The first PARTNER_FRACTION of the partner trajectory
    builds that partial map, leaving frontiers as sparse exploration does.

    With split_trajectories each trajectory becomes its own training sample
    (count matrix); otherwise one sample aggregates a whole map.
    """
    if not maps:
        raise ValueError("need at least one training map")
    for k, grid in enumerate(maps):  # before any map is simulated
        if not (grid.cells == FREE).any():
            raise ValueError(f"training map {k} has no FREE cell")
    rng = np.random.default_rng(cfg.seed)
    bearings = cfg.bearings
    # (map, trajectory, noisy view strings, reference ("true") view strings)
    samples: list[tuple[int, int, list[str], list[str]]] = []
    for m, grid in enumerate(maps):
        trajs = []
        for _ in range(trajectories_per_map):
            start = _random_free_pose(grid, rng)
            trajs.append(generate_trajectory(grid, start, "random_explore",
                                             trajectory_length, cfg, rng=rng))
        partials = []
        for t in trajs:
            keep = max(1, int(len(t.records) * PARTNER_FRACTION))
            prefix = Trajectory(records=t.records[:keep], truncated=t.truncated)
            partials.append(carve_partial_map(grid, prefix, cfg))
        for j, traj in enumerate(trajs):
            partner = partials[(j + 1) % len(partials)]
            picked = _subsample(traj.records, 2.0)
            ranges = _reference_ranges(grid, partner,
                                       [rec.true_pose for rec in picked], cfg)
            # the noisy scans are RangeScans, extracted through their memo
            samples.append((m, j, [_views.extract_scan_string(rec.scan, params)
                                   for rec in picked],
                            _views.extract_scan_strings(ranges, bearings,
                                                        cfg.max_range, params)))

    alphabet = alphabet_build([s for _, _, noisy, _ in samples for s in noisy],
                              max_views)
    counts, map_index, confusion = [], [], []  # as in TrainingData
    for m, j, noisy, clean in samples:
        if split_trajectories or j == 0:
            counts.append(dirichlet.new_counts(alphabet.nu))
            map_index.append(m)
            confusion.append([])
        f, pairs = counts[-1], confusion[-1]
        prev = None  # no transition across trajectory boundaries
        for s_noisy, s_clean in zip(noisy, clean):
            v = view_of(alphabet, s_noisy)
            pairs.append((view_of(alphabet, s_clean), v))
            if prev is not None:
                dirichlet.increment(f, prev, v)
            prev = v

    return TrainingData(alphabet=alphabet, counts=counts, map_index=map_index,
                        confusion_pairs=confusion)


def _random_free_pose(grid: OccupancyGrid, rng: np.random.Generator) -> Pose:
    rows, cols = np.nonzero(grid.cells == FREE)
    k = rng.integers(0, len(rows))
    return Pose(*grid.cell_center(rows[k], cols[k]), float(rng.uniform(-math.pi, math.pi)))


# ---------------------------------------------------------------- log format

def dump_trajectory(traj: Trajectory, cfg: WorldConfig) -> str:
    """One header line with the beam geometry, then one record per line:
    step, true pose, odometry delta, beam ranges."""
    lines = [f"beams {cfg.beam_count} fov {cfg.fov!r} max_range {cfg.max_range!r}"
             f" truncated {int(traj.truncated)}"]
    for k, rec in enumerate(traj.records):
        p = rec.true_pose
        fields = [str(k), repr(p.x), repr(p.y), repr(p.theta),
                  repr(rec.odom[0]), repr(rec.odom[1]), repr(rec.odom[2])]
        fields.extend(repr(float(v)) for v in rec.scan.ranges)
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def load_trajectory(text: str) -> tuple[Trajectory, dict]:
    """Parse a dump_trajectory log; a malformed line raises a ValueError
    that names it."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("beams "):
        raise ValueError("line 1: trajectory log must start with a 'beams' header")
    h = lines[0].split()
    try:
        if len(h) != 8 or h[2::2] != ["fov", "max_range", "truncated"]:
            raise ValueError
        header = {"beam_count": int(h[1]), "fov": float(h[3]),
                  "max_range": float(h[5]), "truncated": bool(int(h[7]))}
    except ValueError:
        raise ValueError("line 1: expected 'beams <N> fov <F> max_range <R> "
                         "truncated <T>'") from None
    if header["beam_count"] < 3:
        raise ValueError(f"line 1: need at least 3 beams, got {header['beam_count']}")
    if not all(math.isfinite(header[k]) and header[k] > 0 for k in ("fov", "max_range")):
        raise ValueError("line 1: fov and max_range must be finite and positive")
    bearings = default_bearings(header["beam_count"], header["fov"])
    bearings.flags.writeable = False  # shared by every record's scan
    n_fields = 7 + header["beam_count"]
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != n_fields:
            raise ValueError(f"line {lineno}: expected {n_fields} fields (index, "
                             f"pose, odometry, {header['beam_count']} ranges), "
                             f"got {len(parts)}")
        try:
            pose = Pose(float(parts[1]), float(parts[2]), float(parts[3]))
            odom = (float(parts[4]), float(parts[5]), float(parts[6]))
            if not all(map(math.isfinite, odom)):
                raise ValueError("odometry must be finite")
            ranges = np.array([float(v) for v in parts[7:]])
            scan = RangeScan(bearings, ranges, header["max_range"])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        records.append(TrajectoryRecord(true_pose=pose, odom=odom, scan=scan))
    return Trajectory(records=records, truncated=header["truncated"]), header
