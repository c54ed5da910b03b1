"""Synthetic worlds: noisy scan simulation, trajectory generation with
odometry, partial-map carving from a trajectory, and production of the
view-transition training data used to fit the structural prior."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import (FREE, OCCUPIED, UNKNOWN, OccupancyGrid, Pose, cell_index,
                   default_bearings, expected_view, raycast_full, _sample_cells,
                   _sample_distances, wrap_angle)
from .pfilter import MotionNoise
from .views import (ExtractionParams, RangeScan, ViewAlphabet, alphabet_build,
                    readonly, view_of)
from . import views as _views
from . import dirichlet

MAX_STEP = 0.25  # meters of travel per trajectory record
PARTNER_FRACTION = 0.5  # share of a partner run carved into a training partial map
POLICIES = ("waypoints", "wall_follow", "random_explore")  # generate_trajectory's walks


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
                  noise: np.ndarray | list | None = None,
                  uniforms: np.ndarray | list | None = None) -> list[RangeScan]:
    """One noisy scan per pose: the truth of one raycast_full call over all
    poses, plus range noise and dropout.

    noise and uniforms hold one row of cfg.beam_count draws per pose, as an
    array or a list of rows, or are None for no noise or no dropout.  A beam
    that hits takes its noise (drawn as N(0, cfg.range_noise_sigma)) and is
    clipped to [1e-6, max_range]; a beam whose uniform (drawn from [0, 1))
    is below cfg.dropout_prob then reads max_range.  The scans' ranges are
    read-only rows of one array, and their bearings the config's shared
    array."""
    if not all(grid.free_at(p.x, p.y) for p in poses):
        raise ValueError("scan pose must be in a FREE cell")
    ranges = raycast_full(grid, poses, cfg.bearings, cfg.max_range)
    if noise is not None:
        noisy = ranges + np.reshape(noise, ranges.shape)
        ranges = np.where(ranges < cfg.max_range,
                          np.clip(noisy, 1e-6, cfg.max_range), ranges)
    if uniforms is not None:
        ranges = np.where(np.reshape(uniforms, ranges.shape) < cfg.dropout_prob,
                          cfg.max_range, ranges)
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


class _Run(NamedTuple):
    """A walked run: its true poses, its noisy odometry, one row per pose of
    the range noise and of the dropout uniforms its scans are sensed with
    (None when not drawn), and whether it ended stuck."""
    poses: list[Pose]
    odoms: list[tuple[float, float, float]]
    noise: list[np.ndarray] | None
    uniforms: list[np.ndarray] | None
    truncated: bool


def _walk(grid: OccupancyGrid, start: Pose, policy, length: float,
          cfg: WorldConfig, rng: np.random.Generator, waypoints=None) -> _Run:
    """Walk a run without sensing it.  Each step makes the heading search,
    checks its pose is FREE, and draws its odometry noise, then its scan's
    range noise and dropout uniforms, from rng.  Sensing draws nothing, so
    which poses are then sensed leaves rng's stream as it is."""
    if not grid.free_at(start.x, start.y):
        raise ValueError("start pose must be in a FREE cell")
    if policy == "waypoints" and not waypoints:
        raise ValueError("waypoints policy requires a waypoint list")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    poses, odoms = [], []
    noise = [] if cfg.range_noise_sigma > 0 else None
    uniforms = [] if cfg.dropout_prob > 0 else None
    pose = start
    traveled = 0.0
    wp_idx = 0
    goal_heading = [None]
    max_turn = math.radians(35.0)
    stuck = 0
    truncated = False
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
        odoms.append(_noisy_odom(_odometry_delta(pose, new_pose), cfg.odom_noise, rng))
        if not grid.free_at(new_pose.x, new_pose.y):
            raise ValueError("scan pose must be in a FREE cell")
        if noise is not None:
            noise.append(rng.normal(0.0, cfg.range_noise_sigma, cfg.beam_count))
        if uniforms is not None:
            uniforms.append(rng.random(cfg.beam_count))
        poses.append(new_pose)
        pose = new_pose
    return _Run(poses, odoms, noise, uniforms, truncated)


def generate_trajectory(grid: OccupancyGrid, start: Pose, policy,
                        length: float, cfg: WorldConfig,
                        rng: np.random.Generator | None = None,
                        waypoints=None) -> Trajectory:
    """Collision-free true poses with step <= 0.25 m, noisy recorded odometry,
    and a simulated scan at every step.

    policy: 'waypoints' (requires waypoints list of (x, y)), 'wall_follow',
    or 'random_explore'.

    The run is walked by _walk, then every pose is sensed in one
    simulate_scan call.  Sensing draws nothing, so callers that sense fewer
    poses of a walk (make_training_data) or none (build_benchmark's
    explorations) leave rng as this does.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    run = _walk(grid, start, policy, length, cfg, rng, waypoints)
    scans = simulate_scan(grid, run.poses, cfg, run.noise, run.uniforms)
    records = [TrajectoryRecord(*rec) for rec in zip(run.poses, run.odoms, scans)]
    return Trajectory(records=records, truncated=run.truncated)


def carve_partial_map(grid: OccupancyGrid, trajectory: Trajectory | Sequence[Pose],
                      cfg: WorldConfig) -> OccupancyGrid:
    """Partial map as a robot along the trajectory (its records' true poses,
    or the given poses) would have built it: noise-free rays from every pose
    reveal the cells they traverse and the OCCUPIED cell that stops them,
    and a pose in a FREE cell reveals that cell; everything else stays
    UNKNOWN.  Only poses are read, so a run carved from need not be sensed.
    A pose off the grid raises a ValueError that names its record."""
    poses = ([r.true_pose for r in trajectory.records]
             if isinstance(trajectory, Trajectory) else list(trajectory))
    cells = grid.cells.ravel()
    seen = np.zeros(cells.size, dtype=bool)
    flat, on = cell_index(grid, np.array([p.x for p in poses], dtype=float),
                          np.array([p.y for p in poses], dtype=float))
    if not on.all():
        k = int(np.argmin(on))
        p = poses[k]
        raise ValueError(f"trajectory record {k}: pose ({p.x!r}, {p.y!r}) is off the map")
    seen[flat[cells[flat] == FREE]] = True
    ts = _sample_distances(grid, cfg.max_range)
    for pose in poses:
        angles = pose.theta + cfg.bearings
        # every sample up to and including the first OCCUPIED one
        flat, on = _sample_cells(grid, ts[None, :], pose.x, pose.y,
                                 np.cos(angles)[:, None], np.sin(angles)[:, None])
        occ = on & (cells.take(flat, mode="clip") == OCCUPIED)
        last = np.where(occ.any(axis=1), np.argmax(occ, axis=1), len(ts))
        seen[flat[on & (np.arange(len(ts)) <= last[:, None])]] = True
    carved = np.where(seen, cells, UNKNOWN).reshape(grid.shape)
    return OccupancyGrid(carved, grid.resolution, grid.origin)


def _subsample(poses: Iterable[Pose], spacing: float) -> list[int]:
    """The indices of the poses every >= spacing meters of travel, the first
    included."""
    picks = []
    dist = math.inf  # take the first pose
    prev = None
    for k, pose in enumerate(poses):
        if prev is not None:
            dist += math.hypot(pose.x - prev.x, pose.y - prev.y)
        prev = pose
        if dist < spacing:
            continue
        dist = 0.0
        picks.append(k)
    return picks


def subsampled_views(trajectory: Trajectory, alphabet: ViewAlphabet | None,
                     params: ExtractionParams, spacing: float = 2.0):
    """Scan strings (or view ids, when an alphabet is given) sampled every
    >= spacing meters of travel along the trajectory."""
    records = trajectory.records
    strings = [_views.extract_scan_string(records[k].scan, params)
               for k in _subsample((r.true_pose for r in records), spacing)]
    return strings if alphabet is None else [view_of(alphabet, s) for s in strings]


@dataclass
class TrainingData:
    """Per-sample counts along one sample axis of length S.  In counts,
    entry [s, i, j] counts sample s's view j followed by view i; in
    confusion, its true view j observed as i."""
    alphabet: ViewAlphabet
    counts: np.ndarray       # (S, nu, nu) int64 transition counts
    map_index: np.ndarray    # (S,) source map of each sample
    confusion: np.ndarray    # (S, nu, nu) int64 confusion counts


def _reference_views(grid: OccupancyGrid, partner: OccupancyGrid,
                     poses: list[Pose], alphabet: ViewAlphabet,
                     params: ExtractionParams, cfg: WorldConfig) -> list[int]:
    """The view id a noisy view at each pose is paired with: the partner
    partial map's expected_view where the pose lies inside it, and the
    noise-free full-map view, unexplored cells transparent, elsewhere."""
    inside = [partner.free_at(p.x, p.y) for p in poses]
    near = iter(expected_view(partner, [p for p, i in zip(poses, inside) if i],
                              alphabet, params, cfg.bearings, cfg.max_range).tolist())
    ranges = raycast_full(grid, [p for p, i in zip(poses, inside) if not i],
                          cfg.bearings, cfg.max_range)
    far = iter(_views.extract_scan_strings(ranges, cfg.bearings, cfg.max_range, params))
    return [next(near) if i else view_of(alphabet, next(far)) for i in inside]


def make_training_data(maps: list[OccupancyGrid], trajectories_per_map: int,
                       cfg: WorldConfig, params: ExtractionParams,
                       max_views: int = 16, trajectory_length: float = 60.0,
                       split_trajectories: bool = False) -> TrainingData:
    """Simulate exploration of each map, subsample views every 2 m of travel,
    and count view transitions.  Each noisy view is also counted as observed
    for the view a revisiting robot would compare it with: the expected view
    in a partial map carved from a partner trajectory of the same map (with
    beams crossing unexplored cells censored to max range), falling back to
    the noise-free full-map view where the pose lies outside that partial map.
    This makes the learned confusion model honest about frontier effects, not
    just sensor noise.  The first PARTNER_FRACTION of the partner trajectory
    builds that partial map, leaving frontiers as sparse exploration does.

    Each run is walked with every draw generate_trajectory makes, but only
    the poses the subsample picks are sensed.  Outputs are bit for bit those
    of subsampling whole generated trajectories.

    With split_trajectories each trajectory becomes its own training sample
    (a transition and a confusion count matrix); otherwise one sample
    aggregates a whole map.
    """
    if not maps:
        raise ValueError("need at least one training map")
    for k, grid in enumerate(maps):  # before any map is simulated
        if not (grid.cells == FREE).any():
            raise ValueError(f"training map {k} has no FREE cell")
    rng = np.random.default_rng(cfg.seed)
    # per map, per trajectory: the first PARTNER_FRACTION of its poses (the
    # partner map is carved from them only when its references are taken,
    # so one is held at a time), the picked poses and their noisy strings
    runs = [[] for _ in maps]
    for grid, map_runs in zip(maps, runs):
        for _ in range(trajectories_per_map):
            run = _walk(grid, _random_free_pose(grid, rng), "random_explore",
                        trajectory_length, cfg, rng)
            picks = _subsample(run.poses, 2.0)
            picked = [run.poses[k] for k in picks]
            scans = simulate_scan(grid, picked, cfg, *(
                None if rows is None else [rows[k] for k in picks]
                for rows in (run.noise, run.uniforms)))
            keep = max(1, int(len(run.poses) * PARTNER_FRACTION))
            map_runs.append((run.poses[:keep], picked,
                             [_views.extract_scan_string(scan, params) for scan in scans]))

    alphabet = alphabet_build([s for map_runs in runs for *_, noisy in map_runs
                               for s in noisy], max_views)
    counts, map_index, confusion = [], [], []  # as in TrainingData
    for m, (grid, map_runs) in enumerate(zip(maps, runs)):
        for j, (_, picked, noisy) in enumerate(map_runs):
            if split_trajectories or j == 0:
                counts.append(dirichlet.new_counts(alphabet.nu))
                confusion.append(dirichlet.new_counts(alphabet.nu))
                map_index.append(m)
            partner = carve_partial_map(grid, map_runs[(j + 1) % len(map_runs)][0], cfg)
            prev = None  # no transition across trajectory boundaries
            for s_noisy, clean in zip(noisy, _reference_views(grid, partner, picked,
                                                              alphabet, params, cfg)):
                v = view_of(alphabet, s_noisy)
                dirichlet.increment(confusion[-1], clean, v)
                if prev is not None:
                    dirichlet.increment(counts[-1], prev, v)
                prev = v

    return TrainingData(alphabet=alphabet, counts=np.array(counts),
                        map_index=np.array(map_index), confusion=np.array(confusion))


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


def load_trajectory(text: str) -> tuple[Trajectory, WorldConfig]:
    """Parse a dump_trajectory log into the trajectory and a WorldConfig of
    its header's beam geometry; a malformed line raises a ValueError that
    names it."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("beams "):
        raise ValueError("line 1: trajectory log must start with a 'beams' header")
    h = lines[0].split()
    try:
        if len(h) != 8 or h[2::2] != ["fov", "max_range", "truncated"]:
            raise ValueError
        beam_count, fov, max_range = int(h[1]), float(h[3]), float(h[5])
    except ValueError:
        raise ValueError("line 1: expected 'beams <N> fov <F> max_range <R> "
                         "truncated <T>'") from None
    if h[7] not in ("0", "1"):
        raise ValueError(f"line 1: truncated must be 0 or 1, got {h[7]!r}")
    try:
        cfg = WorldConfig(beam_count, fov, max_range)
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None
    n_fields = 7 + beam_count
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != n_fields:
            raise ValueError(f"line {lineno}: expected {n_fields} fields (index, "
                             f"pose, odometry, {beam_count} ranges), got {len(parts)}")
        if parts[0] != str(len(records)):
            raise ValueError(f"line {lineno}: record index must be {len(records)}, "
                             f"got {parts[0]!r}")
        try:
            pose = Pose(float(parts[1]), float(parts[2]), float(parts[3]))
            odom = (float(parts[4]), float(parts[5]), float(parts[6]))
            if not all(map(math.isfinite, odom)):
                raise ValueError("odometry must be finite")
            ranges = np.array([float(v) for v in parts[7:]])
            # every record's scan shares the config's read-only bearings
            scan = RangeScan(cfg.bearings, ranges, max_range)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        records.append(TrajectoryRecord(true_pose=pose, odom=odom, scan=scan))
    return Trajectory(records=records, truncated=h[7] == "1"), cfg
