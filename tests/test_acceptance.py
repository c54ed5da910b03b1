"""Acceptance gate: one test per shipped guarantee, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s`).

The directional benchmark comparisons (criteria 7 and 8) build the bundled
three-environment benchmark once per session; everything else runs in
seconds.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import gammaln

from mapmerge import benchmark, dirichlet, evalharness, fixtures, sim
from mapmerge import views as V
from mapmerge.grid import (FREE, OCCUPIED, OccupancyGrid, Pose, ViewField,
                           ScanLikelihoodParams, dump_map, raycast)
from mapmerge.pfilter import (FilterConfig, MotionNoise, ParticleSet,
                              init_filter, measurement_update, motion_update,
                              resample_if_needed)
from mapmerge.structure import FixedOutsideModel


def _report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print("\n" + line)
    assert ok, line


# --------------------------------------------------------------------------
# 1. Sequential predictive updates must reproduce the closed-form evidence of
#    the final counts, in any transition order.

def test_criterion_1_chain_rule_evidence_equivalence():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        nu = int(rng.integers(2, 5))
        length = int(rng.integers(1, 9))
        alpha = rng.uniform(0.05, 5.0, size=(nu, nu))
        seq = [(int(rng.integers(nu)), int(rng.integers(nu)))
               for _ in range(length)]  # (source, destination)

        def sequential(order):
            counts = dirichlet.new_counts(nu)
            total = 0.0
            for j, i in order:  # source j, destination i
                total += math.log(dirichlet.predictive(alpha, counts, i, j))
                dirichlet.increment(counts, j, i)
            return total, counts

        base, counts = sequential(seq)
        evidence = sum(dirichlet.log_evidence(alpha[:, j], counts[:, j][None, :])
                       for j in range(nu))
        worst = max(worst, abs(base - evidence))
        # orderings grouped by source view: permute each source's transitions
        # independently (capped enumeration; the groups are exchangeable so a
        # cap loses no distinct count outcome)
        groups = {}
        for j, i in seq:
            groups.setdefault(j, []).append((j, i))
        per_group = [list(itertools.islice(itertools.permutations(g), 8))
                     for g in groups.values()]
        for combo in itertools.islice(itertools.product(*per_group), 24):
            order = [t for g in combo for t in g]
            total, _ = sequential(order)
            worst = max(worst, abs(total - base))
    elapsed = time.perf_counter() - t0
    _report(1, "sequential predictives equal closed-form log evidence "
               "under any transition order",
            worst < 1e-9 and elapsed < 5.0,
            f"max |diff| {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Analytic evidence gradient vs central finite differences.

def test_criterion_2_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        nu = int(rng.integers(2, 5))
        k = int(rng.integers(1, 6))
        alpha_col = rng.uniform(0.1, 4.0, size=nu)
        data = rng.integers(0, 20, size=(k, nu)).astype(float)
        grad = dirichlet.log_evidence_grad(alpha_col, data)
        h = 1e-6
        for a in range(nu):
            up, dn = alpha_col.copy(), alpha_col.copy()
            up[a] += h
            dn[a] -= h
            fd = (dirichlet.log_evidence(up, data)
                  - dirichlet.log_evidence(dn, data)) / (2 * h)
            denom = max(abs(fd), 1e-12)
            worst = max(worst, abs(grad[a] - fd) / denom)
    elapsed = time.perf_counter() - t0
    _report(2, "evidence gradient matches central finite differences",
            worst < 1e-5 and elapsed < 5.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. MAP hyperparameter fit vs a dense grid-search oracle (two views).

def test_criterion_3_map_recovery_vs_grid_oracle():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    nu, n_envs, per_column = 2, 20, 500
    data = []
    for _ in range(n_envs):
        counts = np.zeros((nu, nu))
        for j in range(nu):
            p = rng.dirichlet([5.0, 1.0])
            counts[:, j] = rng.multinomial(per_column, p)
        data.append(counts)
    fitted = dirichlet.map_estimate(data)

    # oracle: per column, evidence summed over environments on a dense grid
    grid_vals = np.arange(0.05, 20.0 + 1e-9, 0.05)
    a1, a2 = np.meshgrid(grid_vals, grid_vals, indexing="ij")
    ok = True
    detail = []
    for j in range(nu):
        total = np.zeros_like(a1)
        for counts in data:
            f1, f2 = counts[0, j], counts[1, j]
            n = f1 + f2
            total += (gammaln(a1 + a2) - gammaln(a1 + a2 + n)
                      + gammaln(a1 + f1) - gammaln(a1)
                      + gammaln(a2 + f2) - gammaln(a2))
        oracle_best = float(total.max())
        attained = dirichlet.log_evidence(
            fitted[:, j], np.stack([counts[:, j] for counts in data]))
        ok = ok and attained >= oracle_best - 1e-3
        detail.append(f"col{j} gap {oracle_best - attained:+.2e}")
    elapsed = time.perf_counter() - t0
    _report(3, "MAP estimate attains grid-search oracle evidence",
            ok and elapsed < 60.0, ", ".join(detail) + f", {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 4. Particle filter vs the exact discrete Bayes filter on a 1-D corridor.

class _LineField:
    """View lookup for the 1-D world: the view depends only on the x cell."""

    def __init__(self, pattern: np.ndarray, x0: float, cell: float):
        self.pattern = pattern
        self.x0 = x0
        self.cell = cell

    def views_at(self, poses):
        idx = np.floor((np.atleast_2d(poses)[:, 0] - self.x0) / self.cell)
        return self.pattern[np.clip(idx.astype(int), 0, len(self.pattern) - 1)]


def test_criterion_4_exact_filter_agreement():
    t0 = time.perf_counter()
    n_cells, cell, x0 = 40, 1.0, 1.0
    # three views laid out in informative blocks
    pattern = np.array([0] * 8 + [1] * 6 + [0] * 6 + [2] * 8 + [1] * 6 + [2] * 6)
    assert len(pattern) == n_cells
    obs = np.array([[0.8, 0.1, 0.1],
                    [0.1, 0.8, 0.1],
                    [0.1, 0.1, 0.8]])  # p(z | v)
    field = _LineField(pattern, x0, cell)
    step_len, sigma = 0.6, 0.35
    n_steps, n_particles = 50, 10000

    # free band over x in [1, 41] with walls beyond both ends; headings stay
    # exactly zero (no rotation noise), so particles drift only along x and
    # leave the state space exactly where the oracle truncates it
    cells = np.full((30, int(43 / 0.5)), OCCUPIED, dtype=np.int8)
    cells[1:-1, 2:82] = FREE
    grid = OccupancyGrid(cells, 0.5)
    noise = MotionNoise(0, 0, 0, 0, floor_trans=sigma, floor_rot=0)

    # exact filter on a fine sub-grid of the 40 cells
    sub = 10
    fine = np.linspace(x0 + cell / (2 * sub), x0 + n_cells * cell - cell / (2 * sub),
                       n_cells * sub)
    kernel = np.exp(-0.5 * ((fine[:, None] - fine[None, :] - step_len) / sigma) ** 2)
    emission = obs[:, pattern]  # (3, 40)

    failures = 0
    for run in range(20):
        rng = np.random.default_rng(1000 + run)
        true_x = 3.0
        ps = init_filter(grid, n_particles, seed=2000 + run)
        ps.poses[:, 0] = x0 + rng.random(n_particles) * n_cells * cell
        ps.poses[:, 1] = 7.5
        ps.poses[:, 2] = 0.0
        exact = np.ones(len(fine)) / len(fine)
        worst_tv = 0.0
        for _ in range(n_steps):
            true_x = min(true_x + step_len, x0 + n_cells * cell - 0.5)
            true_cell = int((true_x - x0) / cell)
            z = int(rng.choice(3, p=obs[:, pattern[true_cell]]))

            motion_update(ps, (step_len, 0.0, 0.0), noise, grid)
            measurement_update(ps, None, z, FixedOutsideModel(1e-12), grid,
                               None, bounds_factor=None, outside_enabled=True,
                               obs_model=obs, view_field=field)
            resample_if_needed(ps)

            exact = kernel @ exact
            exact *= np.repeat(emission[z], sub)
            exact /= exact.sum()

            w = np.where(ps.inside, ps.weights(), 0.0)
            idx = np.clip(((ps.poses[:, 0] - x0) / cell).astype(int),
                          0, n_cells - 1)
            pf_hist = np.bincount(idx, weights=w, minlength=n_cells)
            pf_hist /= pf_hist.sum()
            exact_hist = exact.reshape(n_cells, sub).sum(axis=1)
            worst_tv = max(worst_tv, 0.5 * float(np.abs(pf_hist - exact_hist).sum()))
        if worst_tv >= 0.05:
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(4, "particle filter tracks the exact discrete Bayes filter",
            failures <= 1 and elapsed < 60.0,
            f"{failures}/20 runs exceeded TV 0.05, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 5. With every particle inside a complete map, disabling the outside branch
#    must not change a single weight bit.

def test_criterion_5_inside_only_reduction():
    grid = fixtures.rooms_world()
    cfg = sim.WorldConfig(seed=5)
    traj = sim.generate_trajectory(grid, Pose(5.0, 5.0, 0.0), "random_explore",
                                   20.0, cfg)
    alphabet = V.alphabet_build(
        sim.subsampled_views(traj, None, V.ExtractionParams()), max_views=6)
    obs = np.full((alphabet.nu, alphabet.nu), 0.02)
    np.fill_diagonal(obs, 1.0 - 0.02 * (alphabet.nu - 1))
    field = ViewField(grid, alphabet, V.ExtractionParams())
    noise = MotionNoise(floor_trans=0.005, floor_rot=0.001)

    def run(outside_enabled):
        ps = init_filter(grid, 2000, seed=55)
        # keep particles strictly interior so none can leave the free space
        ps.poses[:, 0] = np.clip(ps.poses[:, 0], 2.0, 28.0)
        ps.poses[:, 1] = np.clip(ps.poses[:, 1], 2.0, 18.0)
        logs = []
        for rec in traj.records[:40]:
            motion_update(ps, rec.odom, noise, grid)
            if not ps.inside.all():
                ps.inside[:] = True  # identical adjustment on both runs
            s = V.extract_scan_string(rec.scan, V.ExtractionParams())
            z = V.view_of(alphabet, s)
            measurement_update(ps, rec.scan, z, FixedOutsideModel(0.05), grid,
                               ScanLikelihoodParams(), bounds_factor=None,
                               outside_enabled=outside_enabled,
                               obs_model=obs, view_field=field)
            logs.append(ps.log_weights.copy())
            resample_if_needed(ps)
        return logs

    with_branch = run(True)
    without_branch = run(False)
    same = all(np.array_equal(a, b) for a, b in zip(with_branch, without_branch))
    _report(5, "all-inside filter reduces bitwise to the no-outside filter",
            same, f"{len(with_branch)} steps compared")


# --------------------------------------------------------------------------
# 6. View extraction fixtures and mirror symmetry.

def test_criterion_6_view_extraction_fixtures():
    params = V.ExtractionParams()
    cfg_bearings = np.linspace(-math.pi / 2, math.pi / 2, 181)

    corridor = fixtures.corridor()
    scan = raycast(corridor, Pose(6.0, 2.5, 0.0), cfg_bearings, 8.0)
    s_corridor = V.extract_scan_string(scan, params)

    gap = fixtures.corridor_with_left_opening()
    scan2 = raycast(gap, Pose(3.0, 5.0, 0.0), cfg_bearings, 8.0)
    s_gap = V.extract_scan_string(scan2, params)

    rng = np.random.default_rng(6)
    deterministic = mirror = True
    for _ in range(1000):
        n = int(rng.integers(30, 181))
        angles = np.linspace(-math.pi / 2, math.pi / 2, n)
        base = rng.uniform(0.5, 7.9, size=4)
        knots = np.linspace(-math.pi / 2, math.pi / 2, 4)
        ranges = np.clip(np.interp(angles, knots, base)
                         + rng.normal(0, 0.05, n), 0.1, 8.0)
        if rng.random() < 0.3:
            lo = int(rng.integers(0, n - 5))
            hi = lo + int(rng.integers(3, min(25, n - lo)))
            ranges[lo:hi] = 8.0
        scan = V.RangeScan(angles, ranges, 8.0)
        s = V.extract_scan_string(scan, params)
        deterministic &= (V.extract_scan_string(scan, params) == s)
        mirror &= (V.extract_scan_string(scan.mirrored(), params) == s[::-1])

    ok = (s_corridor == "wmw"
          and V.canonicalize(s_gap) == V.canonicalize("wmwgw")
          and deterministic and mirror)
    _report(6, "corridor reads 'wmw', left gap reads 'wmwgw', extraction "
               "deterministic and mirror-symmetric",
            ok, f"corridor={s_corridor!r} gap={s_gap!r}")


# --------------------------------------------------------------------------
# 7 & 8. Directional benchmark comparisons.

METHODS = ["hierarchical_adaptive", "prior_only", "frequency_only",
           "scaled_counts"] + [f"fixed:{l}" for l in evalharness.DEFAULT_FIXED]


@pytest.fixture(scope="module")
def benchmark_points():
    t0 = time.perf_counter()
    bm = benchmark.build_benchmark(seed=0)
    eval_cfg = evalharness.EvalConfig()
    fc = FilterConfig(n_particles=5000, seed=7)
    results = []
    field_cache = {}
    for pair in bm.pairs:
        bundle = bm.priors[pair.environment]
        key = id(pair.partial_map)
        if key not in field_cache:
            field_cache[key] = ViewField(pair.partial_map, bundle.alphabet,
                                         bundle.extraction)
        for method in METHODS:
            results.append(evalharness.evaluate_pair(
                pair.partial_map, pair.trajectory, method, bundle, fc,
                eval_cfg, environment=pair.environment, offset=pair.offset,
                view_field=field_cache[key]))
    points = evalharness.precision_recall(results, eval_cfg)
    by_method = {}
    for p in points:
        by_method.setdefault(p.method, []).append(p)
    return bm, by_method, time.perf_counter() - t0


@pytest.mark.slow
def test_criterion_7_adaptive_beats_fixed_baselines(benchmark_points):
    bm, by_method, elapsed = benchmark_points
    n_partials = len({id(p.partial_map) for p in bm.pairs})
    assert n_partials >= 15 and len(bm.pairs) >= 60
    fixed = [m for m in METHODS if m.startswith("fixed:")]
    adaptive = by_method["hierarchical_adaptive"]
    ok, strictly_better, checked = True, False, 0
    for p in adaptive:
        if p.recall < 0.2 or p.precision is None:
            continue
        checked += 1
        best = max((evalharness.precision_at_recall(by_method[f], p.recall)
                    or 0.0) for f in fixed)
        if p.precision < best - 1e-12:
            ok = False
        if p.precision > best:
            strictly_better = True
    _report(7, "adaptive precision >= best fixed baseline at matched recall, "
               "strictly better somewhere",
            ok and strictly_better and checked > 0 and elapsed < 900.0,
            f"{checked} operating points, benchmark+eval {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_structure_learning_ordering(benchmark_points):
    _, by_method, _ = benchmark_points
    auc = {m: evalharness.auc_pr(by_method[m])
           for m in ("frequency_only", "prior_only", "hierarchical_adaptive")}
    ok = (auc["frequency_only"] < auc["prior_only"]
          <= auc["hierarchical_adaptive"])
    _report(8, "AUC-PR ordering frequency_only < prior_only <= adaptive",
            ok, ", ".join(f"{m}={v:.3f}" for m, v in auc.items()))


# --------------------------------------------------------------------------
# 9. CLI pipelines are bitwise deterministic under fixed seeds.

def test_criterion_9_cli_determinism(tmp_path):
    d = tmp_path
    (d / "world.map").write_text(dump_map(fixtures.corridor()))

    def run(*args):
        r = subprocess.run([sys.executable, "-m", "mapmerge.cli", *args],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        return r

    def pipeline():
        run("simulate", "--map", str(d / "world.map"), "--policy", "waypoints",
            "--waypoints", "17,2.5", "--start", "3,2.5,0", "--length", "10",
            "--seed", "3", "--out", str(d / "run.traj"))
        run("carve", "--map", str(d / "world.map"),
            "--trajectory", str(d / "run.traj"), "--out", str(d / "part.map"))
        run("train-prior", "--maps", str(d / "world.map"),
            "--trajectories-per-map", "1", "--length", "20", "--max-views",
            "6", "--seed", "4", "--out", str(d / "prior.json"))
        run("localize", "--map", str(d / "part.map"), "--prior",
            str(d / "prior.json"), "--trajectory", str(d / "run.traj"),
            "--particles", "500", "--seed", "7", "--out", str(d / "steps.log"))
        return {f: (d / f).read_text()
                for f in ("run.traj", "part.map", "prior.json", "steps.log")}

    first = pipeline()
    second = pipeline()
    same = first == second
    _report(9, "CLI pipeline rerun with identical seeds is bitwise identical",
            same, "4 output files compared")


# --------------------------------------------------------------------------
# 10. Measurement-update throughput.

def test_criterion_10_measurement_update_throughput():
    rng = np.random.default_rng(10)
    cells = np.full((200, 200), FREE, dtype=np.int8)
    cells[0, :] = cells[-1, :] = cells[:, 0] = cells[:, -1] = OCCUPIED
    cells[rng.random((200, 200)) < 0.02] = OCCUPIED
    grid = OccupancyGrid(cells, 0.1)
    alphabet = V.ViewAlphabet(("wmw", "wcw", "m", V.OTHER))
    obs = np.full((4, 4), 0.05)
    np.fill_diagonal(obs, 0.85)
    field = ViewField(grid, alphabet, V.ExtractionParams())
    angles = np.linspace(-math.pi / 2, math.pi / 2, 181)
    scan = V.RangeScan(angles, np.full(181, 4.0), 8.0)

    times = []
    for k in range(15):
        ps = init_filter(grid, 10000, seed=k)
        t0 = time.perf_counter()
        measurement_update(ps, scan, 0, FixedOutsideModel(0.1), grid,
                           ScanLikelihoodParams(), obs_model=obs,
                           view_field=field)
        times.append(time.perf_counter() - t0)
    median_ms = float(np.median(times)) * 1000.0
    _report(10, "measurement update for 10,000 particles on a 200x200 grid "
                "under 50 ms median",
            median_ms < 50.0, f"median {median_ms:.1f} ms")
