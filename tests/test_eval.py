"""Evaluation harness, model serialization, and CLI pipelines."""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from mapmerge import cli, dirichlet, evalharness, fixtures, sim, training
from mapmerge.evalharness import (EvalConfig, PRPoint, PairResult, StepOutcome,
                                  auc_pr, known_area_ratio, method_builder,
                                  apply_offset, precision_at_recall,
                                  precision_recall, pr_table)
from mapmerge.grid import (UNKNOWN, FREE, OCCUPIED, OccupancyGrid, Pose,
                           default_bearings, dump_map, raycast)
from mapmerge.modelio import PriorBundle, dump_prior, load_prior
from mapmerge.pfilter import FilterConfig, FilterDivergence
from mapmerge.structure import FixedOutsideModel, MarginalOutsideModel, StructureState
from mapmerge.views import ExtractionParams, alphabet_build, extract_scan_string, view_of


def tiny_bundle(nu=3):
    alphabet = alphabet_build(["wmw", "wgw"], max_views=nu)
    alpha = np.ones((alphabet.nu, alphabet.nu))
    obs = np.eye(alphabet.nu) * (1.0 - 0.05 * alphabet.nu) + 0.05  # columns sum to 1
    marg = np.full(alphabet.nu, 1.0 / alphabet.nu)
    return PriorBundle(alphabet=alphabet, alpha=alpha, obs_model=obs,
                       marginals=marg, extraction=ExtractionParams())


class TestModelIO:
    def test_round_trip(self):
        bundle = tiny_bundle()
        loaded = load_prior(dump_prior(bundle))
        assert loaded.alphabet.entries == bundle.alphabet.entries
        np.testing.assert_array_equal(loaded.alpha, bundle.alpha)
        np.testing.assert_array_equal(loaded.obs_model, bundle.obs_model)
        np.testing.assert_array_equal(loaded.marginals, bundle.marginals)
        assert loaded.extraction == bundle.extraction

    def test_hash_mismatch_rejected(self):
        doc = json.loads(dump_prior(tiny_bundle()))
        doc["alphabet"] = ["wcw", "wmw", "*"]
        with pytest.raises(ValueError, match="hash"):
            load_prior(json.dumps(doc))

    def test_legacy_counts_key_ignored(self):
        # older prior files carried the training transition counts
        bundle = tiny_bundle()
        doc = json.loads(dump_prior(bundle))
        assert "counts" not in doc
        doc["counts"] = [[[1, 0, 2], [0, 0, 0], [3, 1, 0]]]
        loaded = load_prior(json.dumps(doc))
        assert dump_prior(loaded) == dump_prior(bundle)

    def test_shape_mismatch_rejected(self):
        b = tiny_bundle()
        with pytest.raises(ValueError):
            PriorBundle(alphabet=b.alphabet, alpha=np.ones((2, 2)),
                        obs_model=b.obs_model, marginals=b.marginals,
                        extraction=b.extraction)


class TestOutsideModels:
    def test_fixed_method_constant(self):
        m = method_builder("fixed:0.037")(tiny_bundle(), None)
        assert isinstance(m, FixedOutsideModel)
        assert m.step(0) == pytest.approx(0.037)

    def test_structure_methods_weigh_counts(self):
        b = tiny_bundle()
        m = method_builder("hierarchical_adaptive")(b, None)
        assert isinstance(m, StructureState)
        assert m.count_scale == 1.0
        assert method_builder("prior_only")(b, None).count_scale == 0.0
        assert isinstance(method_builder("frequency_only")(b, None), MarginalOutsideModel)

    def test_every_method_builds_a_positive_model(self):
        assert list(evalharness.METHODS) == ["hierarchical_adaptive", "prior_only",
                                             "frequency_only", "scaled_counts"]
        partial = OccupancyGrid(np.full((4, 4), FREE, dtype=np.int8), 0.1)
        for method, build in evalharness.METHODS.items():
            for model in (build(tiny_bundle(), partial),
                          method_builder(method)(tiny_bundle(), partial)):
                for z in (0, 1, 0):
                    out = model.step(z)
                    assert type(out) is float and out > 0.0, method

    @pytest.mark.parametrize("method, message", [
        ("bogus", "unknown method 'bogus'"),
        ("fixed:abc", "method 'fixed:abc': fixed outside likelihood"),
        ("fixed:", "method 'fixed:': fixed outside likelihood")])
    def test_unknown_method_rejected(self, method, message):
        with pytest.raises(ValueError, match=message):
            method_builder(method)

    def test_scaled_counts_uses_area_ratio(self):
        cells = np.full((10, 10), UNKNOWN, dtype=np.int8)
        cells[:5, :] = FREE
        partial = OccupancyGrid(cells, 0.1)
        assert known_area_ratio(partial) == pytest.approx(0.5)
        m = method_builder("scaled_counts")(tiny_bundle(), partial)
        assert m.count_scale == pytest.approx(2.0)
        with pytest.raises(ValueError):
            method_builder("scaled_counts")(tiny_bundle(), None)


class TestApplyOffset:
    def test_identity(self):
        p = Pose(1.0, 2.0, 0.5)
        q = apply_offset(p, (0.0, 0.0, 0.0))
        assert (q.x, q.y, q.theta) == (p.x, p.y, p.theta)

    def test_rotation_translation(self):
        q = apply_offset(Pose(1.0, 0.0, 0.0), (0.0, 0.0, math.pi / 2))
        assert q.x == pytest.approx(0.0, abs=1e-12)
        assert q.y == pytest.approx(1.0)
        assert q.theta == pytest.approx(math.pi / 2)


def outcomes(*triples):
    return [StepOutcome(p, c, m) for p, c, m in triples]


class TestPrecisionRecall:
    def test_all_valid_and_correct(self):
        res = [PairResult("e", "m", outcomes((0.9, True, True),
                                             (0.8, True, True),
                                             (None, False, True)))]
        cfg = EvalConfig(thresholds=(0.5,))
        pts = precision_recall(res, cfg)
        assert pts[0].precision == pytest.approx(1.0)
        assert pts[0].recall == pytest.approx(2.0 / 3.0)

    def test_threshold_above_everything(self):
        res = [PairResult("e", "m", outcomes((0.3, True, True)))]
        cfg = EvalConfig(thresholds=(0.9,))
        pts = precision_recall(res, cfg)
        assert pts[0].precision is None
        assert pts[0].n_valid == 0
        assert pts[0].recall == 0.0

    def test_recall_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        steps = outcomes(*[(float(rng.random()), bool(rng.random() < 0.6), True)
                           for _ in range(200)])
        res = [PairResult("e", "m", steps)]
        pts = precision_recall(res, EvalConfig())
        recalls = [p.recall for p in pts]
        assert all(b <= a + 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_environment_averaging(self):
        # env A: precision 1.0; env B: precision 0.0 -> macro average 0.5
        res = [PairResult("A", "m", outcomes((0.9, True, True))),
               PairResult("B", "m", outcomes((0.9, False, True)))]
        pts = precision_recall(res, EvalConfig(thresholds=(0.5,)))
        assert pts[0].precision == pytest.approx(0.5)
        assert pts[0].n_valid == 2

    def test_never_in_map_recall_empty(self):
        res = [PairResult("e", "m", outcomes((0.9, False, False)))]
        pts = precision_recall(res, EvalConfig(thresholds=(0.5,)))
        assert pts[0].time_in_map == 0
        assert pts[0].recall == 0.0

    def test_table_format(self):
        res = [PairResult("e", "m", outcomes((0.9, True, True)))]
        pts = precision_recall(res, EvalConfig(thresholds=(0.5,)))
        table = pr_table(pts)
        assert table.splitlines()[0] == ("method,theta,precision,recall,"
                                         "n_valid,n_correct,time_in_map,time_correct")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(thresholds=(0.5, 0.1))

    @pytest.mark.parametrize("thresholds", [(math.nan,), (0.5, 2.0), (-0.1, 0.5),
                                            (0.5, math.inf)])
    def test_thresholds_outside_unit_interval_rejected(self, thresholds):
        with pytest.raises(ValueError, match=r"thresholds must be finite numbers in \[0, 1\]"):
            EvalConfig(thresholds=thresholds)
        with pytest.raises(ValueError):
            EvalConfig(tolerance_xy=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["tolerance_xy", "tolerance_theta"])
    def test_tolerances_must_be_finite_and_positive(self, name, value):
        # a NaN tolerance passed a `<= 0` test and then judged every pose wrong
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            EvalConfig(**{name: value})


class TestCurveSummaries:
    def mk(self, pairs):
        return [PRPoint("m", 0.5, p, r, 1, 1, 1, 1) for p, r in pairs]

    def test_auc_rectangle(self):
        pts = self.mk([(1.0, 0.0), (1.0, 0.5), (1.0, 1.0)])
        assert auc_pr(pts) == pytest.approx(1.0)

    def test_auc_triangle(self):
        pts = self.mk([(1.0, 0.0), (0.0, 1.0)])
        assert auc_pr(pts) == pytest.approx(0.5)

    def test_precision_at_recall(self):
        pts = self.mk([(0.9, 0.1), (0.7, 0.3), (0.5, 0.6)])
        assert precision_at_recall(pts, 0.2) == pytest.approx(0.7)
        assert precision_at_recall(pts, 0.9) is None


class TestEvaluatePair:
    def test_fixed_method_end_to_end(self):
        grid = fixtures.corridor()
        cfg = sim.WorldConfig(seed=1)
        bundle = training.train_prior_bundle([grid], cfg, ExtractionParams(),
                                             trajectories_per_map=1,
                                             max_views=6,
                                             trajectory_length=25.0)
        traj = sim.generate_trajectory(grid, Pose(3.0, 2.5, 0.0), "waypoints",
                                       10.0, cfg, waypoints=[(17.0, 2.5)])
        fc = FilterConfig(n_particles=1500, seed=2)
        res = evalharness.evaluate_pair(grid, traj, "fixed:0.001", bundle, fc,
                                        EvalConfig(), environment="corridor")
        assert res.method == "fixed:0.001"
        assert all(s.in_map for s in res.steps)  # complete map: always inside
        assert res.steps  # at least one measurement step happened


class TestSequenceLogScore:
    @pytest.fixture(scope="class")
    @staticmethod
    def pair():
        """A partial map, a trained prior and a run that leaves the map."""
        world = fixtures.corridor(length=30.0)
        cfg = sim.WorldConfig(seed=8)
        bundle = training.train_prior_bundle([fixtures.corridor_with_left_opening()],
                                             cfg, ExtractionParams(),
                                             trajectories_per_map=1,
                                             max_views=8, trajectory_length=20.0)
        explore = sim.generate_trajectory(world, Pose(2.0, 2.5, 0.0), "waypoints",
                                          8.0, cfg, waypoints=[(12.0, 2.5)])
        partial = sim.carve_partial_map(world, explore, cfg)
        traj = sim.generate_trajectory(world, Pose(2.5, 2.5, 0.0), "waypoints",
                                       20.0, cfg, waypoints=[(28.0, 2.5)])
        return partial, bundle, traj

    @pytest.mark.parametrize("level", [0.01, 0.3])
    def test_fixed_method_scores_steps_times_log_level(self, pair, level):
        partial, bundle, traj = pair
        score = evalharness.sequence_log_score(partial, traj, f"fixed:{level}", bundle,
                                               view_distance=1.0)
        assert score.outside_steps > 0 and score.in_map_steps > 0
        assert score.outside == score.outside_steps * math.log(level)
        assert score.in_map == score.in_map_steps * math.log(level)
        # the same steps, split as evaluate_pair judges them
        res = evalharness.evaluate_pair(partial, traj, f"fixed:{level}", bundle,
                                        FilterConfig(n_particles=50, seed=1,
                                                     view_update_distance=1.0),
                                        EvalConfig())
        assert score.in_map_steps == sum(s.in_map for s in res.steps)
        assert score.outside_steps == sum(not s.in_map for s in res.steps)

    @pytest.mark.parametrize("power", [-20, -3, 1, 30])
    def test_prior_only_reads_column_means_only(self, pair, power):
        partial, bundle, traj = pair
        scaled = replace(bundle, alpha=bundle.alpha * 2.0 ** power)
        assert (evalharness.sequence_log_score(partial, traj, "prior_only", scaled)
                == evalharness.sequence_log_score(partial, traj, "prior_only", bundle))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=25),
           st.integers(0, 2**32 - 1))
    def test_adaptive_score_is_transition_evidence(self, seq, seed):
        # with an identity observation model each view is its own ML view,
        # so after the first step the adaptive model is the chain rule of
        # the sequence's transition counts (criterion 1)
        world = fixtures.office_world()
        poses = [Pose(1.5, 10.0, 0.0), Pose(1.5, 10.0, 1.57), Pose(1.5, 10.0, 3.14),
                 Pose(2.5, 2.5, 0.0)]
        scans = [raycast(world, p, default_bearings(), 8.0) for p in poses]
        strings = [extract_scan_string(sc, ExtractionParams()) for sc in scans]
        alphabet = alphabet_build(strings[:3], max_views=4)  # the last reads OTHER
        ids = [view_of(alphabet, s) for s in strings]
        assert sorted(ids) == [0, 1, 2, 3]
        alpha = np.random.default_rng(seed).uniform(0.05, 5.0, (4, 4))
        bundle = PriorBundle(alphabet, alpha, np.eye(4), np.full(4, 0.25),
                             ExtractionParams())
        records = [sim.TrajectoryRecord(poses[0], (2.0, 0.0, 0.0), scans[v]) for v in seq]

        def total(n):
            s = evalharness.sequence_log_score(world, sim.Trajectory(records[:n]),
                                               "hierarchical_adaptive", bundle)
            assert (s.in_map_steps, s.outside_steps) == (n, 0)
            return s.in_map

        counts = dirichlet.new_counts(4)
        for j, i in zip(seq, seq[1:]):
            dirichlet.increment(counts, ids[j], ids[i])
        evidence = sum(dirichlet.log_evidence(alpha[:, j], counts[:, j][None, :])
                       for j in range(4))
        assert total(len(seq)) - total(1) == pytest.approx(evidence, rel=1e-9, abs=1e-9)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "mapmerge.cli", *args],
                          capture_output=True, text=True)


class TestCLI:
    @pytest.fixture(scope="class")
    @staticmethod
    def workdir(tmp_path_factory):
        d = tmp_path_factory.mktemp("cli")
        (d / "world.map").write_text(dump_map(fixtures.corridor()))
        return d

    def test_pipeline_and_determinism(self, workdir):
        d = workdir
        sim_args = ["simulate", "--map", str(d / "world.map"),
                    "--policy", "waypoints", "--waypoints", "17,2.5",
                    "--start", "3,2.5,0", "--length", "10", "--seed", "3",
                    "--out", str(d / "run.traj")]
        assert run_cli(*sim_args).returncode == 0
        first = (d / "run.traj").read_text()
        assert run_cli(*sim_args).returncode == 0
        assert (d / "run.traj").read_text() == first  # bitwise rerun

        r = run_cli("carve", "--map", str(d / "world.map"),
                    "--trajectory", str(d / "run.traj"),
                    "--out", str(d / "partial.map"))
        assert r.returncode == 0
        assert "?" in (d / "partial.map").read_text()

        r = run_cli("train-prior", "--maps", str(d / "world.map"),
                    "--trajectories-per-map", "1", "--length", "20",
                    "--max-views", "6", "--seed", "4",
                    "--out", str(d / "prior.json"))
        assert r.returncode == 0

        loc_args = ["localize", "--map", str(d / "partial.map"),
                    "--prior", str(d / "prior.json"),
                    "--trajectory", str(d / "run.traj"),
                    "--particles", "800", "--seed", "7",
                    "--out", str(d / "steps.log")]
        assert run_cli(*loc_args).returncode == 0
        log1 = (d / "steps.log").read_text()
        assert run_cli(*loc_args).returncode == 0
        assert (d / "steps.log").read_text() == log1  # seeded determinism

        manifest = {"pairs": [{"partial_map": str(d / "partial.map"),
                               "trajectory": str(d / "run.traj"),
                               "prior": str(d / "prior.json"),
                               "environment": "corridor"}]}
        (d / "manifest.json").write_text(json.dumps(manifest))
        r = run_cli("evaluate", "--manifest", str(d / "manifest.json"),
                    "--methods", "fixed:0.001,prior_only",
                    "--particles", "800", "--seed", "7",
                    "--out", str(d / "pr.csv"))
        assert r.returncode == 0
        table = (d / "pr.csv").read_text()
        assert table.splitlines()[0] == ("method,theta,precision,recall,"
                                         "n_valid,n_correct,time_in_map,time_correct")

    def test_bad_file_nonzero_exit(self, workdir):
        r = run_cli("carve", "--map", str(workdir / "missing.map"),
                    "--trajectory", str(workdir / "missing.traj"),
                    "--out", str(workdir / "x.map"))
        assert r.returncode != 0
        assert r.stderr.strip()

    @pytest.mark.parametrize("text, line", [
        ("beams 181\n", 1),
        ("beams 3 fov 3.14 max_range 8.0 truncated 0\n0 1.0 2.0\n", 2)])
    def test_malformed_trajectory_one_line_error(self, workdir, capsys, text, line):
        (workdir / "bad.traj").write_text(text)
        code = cli.main(["carve", "--map", str(workdir / "world.map"),
                         "--trajectory", str(workdir / "bad.traj"),
                         "--out", str(workdir / "x.map")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {workdir / 'bad.traj'}: line {line}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["carve", "localize"])
    def test_trajectory_header_beyond_world_config_one_line_error(self, workdir, capsys,
                                                                  command):
        # both commands read the log's header as one WorldConfig
        path = workdir / "fov7.traj"
        path.write_text("beams 3 fov 7.0 max_range 8.0 truncated 0\n"
                        "0 3.0 2.5 0.0 0.1 0.0 0.0 5.0 5.0 5.0\n")
        (workdir / "ok.json").write_text(dump_prior(tiny_bundle()))
        prior = ["--prior", str(workdir / "ok.json")] if command == "localize" else []
        code = cli.main([command, "--map", str(workdir / "world.map"), *prior,
                         "--trajectory", str(path), "--out", str(workdir / "fov7.out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: fov must lie in (0, 2*pi], got 7.0\n")
        assert not (workdir / "fov7.out").exists()

    @pytest.mark.parametrize("text, message", [
        ("resolution 0.1\n\n...\n", "line 2: expected 'origin <x> <y>'"),
        ("resolutoin 0.1\norigin 0 0\n...\n", "line 1: expected 'resolution <meters>'"),
        ("resolution 0.1\norigin 0 0\n\n", "line 3: empty row")])
    def test_malformed_map_one_line_error(self, workdir, capsys, text, message):
        (workdir / "bad.map").write_text(text)
        cfg = sim.WorldConfig(seed=1)
        traj = sim.generate_trajectory(fixtures.corridor(), Pose(3.0, 2.5, 0.0),
                                       "waypoints", 1.0, cfg, waypoints=[(8.0, 2.5)])
        (workdir / "ok.traj").write_text(sim.dump_trajectory(traj, cfg))
        code = cli.main(["carve", "--map", str(workdir / "bad.map"),
                         "--trajectory", str(workdir / "ok.traj"),
                         "--out", str(workdir / "x.map")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {workdir / 'bad.map'}: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [], "prior file must hold a JSON object"),
        (lambda doc: {"alphabet": 5}, "prior field 'alphabet' must be a list of strings"),
        (lambda doc: {k: v for k, v in doc.items() if k != "alphabet"},
         "prior file has no 'alphabet' field"),
        (lambda doc: {**doc, "alphabet": ["w", 3, "*"]},
         "prior field 'alphabet' must be a list of strings"),
        (lambda doc: {**doc, "alphabet_hash": None},
         "prior field 'alphabet_hash' must be a string"),
        (lambda doc: {**doc, "nu": "3"}, "prior field 'nu' must be an integer"),
        (lambda doc: {**doc, "alpha": "dense"},
         "prior field 'alpha' must be a (nested) list of finite numbers"),
        (lambda doc: {**doc, "alpha": [[1.0, "x"], [1.0, 1.0]]},
         "prior field 'alpha' must be a (nested) list of finite numbers"),
        (lambda doc: {**doc, "observation_model": [[1.0], [1.0, 2.0]]},
         "prior field 'observation_model' must be a (nested) list of finite numbers"),
        (lambda doc: {k: v for k, v in doc.items() if k != "marginals"},
         "prior file has no 'marginals' field"),
        (lambda doc: {**doc, "alpha": [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]},
         "prior field 'alpha' must be positive"),
        (lambda doc: {**doc, "observation_model": [[1.1, 0.0, 0.0], [-0.1, 1.0, 0.0],
                                                   [0.0, 0.0, 1.0]]},
         "prior field 'observation_model' must be positive with every column"
         " summing to 1"),
        (lambda doc: {**doc, "observation_model": [[0.9, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                   [0.0, 0.0, 1.0]]},
         "prior field 'observation_model' must be positive with every column"
         " summing to 1"),
        # an all-zero row: every column sums to 1, but that view has
        # likelihood 0 under every true view
        (lambda doc: {**doc, "observation_model": [
            [0.0, 0.0, 0.0],
            [a + b for a, b in zip(*doc["observation_model"][:2])],
            doc["observation_model"][2]]},
         "prior field 'observation_model' must be positive with every column"
         " summing to 1"),
        (lambda doc: {**doc, "marginals": [0.5, 0.5, 0.0]},
         "prior field 'marginals' must be positive and summing to 1"),
        (lambda doc: {**doc, "marginals": [0.5, 0.5, 0.5]},
         "prior field 'marginals' must be positive and summing to 1"),
        (lambda doc: {**doc, "extraction_params": [1.0]},
         "prior field 'extraction_params' must be an object of numbers"),
        (lambda doc: {**doc, "extraction_params": {"gap": 1.0}},
         "prior field 'extraction_params' must be an object of numbers"),
        (lambda doc: {**doc, "extraction_params": {"gap_threshold": "1"}},
         "prior field 'extraction_params' must be an object of numbers"),
        (lambda doc: {**doc, "extraction_params": {"min_group_beams": 2.5}},
         "min_group_beams must be a whole number >= 1, got 2.5"),
        (lambda doc: {**doc, "extraction_params": {"gap_threshold": math.nan}},
         "gap_threshold must be finite and > 0, got nan"),
        (lambda doc: {**doc, "extraction_params": {"line_fit_tolerance": math.inf}},
         "line_fit_tolerance must be finite and > 0, got inf"),
    ])
    def test_malformed_prior_one_line_error(self, workdir, capsys, edit, message):
        doc = json.loads(dump_prior(tiny_bundle()))
        (workdir / "bad.json").write_text(json.dumps(edit(doc)))
        cfg = sim.WorldConfig(seed=1)
        traj = sim.generate_trajectory(fixtures.corridor(), Pose(3.0, 2.5, 0.0),
                                       "waypoints", 1.0, cfg, waypoints=[(8.0, 2.5)])
        (workdir / "ok.traj").write_text(sim.dump_trajectory(traj, cfg))
        code = cli.main(["localize", "--map", str(workdir / "world.map"),
                         "--prior", str(workdir / "bad.json"),
                         "--trajectory", str(workdir / "ok.traj"),
                         "--out", str(workdir / "steps.log")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {workdir / 'bad.json'}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args, message", [
        (["--start", "3,10"], "--start must be x,y,theta (finite numbers), got '3,10'"),
        (["--start", "3,2.5,inf"],
         "--start must be x,y,theta (finite numbers), got '3,2.5,inf'"),
        (["--start", "3,2.5,0", "--policy", "waypoints", "--waypoints", "5"],
         "each --waypoints entry must be x,y (finite numbers), got '5'"),
        (["--start", "3,2.5,0", "--policy", "waypoints", "--waypoints", "8,2.5;x,1"],
         "each --waypoints entry must be x,y (finite numbers), got 'x,1'"),
        (["--start", "3,2.5,0", "--policy", "waypoints"],
         "waypoints policy requires a waypoint list"),
    ])
    def test_malformed_simulate_option_one_line_error(self, workdir, capsys, args,
                                                      message):
        code = cli.main(["simulate", "--map", str(workdir / "world.map"),
                         "--out", str(workdir / "x.traj"), *args])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("manifest", [[], {}, {"pairs": [1]}, {"pairs": "x"},
                                          {"pairs": {"partial_map": "a.map"}}])
    def test_malformed_manifest_one_line_error(self, workdir, capsys, manifest):
        (workdir / "bad_manifest.json").write_text(json.dumps(manifest))
        code = cli.main(["evaluate", "--manifest", str(workdir / "bad_manifest.json"),
                         "--out", str(workdir / "pr.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: manifest must be a JSON object whose 'pairs' is a list of objects\n")

    @pytest.mark.parametrize("argv, message", [
        (["localize", "--map", "{d}/world.map", "--prior", "{d}/garbled.json",
          "--trajectory", "{d}/missing.traj"],
         "{d}/garbled.json: Expecting ',' delimiter: line 2 column 1 (char 8)"),
        (["evaluate", "--manifest", "{d}/garbled.json"],
         "{d}/garbled.json: Expecting ',' delimiter: line 2 column 1 (char 8)"),
        (["evaluate", "--manifest", "{d}/garbled_pair.json"],
         "{d}/garbled.map: line 1: expected 'resolution <meters>'"),
        (["evaluate", "--manifest", "{d}/no_pairs.json"], "manifest has no pairs"),
    ])
    def test_malformed_input_names_its_file(self, workdir, capsys, argv, message):
        # a parse error names its file: the JSON decoder's message does not,
        # and a line number alone is ambiguous over evaluate's many files
        (workdir / "garbled.json").write_text('{"a": 1\n"b": 2}')
        (workdir / "garbled.map").write_text("resolutoin 0.1\norigin 0 0\n...\n")
        (workdir / "garbled_pair.json").write_text(json.dumps({"pairs": [{
            "partial_map": f"{workdir}/garbled.map", "trajectory": "missing.traj",
            "prior": "missing.json"}]}))
        (workdir / "no_pairs.json").write_text(json.dumps({"pairs": []}))
        code = cli.main([a.format(d=workdir) for a in argv]
                        + ["--out", str(workdir / "garbled.out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(d=workdir)}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda pair: pair.pop("trajectory"), "manifest pair 1 has no 'trajectory'"),
        (lambda pair: pair.update(offset=5),
         "manifest pair 1: 'offset' must be three finite numbers"),
        (lambda pair: pair.update(partial_map=5),
         "manifest pair 1: 'partial_map' must be a string"),
    ])
    def test_malformed_manifest_pair_one_line_error(self, workdir, capsys, edit,
                                                    message):
        # none of the files exists: reading pair 0 before pair 1 is checked
        # would end in a different error
        pairs = [{"partial_map": str(workdir / "missing.map"),
                  "trajectory": str(workdir / "missing.traj"),
                  "prior": str(workdir / "missing.json"),
                  "environment": "a", "offset": [0.0, 0.5, 0.1]} for _ in range(2)]
        edit(pairs[1])
        (workdir / "bad_manifest.json").write_text(json.dumps({"pairs": pairs}))
        code = cli.main(["evaluate", "--manifest", str(workdir / "bad_manifest.json"),
                         "--out", str(workdir / "pr.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("method", ["fixed:nan", "fixed:inf", "fixed:0", "fixed:-0.1",
                                        "fixed:abc"])
    def test_fixed_likelihood_out_of_range_one_line_error(self, workdir, capsys,
                                                          method):
        cfg = sim.WorldConfig(seed=1)
        traj = sim.generate_trajectory(fixtures.corridor(), Pose(3.0, 2.5, 0.0),
                                       "waypoints", 1.0, cfg, waypoints=[(8.0, 2.5)])
        (workdir / "short.traj").write_text(sim.dump_trajectory(traj, cfg))
        (workdir / "tiny.json").write_text(dump_prior(tiny_bundle()))
        code = cli.main(["localize", "--map", str(workdir / "world.map"),
                         "--prior", str(workdir / "tiny.json"),
                         "--trajectory", str(workdir / "short.traj"),
                         "--method", method, "--out", str(workdir / "steps.log")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: method {method!r}: fixed outside likelihood must be positive"
            " and finite\n")

    # the setting errors come before any map is read: none exists here
    @pytest.mark.parametrize("args, message", [
        (["--max-views", "0"], "--max-views must be a finite number >= 2, got 0"),
        (["--max-views", "1"], "--max-views must be a finite number >= 2, got 1"),
        (["--trajectories-per-map", "0"],
         "--trajectories-per-map must be a finite number >= 1, got 0"),
        (["--length", "0"], "--length must be a finite number > 0, got 0.0"),
        (["--length", "nan"], "--length must be a finite number > 0, got nan"),
        (["--length", "-4"], "--length must be a finite number > 0, got -4.0"),
    ])
    def test_bad_train_prior_setting_one_line_error(self, workdir, capsys, args,
                                                    message):
        code = cli.main(["train-prior", "--maps", str(workdir / "missing.map"),
                         "--trajectories-per-map", "1", "--length", "5",
                         "--out", str(workdir / "bad_prior.json"), *args])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "bad_prior.json").exists()

    def test_training_map_without_free_cell_one_line_error(self, workdir, capsys):
        solid = OccupancyGrid(np.full((10, 10), OCCUPIED, dtype=np.int8), 0.1)
        (workdir / "solid.map").write_text(dump_map(solid))
        code = cli.main(["train-prior", "--maps", str(workdir / "world.map"),
                         str(workdir / "solid.map"), "--trajectories-per-map", "1",
                         "--length", "5", "--out", str(workdir / "solid_prior.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: training map 1 has no FREE cell\n"
        assert not (workdir / "solid_prior.json").exists()

    @pytest.mark.parametrize("length", ["nan", "-4", "0", "inf"])
    def test_bad_simulate_length_one_line_error(self, workdir, capsys, length):
        code = cli.main(["simulate", "--map", str(workdir / "world.map"),
                         "--start", "3,2.5,0", "--length", length,
                         "--out", str(workdir / "rejected.traj")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --length must be a finite number > 0, got {float(length)!r}\n")
        assert not (workdir / "rejected.traj").exists()

    # the option errors come before any input file is read: none exists here
    @pytest.mark.parametrize("args, message", [
        (["--view-distance", "nan"], "--view-distance must be a finite number >= 0, got nan"),
        (["--view-distance", "-1"], "--view-distance must be a finite number >= 0, got -1.0"),
        (["--method", "bogus"], "unknown method 'bogus'"),
        (["--method", "fixed:abc"],
         "method 'fixed:abc': fixed outside likelihood must be positive and finite"),
        (["--particles", "0"], "--particles must be a finite number >= 1, got 0"),
        (["--particles", "-3"], "--particles must be a finite number >= 1, got -3"),
    ])
    def test_bad_localize_option_one_line_error(self, workdir, capsys, args, message):
        code = cli.main(["localize", "--map", str(workdir / "missing.map"),
                         "--prior", str(workdir / "missing.json"),
                         "--trajectory", str(workdir / "missing.traj"),
                         "--out", str(workdir / "steps.log"), *args])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        (["--methods", "hierarchical_adaptive,bogus"], "unknown method 'bogus'"),
        (["--methods", "prior_only,fixed:x"],
         "method 'fixed:x': fixed outside likelihood must be positive and finite"),
        (["--thresholds", "nan"], "thresholds must be finite numbers in [0, 1], got nan"),
        (["--thresholds", "0.5,2.0"],
         "thresholds must be finite numbers in [0, 1], got 2.0"),
        (["--view-distance", "inf"], "--view-distance must be a finite number >= 0, got inf"),
        (["--particles", "-3"], "--particles must be a finite number >= 1, got -3"),
        (["--thresholds", "abc"], "--thresholds must be comma-separated numbers, got 'abc'"),
        (["--thresholds", ""], "--thresholds must be comma-separated numbers, got ''"),
        (["--thresholds", "0.5,,0.6"],
         "--thresholds must be comma-separated numbers, got '0.5,,0.6'"),
    ])
    def test_bad_evaluate_option_one_line_error(self, workdir, capsys, args, message):
        # the manifest names files that do not exist: reading any of them
        # before the options are checked would end in a different error
        pair = {"partial_map": str(workdir / "missing.map"),
                "trajectory": str(workdir / "missing.traj"),
                "prior": str(workdir / "missing.json")}
        (workdir / "missing_manifest.json").write_text(json.dumps({"pairs": [pair]}))
        code = cli.main(["evaluate", "--manifest", str(workdir / "missing_manifest.json"),
                         "--out", str(workdir / "pr.csv"), *args])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [
        ["simulate", "--map", "missing.map", "--start", "3,2.5,0"],
        ["train-prior", "--maps", "missing.map"],
        ["localize", "--map", "missing.map", "--prior", "missing.json",
         "--trajectory", "missing.traj"],
        ["evaluate", "--manifest", "missing_manifest.json"],
    ])
    def test_negative_seed_named_before_any_file_is_read(self, workdir, capsys, command):
        # every file named here is missing: reading one before --seed is
        # checked would name the file instead
        argv = [str(workdir / v) if v.startswith("missing") else v for v in command]
        code = cli.main([*argv, "--out", str(workdir / "seed_out"), "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == "error: --seed must be a finite number >= 0, got -1\n"
        assert not (workdir / "seed_out").exists()

    @pytest.mark.parametrize("policy", [[], ["--policy", "random_explore"],
                                        ["--policy", "wall_follow"]])
    def test_waypoints_without_waypoints_policy_rejected_before_the_map_is_read(
            self, workdir, capsys, policy):
        # the map is missing: reading it first would name the file instead
        code = cli.main(["simulate", "--map", str(workdir / "missing.map"),
                         "--start", "3,2.5,0", "--waypoints", "8,2.5", *policy,
                         "--out", str(workdir / "x.traj")])
        assert code == 1
        name = policy[1] if policy else "random_explore"
        assert capsys.readouterr().err == (
            f"error: --waypoints needs --policy waypoints, got --policy {name}\n")
        assert not (workdir / "x.traj").exists()

    @pytest.mark.parametrize("x, y", [(100.0, 2.0), (-0.35, 2.5)])
    def test_carve_pose_off_the_map_one_line_error(self, workdir, capsys, x, y):
        # the corridor is 22 x 5 m; x = -0.35 would read column -4
        cfg = sim.WorldConfig(seed=1)
        traj = sim.generate_trajectory(fixtures.corridor(), Pose(3.0, 2.5, 0.0),
                                       "waypoints", 1.0, cfg, waypoints=[(8.0, 2.5)])
        traj.records[2] = replace(traj.records[2], true_pose=Pose(x, y, 0.0))
        (workdir / "off.traj").write_text(sim.dump_trajectory(traj, cfg))
        code = cli.main(["carve", "--map", str(workdir / "world.map"),
                         "--trajectory", str(workdir / "off.traj"),
                         "--out", str(workdir / "x.map")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: trajectory record 2: pose ({x!r}, {y!r}) is off the map\n")

    def test_filter_divergence_one_line_error(self, workdir, capsys, monkeypatch):
        def diverging(*args, **kwargs):
            raise FilterDivergence("all particle weights underflowed")

        cfg = sim.WorldConfig(seed=1)
        traj = sim.generate_trajectory(fixtures.corridor(), Pose(3.0, 2.5, 0.0),
                                       "waypoints", 1.0, cfg, waypoints=[(8.0, 2.5)])
        (workdir / "short.traj").write_text(sim.dump_trajectory(traj, cfg))
        (workdir / "tiny.json").write_text(dump_prior(tiny_bundle()))
        monkeypatch.setattr(cli, "run_localization", diverging)
        code = cli.main(["localize", "--map", str(workdir / "world.map"),
                         "--prior", str(workdir / "tiny.json"),
                         "--trajectory", str(workdir / "short.traj"),
                         "--out", str(workdir / "steps.log")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: all particle weights underflowed\n")


class TestEvaluateFieldCache:
    def test_pairs_sharing_a_map_get_their_own_prior_and_sensor(
            self, tmp_path, monkeypatch):
        grid = fixtures.corridor(length=8.0)
        cfg = sim.WorldConfig(beam_count=91, max_range=5.0, seed=2)
        traj = sim.generate_trajectory(grid, Pose(2.0, 2.5, 0.0), "waypoints",
                                       4.0, cfg, waypoints=[(8.0, 2.5)])
        (tmp_path / "partial.map").write_text(dump_map(grid))
        (tmp_path / "run.traj").write_text(sim.dump_trajectory(traj, cfg))
        priors = {"a": tiny_bundle(), "b": replace(
            tiny_bundle(), alphabet=alphabet_build(["mwm", "m"], max_views=3))}
        pairs = []
        for name, bundle in priors.items():
            (tmp_path / f"{name}.json").write_text(dump_prior(bundle))
            pairs.append({"partial_map": str(tmp_path / "partial.map"),
                          "trajectory": str(tmp_path / "run.traj"),
                          "prior": str(tmp_path / f"{name}.json"),
                          "environment": "corridor"})
        (tmp_path / "manifest.json").write_text(json.dumps({"pairs": pairs}))

        class RecordingField(cli.ViewField):
            def __init__(self, partial, alphabet, extraction, bearings, max_range):
                super().__init__(partial, alphabet, extraction, bearings, max_range)
                self.alphabet, self.bearings = alphabet, bearings
                self.max_range = max_range

        used = []

        def recording_evaluate_pair(*args, view_field, **kwargs):
            used.append((args[3].alphabet, view_field))
            return PairResult(kwargs["environment"], args[2], [])

        monkeypatch.setattr(cli, "ViewField", RecordingField)
        monkeypatch.setattr(evalharness, "evaluate_pair", recording_evaluate_pair)
        monkeypatch.setattr(evalharness, "precision_recall", lambda *a: [])
        assert cli.main(["evaluate", "--manifest", str(tmp_path / "manifest.json"),
                         "--methods", "fixed:0.01,prior_only",
                         "--out", str(tmp_path / "pr.csv")]) == 0
        assert len(used) == 4
        assert len({id(field) for _, field in used}) == 2
        for alphabet, field in used:
            assert field.alphabet == alphabet
            np.testing.assert_array_equal(field.bearings, cfg.bearings)
            assert field.max_range == 5.0
