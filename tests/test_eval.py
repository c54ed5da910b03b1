"""Evaluation harness, model serialization, and CLI pipelines."""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mapmerge import cli, evalharness, fixtures, sim, training
from mapmerge.evalharness import (EvalConfig, PRPoint, PairResult, StepOutcome,
                                  auc_pr, known_area_ratio, make_outside_model,
                                  apply_offset, precision_at_recall,
                                  precision_recall, pr_table)
from mapmerge.grid import UNKNOWN, FREE, OccupancyGrid, Pose, dump_map
from mapmerge.modelio import PriorBundle, dump_prior, load_prior
from mapmerge.pfilter import FilterConfig, FilterDivergence
from mapmerge.structure import FixedOutsideModel, StructureState
from mapmerge.views import ExtractionParams, alphabet_build


def tiny_bundle(nu=3):
    alphabet = alphabet_build(["wmw", "wgw"], max_views=nu)
    alpha = np.ones((alphabet.nu, alphabet.nu))
    obs = np.eye(alphabet.nu) * 0.9 + 0.05
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

    def test_shape_mismatch_rejected(self):
        b = tiny_bundle()
        with pytest.raises(ValueError):
            PriorBundle(alphabet=b.alphabet, alpha=np.ones((2, 2)),
                        obs_model=b.obs_model, marginals=b.marginals,
                        extraction=b.extraction)


class TestOutsideModels:
    def test_fixed_method_constant(self):
        m = make_outside_model("fixed:0.037", tiny_bundle())
        assert isinstance(m, FixedOutsideModel)
        assert m.step(0) == pytest.approx(0.037)

    def test_structure_methods_modes(self):
        b = tiny_bundle()
        m = make_outside_model("hierarchical_adaptive", b)
        assert isinstance(m, StructureState)
        assert m.mode == "adaptive"
        assert make_outside_model("prior_only", b).mode == "prior_only"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            make_outside_model("bogus", tiny_bundle())

    def test_scaled_counts_uses_area_ratio(self):
        cells = np.full((10, 10), UNKNOWN, dtype=np.int8)
        cells[:5, :] = FREE
        partial = OccupancyGrid(cells, 0.1)
        assert known_area_ratio(partial) == pytest.approx(0.5)
        m = make_outside_model("scaled_counts", tiny_bundle(), partial)
        assert m.count_scale == pytest.approx(2.0)
        with pytest.raises(ValueError):
            make_outside_model("scaled_counts", tiny_bundle(), None)


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
        with pytest.raises(ValueError):
            EvalConfig(tolerance_xy=-1.0)


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
        assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1

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
