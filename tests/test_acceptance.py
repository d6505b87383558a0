"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all);
tolerances are fixed here and nowhere else. The heavyweight kriging fixtures
are shared between the density and noise trend criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from rssloc import (PropagationParams, aggregate_rss,
                    add_noise, build_routes, cli, connected_components,
                    evaluate_scenario, ground_truth_local,
                    kriging_reconstruct, localize_all, ospa,
                    optimal_assignment, proxy_local_map, rasterize_global,
                    SampleSet, sample_along, separate_sources)

from conftest import generate_scenario
from oracles import (augment_grid, augment_points, brute_force_assignment_cost,
                     brute_force_ospa, flood_fill_partition, labeling_partition)

PARAMS = PropagationParams()


def _criterion(aid: str, ok: bool, detail: str):
    print(f"[{aid}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{aid} failed: {detail}"


def test_a1_oracle_end_to_end():
    t0 = time.monotonic()
    counts = [1, 3, 5, 7]
    mles = []
    far_total = mdr_total = 0.0
    for k in range(100):
        m = counts[k % 4]
        sc = generate_scenario(200, 200, 6, m, seed=100000 + k,
                               min_spacing=5.0, clear_radius=2.0)
        local = ground_truth_local(sc, PARAMS, 2.0)
        sep = separate_sources(local, gamma=127, connectivity=8, r=2.0)
        preds = localize_all(sep, "com")
        ev = evaluate_scenario(preds.points, sc.true_points())
        far_total += ev.far
        mdr_total += ev.mdr
        mles.append(ev.mle)
    elapsed = time.monotonic() - t0
    mle = float(np.mean(mles))
    ok = far_total == 0.0 and mdr_total == 0.0 and mle <= 1.0 and elapsed <= 10.0
    _criterion("A1", ok,
               f"oracle pipeline: far={far_total} mdr={mdr_total} "
               f"mLE={mle:.3f} m (<=1.0) runtime={elapsed:.2f} s (<=10)")


def test_a2_ospa_against_brute_force():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(500):
        a = [tuple(p) for p in rng.random((rng.integers(0, 7), 2)) * 50]
        b = [tuple(p) for p in rng.random((rng.integers(0, 7), 2)) * 50]
        worst = max(worst, abs(ospa(a, b, 20.0) - brute_force_ospa(a, b, 20.0)))
    hand = ospa([(0.0, 0.0)], [(0.0, 0.0), (10.0, 10.0)], 20.0)
    ok = worst <= 1e-9 and abs(hand - 14.1421) <= 1e-4
    _criterion("A2", ok,
               f"ospa: max |impl - brute force| = {worst:.2e} (<=1e-9), "
               f"hand case {hand:.4f} (14.1421 +/- 1e-4)")


def test_a3_connected_components_oracle():
    rng = np.random.default_rng(300)
    mismatches = 0
    for k in range(200):
        density = rng.uniform(0.15, 0.75)
        grid = (rng.random((64, 64)) < density).astype(np.uint8) * 255
        for connectivity in (4, 8):
            lab = connected_components(grid, connectivity)
            if labeling_partition(lab.labels) != \
                    flood_fill_partition(grid, connectivity):
                mismatches += 1
    _criterion("A3", mismatches == 0,
               f"connected components vs flood fill: {mismatches} mismatched "
               f"partitions over 200 maps x 2 connectivities")


def test_a4_assignment_optimality():
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(300):
        pred = [tuple(p) for p in rng.random((rng.integers(0, 7), 2)) * 60]
        true = [tuple(p) for p in rng.random((rng.integers(0, 7), 2)) * 60]
        matching = optimal_assignment(pred, true)
        got = sum(math.hypot(pred[i][0] - true[j][0],
                             pred[i][1] - true[j][1]) ** 2
                  for i, j in matching.pairs)
        worst = max(worst, abs(got - brute_force_assignment_cost(pred, true)))
    _criterion("A4", worst <= 1e-9,
               f"assignment: max |cost - brute force| = {worst:.2e} (<=1e-9)")


def test_a5_merged_component_failure_mode():
    count_ok = 0
    flagged = 0
    mdr_ok = 0
    n = 50
    for k in range(n):
        m = [3, 5, 7][k % 3]
        sc = generate_scenario(200, 200, 6, m, seed=500000 + k,
                               dense_pair_spacing=3.0)
        local = ground_truth_local(sc, PARAMS, 2.0)
        sep = separate_sources(local, r=2.0)
        preds = localize_all(sep, "com")
        ev = evaluate_scenario(preds.points, sc.true_points())
        if len(sep.labeling.components) == m - 1:
            count_ok += 1
        if any(sep.merged_flags):
            flagged += 1
        if ev.mdr == pytest.approx(1.0 / m):
            mdr_ok += 1
    ok = count_ok == n and mdr_ok == n and flagged >= 0.95 * n
    _criterion("A5", ok,
               f"3 m pair: component count M-1 in {count_ok}/{n}, "
               f"mdr=1/M in {mdr_ok}/{n}, merged flagged in {flagged}/{n} (>=95%)")


@pytest.fixture(scope="module")
def kriging_workbench():
    """20 fixed-seed scenarios with their global maps, routes and noise-free
    interval-2 kriging maps; A6 and A7 both use those maps."""
    bench = []
    for k in range(20):
        sc = generate_scenario(200, 200, 6, 3, seed=600000 + k)
        g = rasterize_global(sc, PARAMS)
        route = build_routes(sc.layout)
        rec2, = kriging_reconstruct(sample_along(route, g, 2), sc.layout)
        bench.append((sc, g, route, rec2))
    return bench


def test_a6_sampling_density_trend(kriging_workbench):
    intervals = [10, 8, 6, 4, 2, 1]
    medians = []
    for interval in intervals:
        rmses = []
        for sc, g, route, rec2 in kriging_workbench:
            rec = rec2 if interval == 2 else kriging_reconstruct(
                sample_along(route, g, interval), sc.layout)[0]
            free = sc.layout.cells == 0
            rmses.append(float(np.sqrt(np.mean(
                (rec.values[free] - g.values[free]) ** 2))))
        medians.append(float(np.median(rmses)))
    inversions = [(a, b) for a, b in zip(medians, medians[1:]) if b > a]
    ok = len(inversions) == 0 or (
        len(inversions) == 1 and inversions[0][1] <= 1.05 * inversions[0][0])
    detail = " -> ".join(f"{v:.3f}" for v in medians)
    _criterion("A6", ok,
               f"median kriging RMSE for intervals 10..1: {detail} dB "
               f"({len(inversions)} adjacent inversion(s), <=1 of <=5% allowed)")


def test_a7_noise_trend(kriging_workbench):
    mles = {0.0: [], 1.0: [], 3.0: []}
    for k, (sc, g, route, rec2) in enumerate(kriging_workbench):
        ss = sample_along(route, g, 2)
        # both noise levels sit on the same positions: one stacked kriging call
        noisy = [add_noise(ss, sigma, seed=700000 + k).values for sigma in (1.0, 3.0)]
        recs = [rec2, *kriging_reconstruct(SampleSet(ss.positions, noisy), sc.layout)]
        for sigma, rec in zip(mles, recs):
            local = proxy_local_map(rec, 9.0, r=2.0)
            sep = separate_sources(local, r=2.0)
            preds = localize_all(sep, "com")
            ev = evaluate_scenario(preds.points, sc.true_points())
            if ev.mle is not None:
                mles[sigma].append(ev.mle)
    medians = {sigma: float(np.median(values)) for sigma, values in mles.items()}
    ok = medians[3.0] >= medians[1.0] >= medians[0.0]
    _criterion("A7", ok,
               f"median pipeline mLE by noise sigma: 0->{medians[0.0]:.3f}, "
               f"1->{medians[1.0]:.3f}, 3->{medians[3.0]:.3f} m (non-decreasing)")


def test_a8_full_determinism(tmp_path):
    config = {"width": 100, "height": 100, "n_layouts": 2, "n_buildings": 3,
              "source_counts": [1, 3], "placements_per_count": 1,
              "intervals": [4, 10], "seed": 808,
              "split": {"train": 1, "val": 0, "test": 1}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    trees = []
    for run in ("a", "b"):
        ds = tmp_path / run / "ds"
        out = tmp_path / run / "out"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
        assert cli.main(["pipeline", "--dataset", str(ds), "--out", str(out),
                         "--reconstructor", "kriging", "--estimator", "com",
                         "--intervals", "10"]) == 0
        tree = {}
        for path in sorted((tmp_path / run).rglob("*")):
            if path.is_file() and path != cfg:
                tree[str(path.relative_to(tmp_path / run))] = path.read_bytes()
        trees.append(tree)
    same_names = sorted(trees[0]) == sorted(trees[1])
    diffs = [name for name in trees[0] if trees[0][name] != trees[1].get(name)]
    ok = same_names and not diffs
    _criterion("A8", ok,
               f"generate+pipeline twice: {len(trees[0])} files, "
               f"{len(diffs)} byte differences (0 required)")


def test_a9_augmentation_equivariance():
    from oracles import AUGMENTATIONS
    worst = 0.0
    checked = 0
    for k in range(20):
        sc = generate_scenario(120, 120, 4, 3, seed=900000 + k)
        local = ground_truth_local(sc, PARAMS, 2.0)

        def run(bitmap):
            sep = separate_sources(bitmap, r=2.0)
            return localize_all(sep, "com").points

        base = run(local.values)
        for aug in AUGMENTATIONS:
            got = sorted(run(augment_grid(local.values, aug)))
            expected = sorted(augment_points(base, aug, 120, 120))
            assert len(got) == len(expected)
            for (gx, gy), (ex, ey) in zip(got, expected):
                worst = max(worst, math.hypot(gx - ex, gy - ey))
            checked += 1
    ok = worst <= 1e-9
    _criterion("A9", ok,
               f"augmented pipeline vs augmented coordinates over {checked} "
               f"runs: max deviation {worst:.2e} m (<=1e-9)")


def test_a10_aggregation_bound():
    rng = np.random.default_rng(1000)
    violations = 0
    for _ in range(100000):
        powers = rng.uniform(-120.0, 0.0, size=int(rng.integers(1, 9)))
        total = aggregate_rss(powers)
        top = float(powers.max())
        if not (top <= total <= top + 10.0 * math.log10(len(powers))):
            violations += 1
    _criterion("A10", violations == 0,
               f"aggregation dominance bounds: {violations} violations "
               f"over 100000 random lists (exact, no tolerance)")
