"""Scenario generation, normalization, splits and the on-disk format."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaloc import tasks
from metaloc.tasks import ChannelConfig, DataFormatError, GridSpec


def small_config(**kw):
    defaults = dict(samples_per_rp=4)
    defaults.update(kw)
    return ChannelConfig(**defaults)


def assert_same_scenario(a, b):
    """Equal ids and grids, and bitwise equal sample records."""
    assert (a.id, a.grid) == (b.id, b.grid)
    assert a.samples.dtype == b.samples.dtype
    assert a.samples.tobytes() == b.samples.tobytes()


# ---------------------------------------------------------------------------
# generation


def test_generation_deterministic():
    a = tasks.generate_scenario(5, small_config())
    b = tasks.generate_scenario(5, small_config())
    assert_same_scenario(a, b)


def test_default_grid_labels():
    scenario = tasks.generate_scenario(1, small_config())
    labels = {tuple(p) for p in scenario.samples["pos_cm"].tolist()}
    expected = {(r * 60.0, c * 60.0) for r in range(3) for c in range(4)}
    assert labels == expected
    xs = {p[0] for p in labels}
    ys = {p[1] for p in labels}
    assert xs == {0.0, 60.0, 120.0} and ys == {0.0, 60.0, 120.0, 180.0}


def test_sample_counts_and_shape():
    scenario = tasks.generate_scenario(2, small_config())
    assert len(scenario.samples) == 4 * 12
    assert scenario.samples["amp"].shape == (4 * 12, 3, 30)
    assert np.all(scenario.samples["amp"] >= 0.0)


def test_distinct_seeds_distinct_realizations():
    vecs = []
    for seed in range(10):
        scenario = tasks.generate_scenario(seed, small_config())
        groups = scenario.samples_by_rp()
        vec = np.stack([groups[rp]["amp"].mean(axis=0).ravel() for rp in sorted(groups)])
        vecs.append(vec)
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert not np.allclose(vecs[i], vecs[j])


def test_degenerate_geometry_rejected():
    with pytest.raises(ValueError, match="spacing"):
        tasks.generate_scenario(0, small_config(grid=GridSpec(spacing_cm=0.0)))
    with pytest.raises(ValueError, match="grid"):
        tasks.generate_scenario(0, small_config(grid=GridSpec(rows=1, cols=1)))
    with pytest.raises(ValueError, match="degenerate grid -3x-4: needs rows >= 1, cols >= 1"):
        tasks.generate_scenario(0, small_config(grid=GridSpec(rows=-3, cols=-4)))
    with pytest.raises(ValueError, match="samples_per_rp"):
        tasks.generate_scenario(0, ChannelConfig(samples_per_rp=1))


def test_amplitude_monotone_with_distance_in_expectation():
    """Mean amplitude at the point nearest the transmitter beats the farthest.

    The transmitter position is internal, so use the per-point mean as its
    proxy: the largest per-point mean must exceed the smallest by the
    path-loss spread. Aggregated over 100 seeds.
    """
    near, far = [], []
    for seed in range(100):
        scenario = tasks.generate_scenario(seed, small_config())
        groups = scenario.samples_by_rp()
        means = [g["amp"].mean(axis=(1, 2)).mean() for g in groups.values()]
        near.append(max(means))
        far.append(min(means))
    assert np.mean(near) >= np.mean(far)


@pytest.mark.parametrize(
    "seed, amp_sum, amp_sum_sq",
    [(0, 9431.736552453942, 4614.788336515227), (2305, 2287.0977357434576, 241.04196358625555)],
)
def test_generator_output_is_pinned(seed, amp_sum, amp_sum_sq):
    # reference sums of the default channel: a change to any channel constant or to
    # the generator's arithmetic shows here
    scenario = tasks.generate_scenario(seed)
    amp = scenario.samples["amp"]
    assert amp.sum() == pytest.approx(amp_sum, rel=1e-12, abs=0)
    assert (amp**2).sum() == pytest.approx(amp_sum_sq, rel=1e-12, abs=0)
    rps = np.repeat(np.arange(12), 40)
    assert np.array_equal(scenario.samples["rp"], rps)
    grid = [(r * 60.0, c * 60.0) for r in range(3) for c in range(4)]
    assert np.array_equal(scenario.samples["pos_cm"], np.array(grid)[rps])


# ---------------------------------------------------------------------------
# normalization


def test_normalize_constant_sample():
    out = tasks.normalize(np.full((3, 30), 4.2))
    assert np.array_equal(out, np.ones((3, 30)))


def test_normalize_scale_invariant():
    rng = np.random.default_rng(3)
    amp = rng.random((3, 30))
    # homogeneity up to float rounding in the rescaled division
    assert np.abs(tasks.normalize(amp) - tasks.normalize(amp * 10.0)).max() <= 1e-15


def test_normalize_peak_exactly_one():
    rng = np.random.default_rng(4)
    for _ in range(20):
        out = tasks.normalize(rng.random((3, 30)))
        assert out.max() == 1.0


def test_normalize_idempotent():
    rng = np.random.default_rng(5)
    amp = rng.random((3, 30))
    once = tasks.normalize(amp)
    assert np.array_equal(tasks.normalize(once), once)


def test_normalize_rejects_all_zero():
    with pytest.raises(DataFormatError, match="positive"):
        tasks.normalize(np.zeros((3, 30)))


# ---------------------------------------------------------------------------
# splits


def _keys(records) -> list:
    """Each record's bytes (rp, position and amplitudes), sorted."""
    return sorted(r.tobytes() for r in records)


def test_split_counts():
    scenario = tasks.generate_scenario(8, ChannelConfig(samples_per_rp=40))
    support, query = tasks.split_task(scenario, 5, 42)
    assert len(support) == 60
    assert len(query) == 420


def test_split_deterministic_and_seed_sensitive():
    scenario = tasks.generate_scenario(9, small_config())
    a, _ = tasks.split_task(scenario, 2, 1)
    b, _ = tasks.split_task(scenario, 2, 1)
    c, _ = tasks.split_task(scenario, 2, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_split_union_is_whole_scenario():
    scenario = tasks.generate_scenario(10, small_config(samples_per_rp=3))
    support, query = tasks.split_task(scenario, 1, 7)
    assert _keys(scenario.samples) == _keys(np.concatenate([support, query]))


@settings(max_examples=50, deadline=None)
@given(
    spp=st.integers(2, 7),
    data=st.data(),
    scenario_seed=st.integers(0, 999),
    split_seed=st.integers(0, 2**32 - 1),
)
def test_split_disjoint_and_exact_cardinality_randomized(spp, data, scenario_seed, split_seed):
    k = data.draw(st.integers(0, spp - 1), label="k")
    scenario = tasks.generate_scenario(scenario_seed, small_config(samples_per_rp=spp))
    support, query = tasks.split_task(scenario, k, split_seed)
    assert not set(_keys(support)) & set(_keys(query))
    assert _keys(np.concatenate([support, query])) == _keys(scenario.samples)
    assert np.array_equal(np.bincount(support["rp"], minlength=12), np.full(12, k))
    again = tasks.split_task(scenario, k, split_seed)
    assert np.array_equal(again[0], support) and np.array_equal(again[1], query)


def test_split_insufficient_samples():
    scenario = tasks.generate_scenario(11, small_config(samples_per_rp=3))
    with pytest.raises(ValueError, match="needs more than"):
        tasks.split_task(scenario, 3, 0)


def test_partition_disjoint_and_covering():
    scenarios = [tasks.generate_scenario(i, small_config()) for i in range(6)]
    train, test = tasks.partition_tasks(scenarios, 2, 3)
    ids = [s.id for s in scenarios]
    train_at, test_at = [ids.index(s.id) for s in train], [ids.index(s.id) for s in test]
    assert sorted(train_at + test_at) == list(range(6))
    assert len(test) == 2
    # each side keeps the input order
    assert train_at == sorted(train_at) and test_at == sorted(test_at)
    for count in (0, 6):
        with pytest.raises(ValueError, match="test_count must be in"):
            tasks.partition_tasks(scenarios, count, 3)


# ---------------------------------------------------------------------------
# on-disk format


def test_save_load_roundtrip(tmp_path):
    scenario = tasks.generate_scenario(12, small_config())
    path = tmp_path / "scenario_000.json"
    tasks.save_scenario(scenario, path)
    assert_same_scenario(tasks.load_scenario(path), scenario)  # exact float round-trip


def test_roundtrip_numeric_fidelity(tmp_path):
    scenario = tasks.generate_scenario(13, small_config())
    path = tmp_path / "scenario_000.json"
    tasks.save_scenario(scenario, path)
    loaded = tasks.load_scenario(path)
    a, b = scenario.samples["amp"], loaded.samples["amp"]
    denom = np.maximum(np.abs(a), 1e-300)
    assert (np.abs(a - b) / denom).max() <= 1e-15


def test_load_missing_field_named(tmp_path):
    scenario = tasks.generate_scenario(14, small_config())
    path = tmp_path / "scenario_000.json"
    tasks.save_scenario(scenario, path)
    doc = json.loads(path.read_text())
    del doc["samples"][0]["pos_cm"]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="pos_cm"):
        tasks.load_scenario(path)


def test_load_truncated_file(tmp_path):
    path = tmp_path / "scenario_000.json"
    path.write_text('{"id": "x", "grid": {"rows": 3')
    with pytest.raises(DataFormatError, match="line"):
        tasks.load_scenario(path)


def test_load_wrong_amp_length(tmp_path):
    scenario = tasks.generate_scenario(15, small_config())
    path = tmp_path / "scenario_000.json"
    tasks.save_scenario(scenario, path)
    doc = json.loads(path.read_text())
    doc["samples"][0]["amp"] = doc["samples"][0]["amp"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="90"):
        tasks.load_scenario(path)


def test_load_off_grid_label(tmp_path):
    scenario = tasks.generate_scenario(16, small_config())
    path = tmp_path / "scenario_000.json"
    tasks.save_scenario(scenario, path)
    doc = json.loads(path.read_text())
    doc["samples"][0]["pos_cm"] = [33.0, 33.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="reference point"):
        tasks.load_scenario(path)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda ss: ss[:5] + [dict(ss[5], rp=99)] + ss[6:], r"samples\[5\]: rp 99"),
        # sample 0 stays at reference point 0's position
        (lambda ss: [dict(ss[0], rp=7)] + ss[1:], r"samples\[0\].*reference point 7"),
        (lambda ss: [x for x in ss if x["rp"] != 3], r"reference point\(s\) \[3\]"),
        # every sample at reference point 0 of 12: the first 10 missing, and a count
        (lambda ss: ss[:1] * 12, re.escape(f"reference point(s) {list(range(1, 11))} and 1 more") + "$"),
    ],
    ids=["rp-out-of-range", "rp-at-another-position", "rp-missing", "rps-missing-capped"],
)
def test_load_rejects_misaligned_labels(tmp_path, edit, match):
    path = tmp_path / "scenario_000.json"
    tasks.save_scenario(tasks.generate_scenario(16, small_config()), path)
    doc = json.loads(path.read_text())
    doc["samples"] = edit(doc["samples"])
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=match):
        tasks.load_scenario(path)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc: doc["samples"].__setitem__(3, 5), r"samples\[3\]: must be an object, got int"),
        (lambda doc: doc["samples"][3].update(pos_cm=5), r"samples\[3\]: field 'pos_cm'"),
        (lambda doc: doc["samples"][3].update(pos_cm={"x": 0.0, "y": 0.0}), r"samples\[3\]: field 'pos_cm'"),
        (lambda doc: doc["samples"][3].update(amp=None), r"samples\[3\]: field 'amp'"),
        (lambda doc: doc["samples"][3]["amp"].__setitem__(0, "x"), r"samples\[3\]: field 'amp' is not a list of numbers"),
        (lambda doc: doc["samples"][3]["amp"].__setitem__(0, "0.5"), r"samples\[3\]: field 'amp' is not a list of numbers"),
        (lambda doc: doc["samples"][3].update(amp=[True] * 90), r"samples\[3\]: field 'amp' is not a list of numbers"),
        (lambda doc: doc["samples"][3].update(pos_cm=["0", "0"]), r"samples\[3\]: field 'pos_cm' is not a list of numbers"),
        # numpy would read each of these booleans as a number
        (lambda doc: doc["samples"][3]["amp"].__setitem__(0, True), r"samples\[3\]: field 'amp' is not a list of numbers"),
        (lambda doc: doc["samples"][3]["pos_cm"].__setitem__(0, False), r"samples\[3\]: field 'pos_cm' is not a list of numbers"),
        # beyond float64: numpy's conversion would raise OverflowError
        (lambda doc: doc["samples"][3]["amp"].__setitem__(0, 10**400), r"samples\[3\]: field 'amp' is not a list of numbers"),
        (lambda doc: doc["samples"][3]["amp"].__setitem__(7, None), r"samples\[3\]: amplitudes must be finite"),
        (lambda doc: doc["samples"][3]["amp"].__setitem__(7, -1.0), r"samples\[3\]: amplitudes must be .*non-negative"),
        (lambda doc: doc["samples"][3].update(rp=None), r"samples\[3\]: field 'rp'"),
        # sample 3 is at reference point 0, which each of these would coerce to
        (lambda doc: doc["samples"][3].update(rp=0.7), r"\[3\]: field 'rp' must be an integer, got 0.7"),
        (lambda doc: doc["samples"][3].update(rp=0.0), r"\[3\]: field 'rp' must be an integer, got 0.0"),
        (lambda doc: doc["samples"][3].update(rp=False), r"\[3\]: field 'rp' must be an integer, got False"),
        (lambda doc: doc["samples"][3].update(rp="0"), r"\[3\]: field 'rp' must be an integer, got '0'"),
        (lambda doc: doc.update(grid=5), r"'grid' must be an object"),
        (lambda doc: doc["grid"].update(rows=2.5), r"grid rows must be an integer, got 2.5"),
        (lambda doc: doc["grid"].update(cols="4"), r"grid cols must be an integer, got '4'"),
        (lambda doc: doc["grid"].update(spacing_cm=None), r"grid spacing_cm must be a number, got None"),
        (lambda doc: doc.update(id=[1]), r"field 'id' must be a string, got \[1\]"),
        (lambda doc: doc.update(id=None), r"field 'id' must be a string, got None"),
    ],
    ids=[
        "sample-int", "pos-int", "pos-object", "amp-null", "amp-string-entry",
        "amp-number-string", "amp-bools", "pos-strings", "amp-bool-entry", "pos-bool-entry",
        "amp-huge-int", "amp-null-entry", "amp-negative",
        "rp-null", "rp-fraction", "rp-float", "rp-bool", "rp-string",
        "grid-int", "rows-fraction", "cols-string", "spacing-null", "id-list", "id-null",
    ],
)
def test_load_rejects_wrong_json_types(tmp_path, edit, match):
    path = tmp_path / "scenario_000.json"
    tasks.save_scenario(tasks.generate_scenario(16, small_config()), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=re.escape(str(path)) + ".*" + match):
        tasks.load_scenario(path)


@pytest.mark.parametrize(
    "grid, match",
    [
        ({"rows": 0, "cols": 4}, "grid 0x4 has no reference points"),
        ({"rows": -2, "cols": -3}, "grid -2x-3 has no reference points"),
        ({}, "'samples' is empty"),
    ],
    ids=["no-rows", "negative", "no-samples"],
)
def test_load_rejects_an_empty_scenario(tmp_path, grid, match):
    path = tmp_path / "scenario_000.json"
    tasks.save_scenario(tasks.generate_scenario(16, small_config()), path)
    doc = json.loads(path.read_text())
    doc["grid"].update(grid)
    doc["samples"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: {match}")):
        tasks.load_scenario(path)


def test_load_rejects_a_grid_larger_than_its_samples_briefly(tmp_path):
    path = tmp_path / "scenario_000.json"
    tasks.save_scenario(tasks.generate_scenario(16, small_config()), path)
    doc = json.loads(path.read_text())
    doc["grid"].update(rows=300, cols=300)
    doc["samples"] = doc["samples"][:1]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError) as exc:
        tasks.load_scenario(path)
    assert str(exc.value) == f"{path}: grid 300x300 has 90000 reference points for 1 samples"


@pytest.mark.parametrize("spacing", [0, -60.0, math.nan, math.inf, 10**400], ids=["zero", "negative", "nan", "inf", "huge"])
def test_load_rejects_a_degenerate_spacing(tmp_path, spacing):
    path = tmp_path / "scenario_000.json"
    tasks.save_scenario(tasks.generate_scenario(16, small_config()), path)
    doc = json.loads(path.read_text())
    old = doc["grid"]["spacing_cm"]
    doc["grid"]["spacing_cm"] = spacing
    if spacing in (0, -60.0):  # the positions move with it: only the spacing is wrong
        for sample in doc["samples"]:
            sample["pos_cm"] = [p / old * spacing for p in sample["pos_cm"]]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: grid spacing_cm must be finite and above 0")):
        tasks.load_scenario(path)


def test_load_rejects_a_grid_beyond_float64(tmp_path):
    # positions at 0, 1e308 and inf, which JSON writes and reads as Infinity
    path = tmp_path / "scenario_000.json"
    tasks.save_scenario(tasks.generate_scenario(16, small_config()), path)
    doc = json.loads(path.read_text())
    doc["grid"]["spacing_cm"] = 1e308
    for sample in doc["samples"]:
        sample["pos_cm"] = [p / 60.0 * 1e308 for p in sample["pos_cm"]]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: grid 3x4 at spacing 1e+308 cm is beyond float64")):
        tasks.load_scenario(path)


def test_load_scenario_dir_sorted(tmp_path):
    for i in (2, 0, 1):
        tasks.save_scenario(
            tasks.generate_scenario(i, small_config(), scenario_id=f"scenario_{i:03d}"),
            tmp_path / f"scenario_{i:03d}.json",
        )
    loaded = tasks.load_scenario_dir(tmp_path)
    assert [s.id for s in loaded] == ["scenario_000", "scenario_001", "scenario_002"]
    with pytest.raises(DataFormatError, match="not a directory"):
        tasks.load_scenario_dir(tmp_path / "missing")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(DataFormatError, match="no scenario"):
        tasks.load_scenario_dir(empty)


def test_batch_from_normalizes():
    scenario = tasks.generate_scenario(17, small_config())
    records = scenario.samples[:8]
    x, y = tasks.batch_from(records)
    assert x.shape == (8, 3, 30) and y.shape == (8, 2)
    assert np.allclose(x.max(axis=(1, 2)), 1.0)
    # bitwise equal to normalizing each row on its own and stacking
    assert x.tobytes() == np.stack([tasks.normalize(r["amp"]) for r in records]).tobytes()
    assert y.tobytes() == np.array([r["pos_cm"] for r in records]).tobytes()
