"""Scenario data model, synthetic CSI generation, splits and file format.

A scenario is one indoor location: 12 reference points on a 3x4 grid with
60 cm spacing (configurable), each holding a stack of CSI amplitude
samples. Scenario.samples is one record array of SAMPLE_DTYPE, a row per
sample: rp (int64, the reference-point index, row-major), pos_cm (float64
(2,), that point's x, y in cm) and amp (float64 (3, 30), antennas x
subcarriers). Splits return such records and batch_from turns them into
model batches; no other module spells out this layout. The JSON file
format is unchanged: per sample, "rp", "pos_cm" and a flat, antenna-major
"amp" list of 90 values.

read_json and numeric_field read every JSON input: scenario files here,
checkpoints (model.load_params) and importance files (cli). A bad file is
a DataFormatError naming the file and the field.

Real capture hardware is out of scope; scenarios come from a synthetic
channel with fixed parameters (the module constants): log-distance path
loss from a random transmitter, shadowing from random wall segments,
frequency-selective Rician multipath per reference point, per-antenna
gain/phase variation, per-sample phase jitter plus additive noise.
Distinct seeds give distinct rooms: the scenarios behave as distinct tasks.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

SPEED_OF_LIGHT_CM_PER_NS = 29.9792458

__all__ = [
    "DataFormatError",
    "GridSpec",
    "ChannelConfig",
    "SAMPLE_DTYPE",
    "Scenario",
    "generate_scenario",
    "normalize",
    "split_task",
    "partition_tasks",
    "save_scenario",
    "load_scenario",
    "load_scenario_dir",
    "read_json",
    "numeric_field",
    "batch_from",
]


SAMPLE_DTYPE = np.dtype(
    [("rp", np.int64), ("pos_cm", np.float64, (2,)), ("amp", np.float64, (3, 30))]
)
AMP_SHAPE = SAMPLE_DTYPE["amp"].shape


class DataFormatError(Exception):
    """An input file (scenario, checkpoint or importance file) violates its contract."""


@dataclass(frozen=True)
class GridSpec:
    rows: int = 3
    cols: int = 4
    spacing_cm: float = 60.0

    def positions(self) -> list:
        """Reference-point coordinates, row-major: (row*spacing, col*spacing)."""
        return [
            (r * self.spacing_cm, c * self.spacing_cm)
            for r in range(self.rows)
            for c in range(self.cols)
        ]


@dataclass(frozen=True)
class ChannelConfig:
    """Generator geometry; the channel's parameters are the module constants below."""

    grid: GridSpec = field(default_factory=GridSpec)
    samples_per_rp: int = 40


SUBCARRIER_SPACING_MHZ = 0.625  # 20 MHz grouped down to 30 bins
CARRIER_GHZ = 5.2
PATH_LOSS_EXPONENT = 2.5
REFERENCE_DISTANCE_CM = 30.0
TX_MARGIN_CM = 150.0
WALL_COUNT = 3
WALL_ATTENUATION_DB = (2.0, 9.0)
ECHO_PATHS = 6
RICIAN_K = 4.0
ANTENNA_GAIN_JITTER = 0.15
SAMPLE_PHASE_JITTER = 0.25  # radians, per sample per path
NOISE_STD = 0.01  # additive, relative to the local envelope


@dataclass(eq=False)
class Scenario:
    id: str
    grid: GridSpec
    samples: np.ndarray  # SAMPLE_DTYPE records

    def digest(self) -> str:
        """sha256 of the sample records; equal digests mean equal samples."""
        return hashlib.sha256(np.ascontiguousarray(self.samples).tobytes()).hexdigest()

    def samples_by_rp(self) -> dict:
        """Records per reference point, keyed by rp in ascending order."""
        rps = self.samples["rp"]
        return {int(rp): self.samples[rps == rp] for rp in np.unique(rps)}


def _segment_crosses_line(p0, p1, anchor, direction) -> bool:
    """Does the segment p0-p1 cross the infinite line through anchor?"""
    nx, ny = -direction[1], direction[0]
    s0 = (p0[0] - anchor[0]) * nx + (p0[1] - anchor[1]) * ny
    s1 = (p1[0] - anchor[0]) * nx + (p1[1] - anchor[1]) * ny
    return (s0 > 0) != (s1 > 0)


def generate_scenario(
    seed: int, config: ChannelConfig = ChannelConfig(), scenario_id: str = None
) -> Scenario:
    """One synthetic location, deterministic per seed."""
    grid = config.grid
    if min(grid.rows, grid.cols) < 1 or grid.rows * grid.cols < 2:
        raise ValueError(f"degenerate grid {grid.rows}x{grid.cols}: needs rows >= 1, cols >= 1, 2 points")
    # the widest span drawn from is the reflectors': the grid's extent plus
    # two margins on either side; numpy rejects a span that is not finite
    extent = (max(grid.rows, grid.cols) - 1) * grid.spacing_cm
    if not (grid.spacing_cm > 0 and math.isfinite(extent + 4 * TX_MARGIN_CM)):
        raise ValueError(f"degenerate grid: spacing {grid.spacing_cm} cm")
    if config.samples_per_rp < 2:
        raise ValueError(f"samples_per_rp must be >= 2, got {config.samples_per_rp}")

    rng = np.random.default_rng(seed)
    antennas, subcarriers = AMP_SHAPE
    positions = grid.positions()
    x_hi = (grid.rows - 1) * grid.spacing_cm
    y_hi = (grid.cols - 1) * grid.spacing_cm
    m = TX_MARGIN_CM
    lo = (-m, -m)
    hi = (x_hi + m, y_hi + m)

    tx = (rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]))

    walls = []
    for _ in range(WALL_COUNT):
        anchor = (rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]))
        angle = rng.uniform(0.0, math.pi)
        att_db = rng.uniform(*WALL_ATTENUATION_DB)
        walls.append((anchor, (math.cos(angle), math.sin(angle)), att_db))

    reflectors = [
        (rng.uniform(lo[0] - m, hi[0] + m), rng.uniform(lo[1] - m, hi[1] + m))
        for _ in range(ECHO_PATHS)
    ]
    reflect_loss = rng.uniform(0.3, 0.9, size=ECHO_PATHS)

    ant_gain = np.clip(
        1.0 + ANTENNA_GAIN_JITTER * rng.standard_normal(antennas),
        0.5,
        1.5,
    )

    freqs_mhz = np.arange(subcarriers) * SUBCARRIER_SPACING_MHZ
    los_w = math.sqrt(RICIAN_K / (RICIAN_K + 1.0))
    nlos_w = math.sqrt(1.0 / (RICIAN_K + 1.0))
    carrier_mhz = CARRIER_GHZ * 1e3

    n = config.samples_per_rp
    samples = np.empty(len(positions) * n, dtype=SAMPLE_DTYPE)
    for rp_index, pos in enumerate(positions):
        d_direct = max(math.dist(tx, pos), REFERENCE_DISTANCE_CM)
        envelope = (REFERENCE_DISTANCE_CM / d_direct) ** (PATH_LOSS_EXPONENT / 2.0)
        for anchor, direction, att_db in walls:
            if _segment_crosses_line(tx, pos, anchor, direction):
                envelope *= 10.0 ** (-att_db / 20.0)

        # path delays in ns; echo gains are relative to the direct path, so
        # multipath grows with distance and the spectrum shape carries range
        # information that survives per-sample normalization
        delays = [d_direct / SPEED_OF_LIGHT_CM_PER_NS]
        gains = [los_w]
        for refl, rl in zip(reflectors, reflect_loss):
            length = math.dist(tx, refl) + math.dist(refl, pos)
            delays.append(length / SPEED_OF_LIGHT_CM_PER_NS)
            gains.append(nlos_w * rl * (d_direct / length) ** (PATH_LOSS_EXPONENT / 2.0))
        delays = np.asarray(delays)  # (P,)
        gains = np.asarray(gains)  # (P,)

        # carrier phase per path plus an independent per-antenna offset
        base_phase = 2.0 * math.pi * ((carrier_mhz * delays * 1e-3) % 1.0)
        ant_phase = rng.uniform(0.0, 2.0 * math.pi, size=(len(delays), antennas))
        # (P, A, S) frequency sweep phases
        sweep = 2.0 * math.pi * delays[:, None] * freqs_mhz[None, :] * 1e-3
        static = base_phase[:, None, None] + ant_phase[:, :, None] - sweep[:, None, :]

        jitter = SAMPLE_PHASE_JITTER * rng.standard_normal(
            size=(config.samples_per_rp, len(delays))
        )
        phases = static[None, :, :, :] + jitter[:, :, None, None]
        field_sum = (gains[None, :, None, None] * np.exp(1j * phases)).sum(axis=1)
        amps = envelope * ant_gain[None, :, None] * np.abs(field_sum)
        amps = amps + NOISE_STD * envelope * rng.standard_normal(amps.shape)
        rows = samples[rp_index * n : (rp_index + 1) * n]
        rows["rp"], rows["pos_cm"], rows["amp"] = rp_index, pos, np.maximum(amps, 0.0)

    return Scenario(id=scenario_id or f"scenario_{seed}", grid=grid, samples=samples)


def normalize(amp: np.ndarray) -> np.ndarray:
    """Scale each sample (the last two axes) by its own maximum, so it peaks at exactly 1."""
    arr = np.asarray(amp, dtype=np.float64)
    peak = arr.max(axis=(-2, -1), keepdims=True)
    if not np.all(peak > 0.0):
        raise DataFormatError("cannot normalize: sample has no strictly positive entry")
    return arr / peak


def split_task(scenario: Scenario, k: int, seed: int) -> tuple:
    """(support, query) records: k seeded picks per reference point, and the rest.

    Reference points go in ascending order, each one's samples in file
    order; one permutation per point, drawn in that order, puts its first
    k samples in the support. The picks are made on indices, so each side
    reads the records once.
    """
    if k < 0:
        raise ValueError(f"shot count must be >= 0, got {k}")
    rps = scenario.samples["rp"]
    by_rp = np.argsort(rps, kind="stable")
    points, starts, counts = np.unique(rps[by_rp], return_index=True, return_counts=True)
    short = counts <= k
    if short.any():
        first = short.argmax()
        raise ValueError(
            f"scenario {scenario.id}: reference point {points[first]} has {counts[first]} "
            f"samples, needs more than k={k}"
        )
    rng = np.random.default_rng(seed)
    support, query = [], []
    for start, count in zip(starts, counts):
        order = by_rp[start : start + count][rng.permutation(count)]
        support.append(order[:k])
        query.append(order[k:])
    return scenario.samples[np.concatenate(support)], scenario.samples[np.concatenate(query)]


def partition_tasks(scenarios: Sequence[Scenario], test_count: int, seed: int) -> tuple:
    """Seeded disjoint (train, test) scenario lists, each in input order."""
    scenarios = list(scenarios)
    if not 0 < test_count < len(scenarios):
        raise ValueError(
            f"test_count must be in (0, {len(scenarios)}), got {test_count}"
        )
    test = set(np.random.default_rng(seed).permutation(len(scenarios))[:test_count].tolist())
    return (
        [s for i, s in enumerate(scenarios) if i not in test],
        [s for i, s in enumerate(scenarios) if i in test],
    )


def batch_from(records: np.ndarray):
    """Normalized amplitudes and (n, 2) position labels of SAMPLE_DTYPE records."""
    return normalize(records["amp"]), records["pos_cm"].copy()


# ---------------------------------------------------------------------------
# on-disk format: one JSON document per scenario


def save_scenario(scenario: Scenario, path) -> None:
    rec = scenario.samples
    amps = rec["amp"].reshape(len(rec), -1).tolist()  # antenna-major row-major, normative
    rows = zip(rec["rp"].tolist(), rec["pos_cm"].tolist(), amps)
    doc = {
        "id": scenario.id,
        "grid": {
            "rows": scenario.grid.rows,
            "cols": scenario.grid.cols,
            "spacing_cm": scenario.grid.spacing_cm,
        },
        "samples": [{"rp": rp, "pos_cm": pos, "amp": amp} for rp, pos, amp in rows],
    }
    Path(path).write_text(json.dumps(doc))


def read_json(path) -> dict:
    """The JSON object in file `path`; anything else is a DataFormatError naming the path."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise DataFormatError(f"{path}: file not found") from None
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: invalid JSON, not UTF-8 text: {e.reason}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: top level must be a JSON object, got {type(doc).__name__}")
    return doc


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise DataFormatError(f"{where}: missing field {key!r}")
    return doc[key]


def numeric_field(doc: dict, key: str, ndim: int, where: str) -> np.ndarray:
    """Field `key` of `doc` as a float64 array of `ndim` axes, JSON null read as NaN. Any
    other value, strings and booleans too, is a DataFormatError naming `where` and the field."""
    value = _require(doc, key, where)
    try:
        array = np.array(value)
    except ValueError:  # ragged: a string array, rejected below
        array = np.array("ragged")
    if array.dtype == object and all(
        v is None or type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max) for v in array.flat
    ):
        array = array.astype(np.float64)  # nulls, or integers beyond int64 but within float64
    # numpy reads [1.0, true] as [1., 1.]: scan the lists that hold the numbers, which
    # the checks before the scan have found to be lists of the right shape
    rows = value if ndim == 2 else [value]
    if array.dtype.kind not in "iuf" or array.ndim != ndim or any(bool in map(type, row) for row in rows):
        kind = "a list of numbers" if ndim == 1 else "a list of rows of numbers"
        raise DataFormatError(f"{where}: field {key!r} is not {kind}")
    return array.astype(np.float64, copy=False)


def load_scenario(path) -> Scenario:
    doc, where = read_json(path), str(path)
    sid = _require(doc, "id", where)
    if not isinstance(sid, str):
        raise DataFormatError(f"{where}: field 'id' must be a string, got {sid!r}")
    grid_doc = _require(doc, "grid", where)
    if not isinstance(grid_doc, dict):
        raise DataFormatError(f"{where}: 'grid' must be an object")
    for key, kinds in (("rows", (int,)), ("cols", (int,)), ("spacing_cm", (int, float))):
        value = _require(grid_doc, key, f"{where}: grid")
        if type(value) not in kinds:  # not a bool, and not a row count of 2.5
            kind = "an integer" if kinds == (int,) else "a number"
            raise DataFormatError(f"{where}: grid {key} must be {kind}, got {value!r}")
    spacing = grid_doc["spacing_cm"]
    if not 0 < spacing <= sys.float_info.max:  # NaN, Infinity and 10**400 too
        raise DataFormatError(f"{where}: grid spacing_cm must be finite and above 0, got {spacing!r}")
    grid = GridSpec(grid_doc["rows"], grid_doc["cols"], float(spacing))
    if grid.rows < 1 or grid.cols < 1:
        raise DataFormatError(f"{where}: grid {grid.rows}x{grid.cols} has no reference points")

    raw = _require(doc, "samples", where)
    if not isinstance(raw, list):
        raise DataFormatError(f"{where}: 'samples' must be a list")
    if not raw:
        raise DataFormatError(f"{where}: 'samples' is empty")
    # every reference point needs a sample: a grid larger than that is never built
    if grid.rows * grid.cols > len(raw):
        raise DataFormatError(
            f"{where}: grid {grid.rows}x{grid.cols} has {grid.rows * grid.cols} reference points "
            f"for {len(raw)} samples"
        )
    positions = grid.positions()
    if not all(map(math.isfinite, positions[-1])):  # the point farthest from the origin
        raise DataFormatError(f"{where}: grid {grid.rows}x{grid.cols} at spacing {spacing!r} cm is beyond float64")
    samples = np.empty(len(raw), dtype=SAMPLE_DTYPE)
    expected = math.prod(AMP_SHAPE)
    for i, entry in enumerate(raw):
        ctx = f"{where}: samples[{i}]"
        if not isinstance(entry, dict):
            raise DataFormatError(f"{ctx}: must be an object, got {type(entry).__name__}")
        rp = _require(entry, "rp", ctx)
        if type(rp) is not int:  # not a bool, and not a point 0.7 read as 0
            raise DataFormatError(f"{ctx}: field 'rp' must be an integer, got {rp!r}")
        pos = tuple(numeric_field(entry, "pos_cm", 1, ctx).tolist())
        if len(pos) != 2:
            raise DataFormatError(f"{ctx}: pos_cm must have 2 entries, got {len(pos)}")
        amp = numeric_field(entry, "amp", 1, ctx)
        if len(amp) != expected:
            raise DataFormatError(f"{ctx}: amp must have {expected} entries, got {len(amp)}")
        if not 0 <= rp < len(positions):
            raise DataFormatError(f"{ctx}: rp {rp} is outside [0, {len(positions)})")
        if pos != positions[rp]:
            raise DataFormatError(f"{ctx}: {pos} is not reference point {rp} at {positions[rp]}")
        samples[i] = rp, pos, amp.reshape(AMP_SHAPE)
    amps = samples["amp"]
    ok = ((amps >= 0) & (amps < np.inf)).all(axis=(1, 2))  # false for NaN too
    if not ok.all():
        raise DataFormatError(f"{where}: samples[{ok.argmin()}]: amplitudes must be finite and non-negative")
    missing = sorted(set(range(len(positions))) - set(samples["rp"].tolist()))
    if missing:
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise DataFormatError(f"{where}: no samples for reference point(s) {missing[:10]}{more}")
    return Scenario(id=sid, grid=grid, samples=samples)


def load_scenario_dir(directory) -> list:
    """All scenario_*.json files in a directory, sorted by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DataFormatError(f"{directory}: not a directory")
    paths = sorted(directory.glob("scenario_*.json"))
    if not paths:
        raise DataFormatError(f"{directory}: no scenario_*.json files found")
    return [load_scenario(p) for p in paths]
