"""Output check: compare a job's flattened outputs with a stored reference.

References live in ``reference/<workload>-<seed>.npz``, one per pinned
seed, written from the commit that defined the benchmark. Floats must
agree within ``|a - b| <= atol + RTOL * |b|``; text must be equal.

RTOL is set from measured drift: running with ``OPENBLAS_NUM_THREADS=1``
against leaving it unset moved the outputs by at most 4e-14 relative
(``maml-train`` parameters; ``bench-cli`` 5e-16, ``importance`` not at
all), so 1e-9 leaves four orders of margin while still catching a change
to the arithmetic. The CSV files ``metaloc
bench`` writes round to 6 decimals, so a 1e-13 drift can flip their last
digit; values read from them get ``CSV_ATOL`` on top.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-9
ATOL = 1e-12
CSV_ATOL = 2e-6


def reference_path(workload: str, seed: int, directory: Path = REFERENCE_DIR) -> Path:
    return directory / f"{workload}-{seed}.npz"


def save(path: Path, outputs: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **{k: np.asarray(v) for k, v in outputs.items()})


def load(path: Path) -> dict:
    with np.load(path, allow_pickle=False) as doc:
        return {k: str(doc[k][()]) if doc[k].dtype.kind == "U" else doc[k] for k in doc.files}


def compare(outputs: dict, reference: dict, rtol: float = RTOL) -> list:
    """Differences beyond tolerance, one line each; empty when they agree."""
    problems = []
    if set(outputs) != set(reference):
        problems.append(f"keys differ: {sorted(set(outputs) ^ set(reference))}")
    for key in sorted(set(outputs) & set(reference)):
        got, want = outputs[key], reference[key]
        if isinstance(want, str) or isinstance(got, str):
            if got != want:
                problems.append(f"{key}: text differs")
            continue
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape:
            problems.append(f"{key}: shape {got.shape} != {want.shape}")
            continue
        atol = CSV_ATOL if ".csv:" in key else ATOL
        close = np.isclose(got, want, rtol=rtol, atol=atol, equal_nan=True)
        if not close.all():
            worst = int(np.argmax(np.where(close, 0.0, np.abs(got - want))))
            problems.append(
                f"{key}: {int((~close).sum())} values off, e.g. {got.flat[worst]!r} vs {want.flat[worst]!r}"
            )
    return problems


def identical(outputs: dict, first: dict) -> list:
    """Bitwise comparison, for jobs that repeat the same inputs."""
    if not _differs(outputs, first):
        return []
    return compare(outputs, first, rtol=0.0) or ["outputs differ bitwise from the first job"]


def _differs(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return True
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, str) or isinstance(y, str):
            if x != y:
                return True
        elif not np.array_equal(x, y, equal_nan=True):
            return True
    return False
