"""Few-shot indoor localization from CSI amplitudes.

A self-contained meta-learning stack: a tiny autodiff engine with
second-order support, the 1-d CNN position regressor it drives, a
synthetic multi-scenario CSI generator, the MAML / FOMAML / TB-MAML
trainers plus conventional and transfer baselines, and the benchmark
experiments that compare them.

Importing the package pins BLAS to one thread, so a result does not
depend on where it was computed. It sets OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS to 1 for this process and the workers it spawns,
overriding the caller's values, and numpy's bundled OpenBLAS, perhaps
already loaded, to one thread; _BLAS_PINNED says the library read back 1.
"""

import ctypes
import glob
import os

__version__ = "0.1.0"

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"


def _pinned_openblas():
    """numpy's bundled scipy-openblas, set to one thread, or None where
    numpy bundles none (numpy 1.x wheels, macOS .dylibs, MKL builds)."""
    import numpy  # after the variables above, in case numpy is not loaded yet

    try:
        (path,) = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "libscipy_openblas64_*"))
        lib = ctypes.CDLL(path)  # the copy numpy loaded: same path, same handle
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        lib.scipy_openblas_set_num_threads64_.restype = None
    except (ValueError, OSError, AttributeError):  # no single library, or a missing symbol
        return None
    lib.scipy_openblas_set_num_threads64_(1)
    return lib


_BLAS = _pinned_openblas()
_BLAS_PINNED = _BLAS is not None and _BLAS.scipy_openblas_get_num_threads64_() == 1
