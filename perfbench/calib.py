"""Host-speed references for normalising measured times.

The benchmark runs on shared hosts whose speed for one process changes
by up to about 2x over seconds to minutes (other tenants' load). Every
op time the benchmark reports is therefore a raw time scaled by
``NOMINAL_S / r``, where ``r`` is the time of a fixed in-process
reference computation measured around it. The reference uses no qsnom code, so a
change to qsnom moves the raw time and leaves ``r`` alone; a slower
host moves both. The reference mixes the two kinds of work the
workloads do: interpreter and small-array work (the root search, the
closed form, the register builds) and a LAPACK ``eigh`` of a dense
complex matrix (the exact check of large registers). Work done in
fresh interpreters, ``setup_s`` and the ``qsnom`` commands of
``cli-batch``, is scaled by ``STARTUP_NOMINAL_S / r`` instead, with
``r`` the time a fresh interpreter takes to import the libraries qsnom
builds on. The raw values stay in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

# Round values near the references' times on the host the benchmark
# was tuned on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4, one BLAS
# thread), so normalised times read about as raw times on such a host
# in a quiet hour.
NOMINAL_S = 3.0e-3
STARTUP_NOMINAL_S = 0.5
STARTUP_CODE = "import numpy, scipy.linalg, scipy.optimize"

_VEC = np.arange(16.0)
_side = np.arange(96.0)
_MATRIX = np.cos(np.outer(_side, _side + 0.5)) + 1j * np.sin(np.add.outer(_side, _side) / 7.0)
_MATRIX = _MATRIX + _MATRIX.conj().T
_WINDOW_S = 1.0  # reference samples within this distance of a time count


def reference() -> float:
    """Seconds taken by a fixed mix of interpreter, small-array and eigh work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(60):
        acc += float(np.kron(_VEC[:4], _VEC[:4]).sum()) + {"k": i}["k"] * 0.5
    np.linalg.eigh(_MATRIX)
    return time.perf_counter() - start


def sample(repeats: int = 3) -> float:
    """Median of a few back-to-back reference runs after a warm-up run."""
    reference()
    return statistics.median(reference() for _ in range(repeats))


def startup_reference(env: dict[str, str] | None = None) -> float:
    """Seconds for a fresh interpreter to import numpy and scipy."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", STARTUP_CODE], env=env, check=True)
    return time.monotonic() - start


NOMINAL = {"in-process": NOMINAL_S, "startup": STARTUP_NOMINAL_S}


def take(kind: str) -> float:
    """One sample of the ``in-process`` or the ``startup`` reference."""
    return startup_reference() if kind == "startup" else sample()


class Scale:
    """Scale factor ``nominal / r`` at a time, from reference samples.

    ``r`` is the median of the samples taken within ``_WINDOW_S`` of the
    time, or of the three nearest samples when the window holds fewer.
    """

    def __init__(self, times: list[float], refs: list[float], nominal: float) -> None:
        self.nominal = nominal
        order = sorted(range(len(times)), key=times.__getitem__)
        self.times = [times[k] for k in order]
        self.refs = [refs[k] for k in order]

    def at(self, t: float) -> float:
        lo = bisect.bisect_left(self.times, t - _WINDOW_S)
        hi = bisect.bisect_right(self.times, t + _WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.times, t)
            lo, hi = max(mid - 2, 0), min(mid + 2, len(self.times))
            lo = max(min(lo, hi - 3), 0)
        return self.nominal / statistics.median(self.refs[lo:hi])


def normalised_ms(loop: dict) -> list[float]:
    """Op latencies of one measuring loop in normalised milliseconds."""
    scale = Scale(loop["ref_times_s"], loop["refs_s"], NOMINAL[loop["reference"]])
    return [
        lat * 1e3 * scale.at(t0 + lat / 2)
        for t0, lat in zip(loop["starts_s"], loop["latencies_s"])
    ]
