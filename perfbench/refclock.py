"""A reference clock for a machine whose speed changes from second to second.

The benchmark shares its cores with other load it cannot see. Under that
load the same work runs up to about 2.5 times slower, in phases that last
from a second to over a minute, and the process's CPU time slows just as
its wall time does. So the benchmark times a fixed reference kernel just
before and just after every CLI stage. Dividing a stage's time by the
reference time around it gives the stage's cost in reference units, which
the machine's phases move far less than they move seconds.

Times are reported as **reference seconds**: measured time scaled by
``REF_S / reference time``. ``REF_S`` is the fastest of 400 reference
measurements on the machine the benchmark was tuned on, a 2-vCPU Intel
Xeon VM with Python 3.11 and numpy 2.4. So a reference second is about a
second of that machine at full speed.

The kernel mixes what motionseg spends its time on: numpy reductions and
a small solve over a few thousand colour samples, an element-wise pass
over an image-sized array, and interpreted Python walking large lists of
ints at random, as the max-flow solver does over a network's arrays. The
last part matters: load from other machines slows code that misses the
cache more than code that does not, and a kernel without it followed the
`multilabel` chains' slowdown markedly worse. The kernel depends on
nothing in ``src/``, so no change to the program moves it.
"""

import time

import numpy as np

# Seconds of the fastest reference() measurement on the tuning machine.
REF_S = 0.0023
# A measurement is the fastest of this many kernel runs, so a burst of
# other load in one of them is not taken for the machine's speed.
REPEATS = 4

_rng = np.random.default_rng(0)
_SAMPLES = _rng.normal(size=(2000, 3))
_IMAGE = _rng.random((112, 144, 3))
# A random walk over 60k nodes with four ints each: a few MB of Python
# lists, about the size of one frame's flow network.
_NODES = 60000
_NEXT = _rng.permutation(_NODES).tolist()
_ARCS = _rng.integers(0, _NODES, size=4 * _NODES).tolist()


def _kernel():
    x = _SAMPLES
    for _ in range(3):
        mean = x.mean(axis=0)
        inv = np.linalg.inv(np.cov(x.T))
        d = x - mean
        q = np.einsum("ij,jk,ik->i", d, inv, d)
        np.exp(-0.5 * q).sum()
        total = 0
        for j in range(1200):
            total += j * j
    np.abs(np.diff(_IMAGE, axis=0)).sum()
    node = 0
    for _ in range(3000):
        node = _NEXT[node]
        total += _ARCS[4 * node] + _ARCS[4 * node + 3]
    return total


def reference():
    """Seconds of the fastest of REPEATS runs of the reference kernel."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
