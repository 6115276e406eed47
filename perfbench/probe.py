"""Speed probe: how fast this core runs right now.

The benchmark's host is a 2-vCPU cloud VM whose physical cores are
shared with other tenants.  Their load slows every instruction of the
benchmark by up to about 60 %, for stretches of seconds to minutes, and
the slowdown shows in CPU time as well as wall time.  No choice of
estimator over a 60 s run removes a slowdown that lasts the whole run.

So the benchmark times a fixed piece of work -- the probe -- between
the parts of every row, and scales each part's wall time by how much
slower than usual the probe ran around it.  The probe is shaped like the
program's own inner loops (a Python loop of sparse matrix-vector
products and vector updates, as in CG and GMRES, plus one vectorised
pass over a few thousand elements, as in assembly), so contention slows
both alike.  It uses numpy and scipy only, never ``miscfem``: a change
to the program cannot change the probe.

``scaled = wall * REFERENCE_S / local probe time``: a part reads what
it would have taken with the probe at its reference speed.  The unit
stays seconds.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp

# A round figure for the probe's time on the baseline machine when its
# host is quiet (1.2-1.5 ms then, up to 2.3 ms under load), so that the
# scaled figures come near the wall times of a quiet host.  It only fixes
# their scale: both sides of a comparison use it.
REFERENCE_S = 1.25e-3

# Probes around a part whose median sets the part's scale: the part's
# own two neighbours and the next ones out, so one probe hit by an
# interrupt moves nothing.
WINDOW = 8


class Probe:
    """A fixed, seed-free piece of work, timed each call."""

    def __init__(self, n: int = 2000, iterations: int = 12):
        rng = np.random.default_rng(12345)
        a = sp.random(n, n, density=6.0 / n, random_state=rng, format="csr")
        self.A = (a + a.T + 16.0 * sp.identity(n)).tocsr()
        self.v = rng.standard_normal(n)
        self.cells = rng.standard_normal((2 * n, 3, 3))
        self.iterations = iterations

    def __call__(self) -> float:
        """Seconds the probe took this time."""
        t = perf_counter()
        r = self.v.copy()
        p = r.copy()
        for _ in range(self.iterations):
            q = self.A @ p
            alpha = float(r @ r) / float(p @ q)
            r = r - 1e-3 * alpha * q
            p = r + 0.5 * p
        np.einsum("kij,kjl->kil", self.cells, self.cells).sum()
        return perf_counter() - t


def scales(probes) -> np.ndarray:
    """Scale of each part between consecutive probes.

    Probe ``j`` ran just before part ``j`` and probe ``j + 1`` just
    after it; the part's scale is REFERENCE_S over the median of the
    WINDOW probes centred on it (fewer at the ends of a row)."""
    probes = np.asarray(probes, dtype=float)
    half = WINDOW // 2
    out = np.empty(probes.size - 1)
    for j in range(out.size):
        lo, hi = max(0, j + 1 - half), min(probes.size, j + 1 + half)
        out[j] = REFERENCE_S / np.median(probes[lo:hi])
    return out
