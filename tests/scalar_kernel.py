"""Test-only oracle: the adaptive thresholding and sample-until-feasible
passes with one pull per loop step, as the run engine computed them before
long runs of pulls went in numpy blocks.

``ScalarRunState`` keeps everything of ``fcsr.algorithms._RunState`` but its
``apt`` and ``suf`` passes, which are the old loops verbatim, and the single
pull ``one`` they use. Put in place of ``fcsr.algorithms._RunState`` (the
tests use pytest's ``monkeypatch``), it lets the public phase functions and
full runs be replayed one pull at a time and compared with the block kernel
bit for bit.
"""

from __future__ import annotations

import math

from fcsr.algorithms import _CHUNK, _RunState


class ScalarRunState(_RunState):
    """``_RunState`` with the one-pull-per-step APT and SUF loops."""

    def one(self, i: int, j: int) -> float:
        buf = self.bufs[i][j]
        if not buf:
            vals = self.arms[i][j].draw_many(_CHUNK, self.gen)
            buf.extend(vals[::-1].tolist())
        return buf.pop()

    def apt(self, i: int, budget: int, threshold: float) -> int:
        """Adaptive thresholding pulls on arm ``i``: each step samples the
        attribute minimizing sqrt(count) * |empirical mean - threshold|,
        lowest index on ties."""
        limit = self.cap - self.used
        steps = budget if budget <= limit else limit
        if steps <= 0:
            return 0
        sums, counts, mu = self.sums[i], self.counts[i], self.mu[i]
        m = len(sums)
        sqrt = math.sqrt
        one = self.one
        scores = [sqrt(counts[j]) * abs(mu[j] - threshold) for j in range(m)]
        inner = range(1, m)
        for _ in range(steps):
            j = 0
            best = scores[0]
            for t in inner:
                v = scores[t]
                if v < best:
                    best = v
                    j = t
            x = one(i, j)
            s = sums[j] + x
            c = counts[j] + 1
            sums[j] = s
            counts[j] = c
            est = s / c
            mu[j] = est
            d = est - threshold
            scores[j] = sqrt(c) * (d if d >= 0.0 else -d)
        self.used += steps
        return steps

    def suf(self, i: int, feasibility_budget: int, threshold: float) -> int:
        """Sample-until-feasible pulls on arm ``i``, at most ``feasibility_budget``.

        Repeatedly takes the lowest-index attribute whose empirical mean is
        at or below the threshold and samples it until it crosses.
        """
        limit = self.cap - self.used
        cap = feasibility_budget if feasibility_budget <= limit else limit
        if cap <= 0:
            return 0
        sums, counts, mu = self.sums[i], self.counts[i], self.mu[i]
        m = len(sums)
        one = self.one
        used = 0
        while used < cap:
            j = -1
            for t in range(m):
                if mu[t] <= threshold:
                    j = t
                    break
            if j < 0:
                break
            while used < cap:
                x = one(i, j)
                s = sums[j] + x
                c = counts[j] + 1
                sums[j] = s
                counts[j] = c
                est = s / c
                mu[j] = est
                used += 1
                if est > threshold:
                    break
        self.used += used
        return used

