"""Timing at a reference host speed.

The benchmark host is a VM whose cores other tenants share: a fixed loop of
Fraction arithmetic takes from 70 to 180 ms from one second to the next,
and the level drifts by a third over minutes.  Raw wall times of the same
op list on the same inputs therefore spread far wider than any bound worth
setting.  So each timed call is bracketed by a probe, a fixed pure-Python
Fraction loop that does not touch orbitkit, and probed again every
SAMPLE_EVERY_S seconds while it runs (from a SIGALRM handler, whose time is
taken out of the call's).  The call's time is rescaled to a host on which
one probe term takes REFERENCE_TERM_S: a change to orbitkit moves the
result in full, and a change of host speed cancels out.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

EDGE_TERMS = 1200
SAMPLE_TERMS = 150
SAMPLE_EVERY_S = 0.02
# one term's usual time on a 2-vCPU x86-64 VM with CPython 3.11; it only
# fixes the unit of the rescaled times
REFERENCE_TERM_S = 0.004 / EDGE_TERMS


def factor(probe_s: float, terms: int) -> float:
    """Multiplier from this host's speed, as probed, to reference speed."""
    return REFERENCE_TERM_S * terms / probe_s


def probe(terms: int) -> float:
    """Seconds this host takes for `terms` terms of a fixed Fraction sum."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, terms + 1):
        total += Fraction(i % 97, i % 89 + 1)
    return time.perf_counter() - start


class Clock:
    """Times calls at reference speed; probes are shared between neighbours.

    With sample_inside false only the edges are probed, so that no probe
    runs inside a traced span.
    """

    def __init__(self, sample_inside: bool = True):
        self._sample_inside = sample_inside
        self._edge = probe(EDGE_TERMS)
        self._inside_s = 0.0
        self._inside_terms = 0
        self._sampling = False

    def _sample(self, signum, frame):
        if self._sampling:  # a tick that lands inside a probe is dropped
            return
        self._sampling = True
        self._inside_s += probe(SAMPLE_TERMS)
        self._inside_terms += SAMPLE_TERMS
        self._sampling = False

    def call(self, fn):
        """Run fn(); returns (result or None, exception or None, its seconds
        with the probe time taken out, the factor to reference speed)."""
        self._inside_s, self._inside_terms = 0.0, 0
        interval = SAMPLE_EVERY_S if self._sample_inside else 0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        result = error = None
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller counts it as a failed op
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        inside_s, inside_terms = self._inside_s, self._inside_terms
        before, self._edge = self._edge, probe(EDGE_TERMS)
        return result, error, elapsed - inside_s, factor(
            before + inside_s + self._edge, 2 * EDGE_TERMS + inside_terms)
