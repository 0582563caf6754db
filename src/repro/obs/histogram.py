"""Fixed-bucket latency histograms for the observability stack.

A :class:`Histogram` records a *distribution* of observations (latency,
duration, size) into fixed log-spaced buckets — the aggregate complement
to the scalar counters/gauges in :mod:`repro.obs.tracer`.  Fixed
boundaries are the whole design: two histograms of the same name always
share bucket edges, so runs compare bucket by bucket and Prometheus
exposition is a straight cumulative sum.

The default boundaries span 10 µs .. 100 s with three buckets per
decade (1 / 2.5 / 5 steps), which covers every timed hot path in this
repository — a single coupling-pair kernel (~100 µs), a cache lookup
(~50 µs cold, ~10 µs warm), a coupling batch (~10 ms), and a full
service job (~1 s) — with bounded memory: 22 boundaries → 23 counts.

Thread-safety is by *containment*: a ``Histogram`` has no lock of its
own.  :meth:`~repro.obs.Tracer.observe` mutates it under the tracer
lock (the same contract as counters/gauges); standalone use from
multiple threads needs external locking.

Percentile estimates (:meth:`Histogram.percentile`) interpolate
linearly within the bucket that contains the requested rank — the
standard Prometheus ``histogram_quantile`` estimator.  With log-spaced
buckets the estimate is within one bucket width of the true value,
which is all a regression gate or a dashboard needs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

__all__ = ["Histogram", "DEFAULT_BUCKETS", "bucket_label"]


def _default_buckets() -> tuple[float, ...]:
    """Log-spaced boundaries 1e-5 .. 1e2 s, three per decade (1/2.5/5)."""
    edges: list[float] = []
    for exponent in range(-5, 2):
        for factor in (1.0, 2.5, 5.0):
            edges.append(factor * 10.0**exponent)
    edges.append(10.0**2)
    return tuple(edges)


#: The shared default boundaries [s].  22 upper edges; every histogram
#: created without explicit boundaries uses exactly these, so histograms
#: of different runs always share bucket edges.
DEFAULT_BUCKETS: tuple[float, ...] = _default_buckets()


def bucket_label(upper: float) -> str:
    """Deterministic text form of a bucket's upper edge (``le`` label).

    Uses the shortest round-tripping decimal (``repr``-style via
    ``%.12g``), so ``0.00025`` renders as ``0.00025`` and ``1.0`` as
    ``1`` — stable across platforms for the golden exports.
    """
    return format(upper, ".12g")


class Histogram:
    """Fixed-boundary histogram with sum/count.

    Attributes:
        name: metric name (dotted, e.g. ``"coupling.pair_seconds"``).
        boundaries: sorted upper bucket edges; observations above the
            last edge land in the implicit ``+Inf`` overflow bucket.
        counts: per-bucket observation counts, ``len(boundaries) + 1``
            entries (the last is the overflow bucket).
        total: sum of all observed values.
        count: number of observations.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "count")

    def __init__(
        self, name: str, boundaries: tuple[float, ...] | None = None
    ):
        edges = DEFAULT_BUCKETS if boundaries is None else tuple(boundaries)
        if not edges:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError(f"bucket boundaries must be strictly increasing: {edges}")
        self.name = name
        self.boundaries = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0.0
        self.count = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, count={self.count}, sum={self.total:.6f})"

    def observe(self, value: float) -> None:
        """Record one observation (not thread-safe on its own)."""
        value = float(value)
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[tuple[str, int]]:
        """Cumulative ``(le_label, count)`` pairs ending with ``+Inf``.

        This is the Prometheus ``_bucket`` series shape: each entry
        counts every observation ≤ its edge, and the final ``+Inf``
        entry equals :attr:`count`.
        """
        out: list[tuple[str, int]] = []
        running = 0
        for edge, n in zip(self.boundaries, self.counts):
            running += n
            out.append((bucket_label(edge), running))
        out.append(("+Inf", self.count))
        return out

    def percentile(self, q: float) -> float:
        """Estimated value at quantile ``q`` (0..1), 0.0 when empty.

        Linear interpolation within the containing bucket; ranks in the
        overflow bucket return the last finite edge (the estimate is
        clamped — there is no upper bound to interpolate toward).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for i, n in enumerate(self.counts[:-1]):
            lower = 0.0 if i == 0 else self.boundaries[i - 1]
            upper = self.boundaries[i]
            if running + n >= rank:
                if n == 0:
                    return upper
                fraction = (rank - running) / n
                return lower + fraction * (upper - lower)
            running += n
        return self.boundaries[-1]

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time summary: count, sum and p50/p95/p99 estimates."""
        return {
            "count": self.count,
            "sum": self.total,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (omits default boundaries)."""
        out: dict[str, Any] = {
            "count": self.count,
            "sum": self.total,
            "counts": list(self.counts),
        }
        if self.boundaries != DEFAULT_BUCKETS:
            out["boundaries"] = list(self.boundaries)
        return out

    @classmethod
    def from_dict(cls, name: str, data: dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        boundaries = data.get("boundaries")
        hist = cls(
            name,
            tuple(float(b) for b in boundaries) if boundaries is not None else None,
        )
        counts = [int(n) for n in data.get("counts", [])]
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"histogram {name!r}: expected {len(hist.counts)} bucket "
                f"counts, got {len(counts)}"
            )
        hist.counts = counts
        hist.total = float(data.get("sum", 0.0))
        hist.count = int(data.get("count", 0))
        return hist
