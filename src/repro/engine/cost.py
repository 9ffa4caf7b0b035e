"""I/O cost model.

The paper (§5) plans a deliberately simple model: "count bytes of I/O as well
as disk seeks ... We will ignore CPU costs". :class:`CostModel` converts
(pages, seeks) pairs into estimated milliseconds using a classical
seek-plus-bandwidth disk model, and exposes the conversion used by both the
access-method costing (``scan_cost`` / ``get_element_cost``) and the storage
design optimizer — the same numbers on both sides, per the paper ("using the
cost functions exposed by the RodentStore storage layer").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Milliseconds = seeks * seek_ms + bytes / bandwidth.

    Defaults approximate the 2009-era commodity disk the paper's case study
    ran on: ~4 ms average seek (plus rotational delay folded in) and
    ~50 MB/s sequential bandwidth.
    """

    page_size: int
    seek_ms: float = 4.0
    bandwidth_mb_per_s: float = 50.0

    def transfer_ms(self, pages: float) -> float:
        bytes_read = pages * self.page_size
        return bytes_read / (self.bandwidth_mb_per_s * 1e6) * 1e3

    def cost_ms(self, pages: float, seeks: float) -> float:
        """Estimated latency for reading ``pages`` with ``seeks`` head moves."""
        return seeks * self.seek_ms + self.transfer_ms(pages)


@dataclass(frozen=True)
class CostEstimate:
    """A (pages, seeks, milliseconds) triple returned by the cost API."""

    pages: float
    seeks: float
    ms: float

    def __add__(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(
            self.pages + other.pages,
            self.seeks + other.seeks,
            self.ms + other.ms,
        )

    @staticmethod
    def zero() -> "CostEstimate":
        return CostEstimate(0.0, 0.0, 0.0)


def estimate(model: CostModel, pages: float, seeks: float) -> CostEstimate:
    return CostEstimate(pages, seeks, model.cost_ms(pages, seeks))
