"""Cost-function value types: Eq 1 communication costs, router, coercion.

A :class:`CommCostFunction` is the paper's Eq 1,

    ``T_comm[C_i, τ](b, p) = c1 + c2·p + b·(c3 + c4·p)``,

for one (cluster, topology) pair.  :class:`LinearByteCost` covers the
per-byte router and coercion penalties ``T_router``/``T_coerce``.

The paper notes that for small ``p`` a fitted bandwidth coefficient
``c3 + c4·p`` can turn negative (their IPC cluster at ``P2 = 2``); taking its
**absolute value** is "a very good approximation to the actual cost".  We
implement the same quirk, controlled by ``abs_bandwidth_quirk``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CommCostFunction", "LinearByteCost"]


@dataclass(frozen=True)
class CommCostFunction:
    """Eq 1 for one cluster and topology, in milliseconds.

    Attributes
    ----------
    c1, c2:
        Latency constants: fixed and per-processor.
    c3, c4:
        Bandwidth constants: per-byte and per-byte-per-processor.
    abs_bandwidth_quirk:
        Apply ``|c3 + c4·p|`` as the per-byte coefficient (paper §6).
    r_squared:
        Goodness of the fit that produced the constants (1.0 if exact).
    """

    cluster: str
    topology: str
    c1: float
    c2: float
    c3: float
    c4: float
    abs_bandwidth_quirk: bool = True
    r_squared: float = 1.0
    n_samples: int = 0

    def evaluate(self, b: float, p: int) -> float:
        """Per-cycle communication cost for ``p`` processors, ``b``-byte messages.

        A lone processor has no one to exchange with: cost is 0 for p <= 1.
        """
        if p <= 1:
            return 0.0
        if b < 0:
            raise ValueError(f"message size must be non-negative, got {b}")
        latency = self.c1 + self.c2 * p
        per_byte = self.c3 + self.c4 * p
        if self.abs_bandwidth_quirk:
            per_byte = abs(per_byte)
        return latency + b * per_byte

    def as_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "cluster": self.cluster,
            "topology": self.topology,
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "c4": self.c4,
            "abs_bandwidth_quirk": self.abs_bandwidth_quirk,
            "r_squared": self.r_squared,
            "n_samples": self.n_samples,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CommCostFunction":
        """Inverse of :meth:`as_dict`."""
        return cls(**data)


@dataclass(frozen=True)
class LinearByteCost:
    """A per-message cost linear in the byte count: ``a + s·b`` ms.

    Used for both ``T_router[C_i, C_j](b)`` and ``T_coerce[C_i, C_j](b)``.
    """

    src: str
    dst: str
    kind: str  # "router" | "coerce"
    intercept_ms: float
    slope_ms_per_byte: float
    r_squared: float = 1.0
    n_samples: int = 0

    def evaluate(self, b: float) -> float:
        """Cost of one ``b``-byte message crossing this boundary."""
        if b < 0:
            raise ValueError(f"message size must be non-negative, got {b}")
        return self.intercept_ms + self.slope_ms_per_byte * b

    def as_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "src": self.src,
            "dst": self.dst,
            "kind": self.kind,
            "intercept_ms": self.intercept_ms,
            "slope_ms_per_byte": self.slope_ms_per_byte,
            "r_squared": self.r_squared,
            "n_samples": self.n_samples,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinearByteCost":
        """Inverse of :meth:`as_dict`."""
        return cls(**data)
