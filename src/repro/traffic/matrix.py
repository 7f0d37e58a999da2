"""Traffic matrices: per-pair flit rates or flit counts.

Two views of traffic exist in the paper:

* **rate matrices** (flits/cycle/node) drive the analytical design-space
  exploration (Fig. 5, Tables III/IV);
* **volume matrices** (total flit counts between pairs) summarize the NPB
  traces for energy accounting (Table V) — "we used only flit counts
  between source-destination pairs, and temporal information is ignored".

Both are wrapped by :class:`TrafficMatrix`, an N x N non-negative float
array with a zero diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TrafficMatrix"]


@dataclass
class TrafficMatrix:
    """N x N non-negative traffic matrix with a zero diagonal.

    ``matrix[s, d]`` is either a flit rate (flits/cycle) or a flit count,
    depending on context; the class is agnostic and purely structural.
    """

    matrix: np.ndarray
    name: str = "traffic"

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"traffic matrix must be square, got {m.shape}")
        if (m < 0).any():
            raise ValueError("traffic matrix entries must be >= 0")
        if (m.diagonal() != 0).any():
            raise ValueError("traffic matrix diagonal must be zero (no self-traffic)")
        self.matrix = m

    @property
    def n_nodes(self) -> int:
        """Number of nodes N."""
        return self.matrix.shape[0]

    @property
    def total(self) -> float:
        """Sum over all pairs (total rate or total flits)."""
        return float(self.matrix.sum())

    def injection_rates(self) -> np.ndarray:
        """Per-source totals (row sums)."""
        return self.matrix.sum(axis=1)

    def mean_injection_rate(self) -> float:
        """Average per-node injection (total / N)."""
        return self.total / self.n_nodes

    def scaled_to_injection_rate(self, rate: float) -> "TrafficMatrix":
        """Rescale so the *average* per-node injection equals ``rate``.

        The paper's sweeps fix the mean injection rate (max 0.1
        flits/node/cycle) while the Gaussian model varies per-node shares.
        """
        if rate < 0:
            raise ValueError(f"injection rate must be >= 0, got {rate}")
        current = self.mean_injection_rate()
        if current == 0:
            raise ValueError("cannot rescale an all-zero traffic matrix")
        return TrafficMatrix(self.matrix * (rate / current), name=self.name)

    def normalized(self) -> "TrafficMatrix":
        """Probability view: entries sum to 1."""
        if self.total == 0:
            raise ValueError("cannot normalize an all-zero traffic matrix")
        return TrafficMatrix(self.matrix / self.total, name=self.name)

    def mean_distance(self, distance: np.ndarray) -> float:
        """Traffic-weighted mean of a pairwise distance matrix."""
        d = np.asarray(distance, dtype=np.float64)
        if d.shape != self.matrix.shape:
            raise ValueError(
                f"distance shape {d.shape} != traffic shape {self.matrix.shape}"
            )
        if self.total == 0:
            raise ValueError("mean distance undefined for zero traffic")
        return float((self.matrix * d).sum() / self.total)
