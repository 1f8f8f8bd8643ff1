"""Policy cost/benefit model.

Costs are a per-scale schedule c_1..c_M, benefits a function of the
success count, and the dilution factor q multiplies the success
probability inside every expectation. Expectations over table-form
benefits are exact enumerations; linear forms use their closed forms.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .binomial import binom_pmf_dot, binom_pmf_vector, smallest_double
from .record import Record
from .simulate import ENUMERATION_LIMIT

__all__ = [
    "CostSchedule",
    "BenefitFunction",
    "PolicyEconomics",
    "NoBreakEvenError",
    "SingleCrossingReport",
]


class NoBreakEvenError(ValueError):
    """Even certain success cannot cover the full-population cost."""


class CostSchedule(Record):
    """Implementation cost per scale m = 1..M; positive, strictly increasing."""

    values: np.ndarray  # c_1..c_M

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", arr)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("cost table must be a nonempty vector")
        if arr[0] <= 0.0:
            raise ValueError("costs must be positive")
        if (np.diff(arr) <= 0.0).any():
            raise ValueError("costs must be strictly increasing in scale")

    @classmethod
    def linear(cls, unit_cost: float, M: int) -> "CostSchedule":
        if unit_cost <= 0.0:
            raise ValueError("unit cost must be positive")
        return cls(unit_cost * np.arange(1, M + 1))

    @classmethod
    def affine(cls, fixed: float, unit_cost: float, M: int) -> "CostSchedule":
        if fixed < 0.0:
            raise ValueError("fixed cost cannot be negative")
        if unit_cost <= 0.0:
            raise ValueError("unit cost must be positive")
        return cls(fixed + unit_cost * np.arange(1, M + 1))

    @classmethod
    def table(cls, values) -> "CostSchedule":
        return cls(np.asarray(values, dtype=float))

    @property
    def M(self) -> int:
        return int(self.values.size)

    def cost(self, m: int) -> float:
        if m == 0:
            return 0.0
        if not 1 <= m <= self.M:
            raise ValueError(f"scale {m} outside 1..{self.M}")
        return float(self.values[m - 1])


class BenefitFunction(Record):
    """Benefit of x successes; b(0) = 0 and strictly increasing."""

    beta: Optional[float] = None
    table: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.beta is None) == (self.table is None):
            raise ValueError("specify exactly one of beta (linear) or table")
        if self.beta is not None and self.beta <= 0.0:
            raise ValueError("linear benefit slope must be positive")
        if self.table is not None:
            arr = np.asarray(self.table, dtype=float)
            object.__setattr__(self, "table", arr)
            if arr.ndim != 1 or arr.size < 2:
                raise ValueError("benefit table needs entries for x = 0..M")
            if arr[0] != 0.0:
                raise ValueError("benefit at zero successes must be 0")
            if (np.diff(arr) <= 0.0).any():
                raise ValueError("benefit must be strictly increasing in x")

    @classmethod
    def linear(cls, beta: float) -> "BenefitFunction":
        return cls(beta=beta)

    @classmethod
    def from_table(cls, values) -> "BenefitFunction":
        return cls(table=np.asarray(values, dtype=float))

    @property
    def is_linear(self) -> bool:
        return self.beta is not None

    def value(self, x):
        if self.beta is not None:
            return self.beta * np.asarray(x, dtype=float)
        arr = np.asarray(x, dtype=int)
        if (arr < 0).any() or (arr >= self.table.size).any():
            raise ValueError("success count outside benefit table range")
        return self.table[arr]


class PolicyEconomics(Record):
    costs: CostSchedule
    benefit: BenefitFunction
    dilution: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.dilution <= 1.0:
            raise ValueError(f"dilution must lie in [0,1], got {self.dilution}")
        if self.benefit.table is not None and self.benefit.table.size < self.M + 1:
            raise ValueError("benefit table must cover x = 0..M")
        if self.M > ENUMERATION_LIMIT:
            raise ValueError(f"exact enumeration supports M <= {ENUMERATION_LIMIT}")

    @property
    def M(self) -> int:
        return self.costs.M

    def cost(self, m: int) -> float:
        return self.costs.cost(m)

    def _check_scale(self, m: int) -> None:
        if not 1 <= m <= self.M:
            raise ValueError(f"scale {m} outside 1..{self.M}")

    def success_rate(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"success probability must lie in [0,1], got {p}")
        return p * self.dilution

    def expected_benefit(self, m: int, p: float) -> float:
        """E[b(X_m)] with X_m ~ Binomial(m, p*q)."""
        self._check_scale(m)
        eff = self.success_rate(p)
        if self.benefit.is_linear:
            return self.benefit.beta * m * eff
        pmf = binom_pmf_vector(m, eff)
        return float(pmf @ self.benefit.value(np.arange(m + 1)))

    def expected_net(self, m: int, p: float) -> float:
        if m == 0:
            return 0.0
        return self.expected_benefit(m, p) - self.cost(m)

    def net_outcome(self, m: int, x) -> np.ndarray:
        """Realized Y = b(x) - c_m."""
        self._check_scale(m)
        return np.asarray(self.benefit.value(x), dtype=float) - self.cost(m)

    def break_even_success_rate(self) -> float:
        """p0, the smallest double p with E[b(X_M)] >= c_M, the undiluted
        p as root variable."""
        c_M = self.cost(self.M)
        if self.expected_benefit(self.M, 1.0) < c_M:
            raise NoBreakEvenError(
                "full-population benefit cannot cover cost even at p = 1")
        return smallest_double(
            lambda p: self.expected_benefit(self.M, p) >= c_M, 0.0, 1.0)

    def max_scale_under_bound(self, alpha: float, u_bar: float) -> int:
        """Largest m with -alpha*c_m >= u_bar; 0 when even m = 1 fails."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0,1], got {alpha}")
        if u_bar >= 0.0:
            raise ValueError(f"loss limit must be negative, got {u_bar}")
        if alpha == 0.0:
            return self.M
        # costs increase, so the feasible scales form a prefix of 1..M
        ok = alpha * self.costs.values <= -u_bar
        return int(ok.sum())

    def single_crossing_report(self, p_grid) -> "SingleCrossingReport":
        """Check the shape: net(m) negative below some m*(p), strictly
        increasing from m*(p) on. Reports the first violating (p, m). Nets
        match expected_net: bit for bit for linear benefits, to rounding
        for tables (one binom_pmf_dot per scale)."""
        if self.M == 1:
            return SingleCrossingReport(holds=True)
        grid = np.asarray(p_grid, dtype=float)
        effs = np.array([self.success_rate(p) for p in grid])
        ms = np.arange(1, self.M + 1)
        if self.benefit.is_linear:
            benefit = (self.benefit.beta * ms) * effs[:, None]
        else:
            table = self.benefit.table
            benefit = np.column_stack(
                [binom_pmf_dot(m, effs, table[: m + 1]) for m in ms])
        for p, net in zip(grid, benefit - self.costs.values):
            # nets before the strictly increasing suffix must be negative
            flat = np.flatnonzero(~(np.diff(net) > 0.0))
            bad = np.flatnonzero(net[: flat[-1] + 1 if flat.size else 0] >= 0.0)
            if bad.size:
                return SingleCrossingReport(
                    holds=False, violating_p=float(p), violating_m=int(bad[0] + 1))
        return SingleCrossingReport(holds=True)


class SingleCrossingReport(Record):
    holds: bool
    violating_p: Optional[float] = None
    violating_m: Optional[int] = None
