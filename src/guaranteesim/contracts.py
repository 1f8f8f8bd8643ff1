"""Guarantee payoff algebra.

Three contract shapes over the realized net outcome Y:

* full: the researcher absorbs every loss, the implementer keeps max(Y, 0);
* tail(k): losses below k are absorbed, the implementer keeps max(Y, k);
* proportional(s): the researcher pays the share s of any loss, the
  implementer keeps Y+ plus (1-s) of Y-.

researcher_payment is the transfer that funds the difference, so
payoff = Y + payment holds by construction.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .record import Record

__all__ = [
    "FullGuarantee",
    "TailGuarantee",
    "ProportionalGuarantee",
    "InsuranceContract",
    "implementer_payoff",
    "researcher_payment",
    "minimal_insurance",
    "MinimalInsurance",
]


class FullGuarantee(Record):
    pass


class TailGuarantee(Record):
    k: float

    def __post_init__(self):
        if self.k >= 0.0:
            raise ValueError(f"tail level must be negative, got {self.k}")

    def check_scale_cost(self, c_m: float) -> None:
        # k below -c_m can never bind: Y >= -c_m always
        if self.k <= -c_m:
            raise ValueError(
                f"tail level {self.k} at or below -c_m = {-c_m}; the guarantee never pays")


class ProportionalGuarantee(Record):
    share: float  # researcher's share s of the loss

    def __post_init__(self):
        if not 0.0 < self.share < 1.0:
            raise ValueError(f"loss share must lie strictly in (0,1), got {self.share}")


InsuranceContract = Union[FullGuarantee, TailGuarantee, ProportionalGuarantee]


def implementer_payoff(y, contract: InsuranceContract):
    """The implementer's outcome after the guarantee pays out."""
    y = np.asarray(y, dtype=float)
    if isinstance(contract, FullGuarantee):
        out = np.maximum(y, 0.0)
    elif isinstance(contract, TailGuarantee):
        out = np.maximum(y, contract.k)
    elif isinstance(contract, ProportionalGuarantee):
        out = np.maximum(y, 0.0) + (1.0 - contract.share) * np.minimum(y, 0.0)
    else:
        raise TypeError(f"unknown contract {contract!r}")
    return float(out) if out.ndim == 0 else out


def researcher_payment(y, contract: InsuranceContract):
    """What the researcher pays out; nonnegative, zero on any gain."""
    y = np.asarray(y, dtype=float)
    out = implementer_payoff(y, contract) - y
    return float(out) if np.ndim(out) == 0 else out


class MinimalInsurance(Record):
    k: float
    s: float


def minimal_insurance(u_bar: float, c_m: float) -> MinimalInsurance:
    """Cheapest guarantee levels meeting an expected-loss floor at cost c_m.

    Returns the tail level k = u_bar and the proportional share s =
    -u_bar/c_m. The tail form always clears the floor on its own. The
    proportional form leaves the implementer a worst case of -(1-s)*c_m,
    which clears the floor at this scale exactly when |u_bar| >= c_m/2, so
    pair it with instances in that range when acceptance at scale matters.
    With u_bar at or below -c_m the uninsured worst case -c_m already meets
    the floor: no insurance is needed, and s = 0 (k = u_bar never binds).
    """
    if c_m <= 0.0:
        raise ValueError(f"cost must be positive, got {c_m}")
    if u_bar >= 0.0:
        raise ValueError(f"loss limit must be negative, got {u_bar}")
    return MinimalInsurance(k=u_bar, s=-u_bar / c_m if u_bar > -c_m else 0.0)
