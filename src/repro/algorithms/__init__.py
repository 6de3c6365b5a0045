"""Period algorithms: Theorem 1 (polynomial), full-TPN, bounds."""

from .bounds import (
    CriticalResourceVerdict,
    classify_critical_resource,
    period_lower_bound,
)
from .general_tpn import TpnSolution, describe_critical_cycle, tpn_period
from .overlap_poly import (
    ColumnContribution,
    OverlapBreakdown,
    overlap_period,
    overlap_period_many,
)
from .verify import PeriodCertificate, certify_period, check_certificate

__all__ = [
    "PeriodCertificate",
    "certify_period",
    "check_certificate",
    "overlap_period",
    "overlap_period_many",
    "OverlapBreakdown",
    "ColumnContribution",
    "tpn_period",
    "TpnSolution",
    "describe_critical_cycle",
    "period_lower_bound",
    "classify_critical_resource",
    "CriticalResourceVerdict",
]
