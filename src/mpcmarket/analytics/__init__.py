"""Workloads: linkage-disequilibrium chi-square tests and logistic-regression
inference, each as a plaintext oracle, a Boolean circuit, and the value
bounds of its HE plan."""

from .ld import (
    HaplotypeCounts,
    LdResult,
    LdStatisticUndefined,
    PlanRejected,
    build_ld_circuit,
    ld_decide_plain,
)
from .lr import (
    LrModel,
    SigmoidTable,
    build_lr_circuit,
    build_sigmoid_table,
    load_model,
    lr_accumulator_range,
    lr_predict_fixed,
)

__all__ = [
    "HaplotypeCounts",
    "LdResult",
    "LdStatisticUndefined",
    "LrModel",
    "PlanRejected",
    "SigmoidTable",
    "build_ld_circuit",
    "build_lr_circuit",
    "build_sigmoid_table",
    "ld_decide_plain",
    "load_model",
    "lr_accumulator_range",
    "lr_predict_fixed",
]
