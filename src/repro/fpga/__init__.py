"""FPGA hardware substrate: Alveo U280 spec, HBM/DDR/PCIe/Aurora channel
models, resource estimation, SLR floorplanning, and power."""

from repro.fpga.u280 import DEFAULT_U280, ResourceBudget, U280Spec
from repro.fpga.memory import (
    DDRModel,
    HBMModel,
    PCIeModel,
    kv_cache_bytes,
    weights_fit_in_hbm,
)
from repro.fpga.aurora import AURORA_ENCODING_EFFICIENCY, AuroraLinkModel
from repro.fpga.resources import (
    CORE_COMPONENTS,
    CoreResourceReport,
    ResourceUsage,
    estimate_core_resources,
    estimate_mpu,
    mpu_dsp_count,
)
from repro.fpga.floorplan import FloorplanResult, SLRAssignment, plan_floorplan
from repro.fpga.power import FPGAPowerModel

__all__ = [
    "DEFAULT_U280",
    "ResourceBudget",
    "U280Spec",
    "DDRModel",
    "HBMModel",
    "PCIeModel",
    "kv_cache_bytes",
    "weights_fit_in_hbm",
    "AURORA_ENCODING_EFFICIENCY",
    "AuroraLinkModel",
    "CORE_COMPONENTS",
    "CoreResourceReport",
    "ResourceUsage",
    "estimate_core_resources",
    "estimate_mpu",
    "mpu_dsp_count",
    "FloorplanResult",
    "SLRAssignment",
    "plan_floorplan",
    "FPGAPowerModel",
]
