"""FPGA hardware substrate: Alveo U280 spec, KV-cache capacity, the Aurora
channel model, resource estimation, and SLR floorplanning."""

from repro.fpga.u280 import DEFAULT_U280, ResourceBudget, U280Spec
from repro.fpga.memory import kv_cache_bytes
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

__all__ = [
    "DEFAULT_U280",
    "ResourceBudget",
    "U280Spec",
    "kv_cache_bytes",
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
]
