"""Cycle-level simulator of a core / blocking cache / pointer-chase
prefetcher / pipelined memory system with valid-ready channels."""

from .messages import (AddrGeometry, CACHE_GEOMETRY, LINE_BYTES,
                       PREFETCH_GEOMETRY, MemRequest, MemResponse, MsgKind,
                       join_address, line_base, split_address)
from .kernel import (Channel, CombinationalLoopError, Component,
                     ConfigurationError, System)
from .memory import PipelinedMemory, dump_image
from .cache import BlockingCache
from .prefetcher import PointerChasePrefetcher, DEMAND_OPAQUE, PREFETCH_OPAQUE
from .core import Compute, CoreModel, Read, ReadCP, Write
from .workloads import WORKLOADS, FlatMemory, Lcg, Workload, replay_program
from .harness import (ExperimentConfig, RunStats, build_system, make_config,
                      make_workload, report, run_experiment, sweep)
from .testbench import TestSink, TestSource, build_testbench

__all__ = [
    "AddrGeometry", "CACHE_GEOMETRY", "LINE_BYTES", "PREFETCH_GEOMETRY",
    "MemRequest", "MemResponse", "MsgKind", "join_address", "line_base",
    "split_address",
    "Channel", "CombinationalLoopError", "Component", "ConfigurationError",
    "System",
    "PipelinedMemory", "dump_image",
    "BlockingCache",
    "PointerChasePrefetcher", "DEMAND_OPAQUE", "PREFETCH_OPAQUE",
    "Compute", "CoreModel", "Read", "ReadCP", "Write",
    "WORKLOADS", "FlatMemory", "Lcg", "Workload", "replay_program",
    "ExperimentConfig", "RunStats", "build_system", "make_config",
    "make_workload", "report", "run_experiment", "sweep",
    "TestSink", "TestSource", "build_testbench",
]
__version__ = "0.1.0"
