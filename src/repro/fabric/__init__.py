"""Sharded multi-switch fabric: RSS steering + transactional control.

The fabric is the repo's horizontal-scale layer: N complete cognitive
switches (each its own runtime, flow cache, energy ledger and
telemetry domain) behind a symmetric Toeplitz RSS front end, with a
two-phase controller that reprograms all shards atomically and a
multiprocessing execution mode that runs shards in separate processes
over shared-memory columns.  See DESIGN.md §14.
"""

from repro.fabric.controller import FabricController
from repro.fabric.fabric import SwitchFabric
from repro.fabric.rss import SYMMETRIC_RSS_KEY, ToeplitzRSS
from repro.fabric.scenario import build_fabric, fabric_scenario_factory
from repro.fabric.shards import FABRIC_OPS, VERDICTS, InProcessShard
from repro.fabric.workers import ShardWorkerError, WorkerShard

__all__ = [
    "FABRIC_OPS",
    "FabricController",
    "InProcessShard",
    "SYMMETRIC_RSS_KEY",
    "ShardWorkerError",
    "SwitchFabric",
    "ToeplitzRSS",
    "VERDICTS",
    "WorkerShard",
    "build_fabric",
    "fabric_scenario_factory",
]
