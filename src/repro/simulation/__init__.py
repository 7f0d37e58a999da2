"""Cycle-accurate flit-level NoC simulator (trace mode, BookSim-class)."""

from repro.simulation.batch import BatchSimulator
from repro.simulation.energy import sim_dynamic_energy_j
from repro.simulation.flit import Flit, Packet
from repro.simulation.simulator import (
    LOCAL_PORT,
    SimConfig,
    SimStats,
    Simulator,
    SlotLayout,
)
from repro.simulation.workload import (
    LoadPoint,
    latency_throughput_sweep,
    synthetic_trace,
)

__all__ = [
    "BatchSimulator",
    "sim_dynamic_energy_j",
    "Flit",
    "Packet",
    "LOCAL_PORT",
    "SimConfig",
    "SimStats",
    "Simulator",
    "SlotLayout",
    "LoadPoint",
    "latency_throughput_sweep",
    "synthetic_trace",
]
