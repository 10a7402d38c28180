"""Cooperative multi-user adaptive-bitrate streaming toolkit.

Modules:
  model    domain types and welfare accounting
  traces   capacity/encounter traces, ingestion, synthetic generators
  offline  slotted bound solvers and the sandwich certificate
  online   real-time schedulers (drift-plus-penalty and baselines)
  sim      deterministic discrete-event simulator
  cli      experiment runner
"""
import importlib

from . import model, offline, online, sim, traces

__all__ = ["cli", "model", "offline", "online", "sim", "traces"]
__version__ = "0.1.0"


def __getattr__(name: str):
    # cli is imported on first use, not with the package: `python -m
    # crowdstream.cli` would otherwise find it already in sys.modules and warn.
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
