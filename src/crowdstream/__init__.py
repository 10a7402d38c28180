"""Cooperative multi-user adaptive-bitrate streaming toolkit.

Modules:
  model    domain types and welfare accounting
  traces   capacity/encounter traces, ingestion, synthetic generators
  offline  slotted bound solvers and the sandwich certificate
  online   real-time schedulers (drift-plus-penalty and baselines)
  sim      deterministic discrete-event simulator
  cli      experiment runner, reached with ``from crowdstream import cli``

The package imports every module but ``cli``: ``python -m crowdstream.cli``
would otherwise find it already in ``sys.modules`` and warn.
"""
from . import model, offline, online, sim, traces

__all__ = ["cli", "model", "offline", "online", "sim", "traces"]
__version__ = "0.1.0"
