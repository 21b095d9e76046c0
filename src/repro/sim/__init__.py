"""Discrete-event simulation kernel and statistics."""
from .engine import Component, Engine, SimulationError
from .stats import LatencySampler, StatsRegistry

__all__ = ["Component", "Engine", "SimulationError",
           "LatencySampler", "StatsRegistry"]
