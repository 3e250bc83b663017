"""Warm-start preparation for T5-style models in a new language.

Pipeline stages, each usable as a library or through the `warmstart` CLI:
translated-vocabulary embedding transplantation, corpus chunking into a
random-access sequence store, reproducible span-corruption masking, dynamic
padding batch assembly with gradient accumulation, the warmup/decay
learning-rate schedule, and a training-memory planner.
"""

__version__ = "0.2.0"

from .errors import WarmstartError

__all__ = ["WarmstartError", "__version__"]
