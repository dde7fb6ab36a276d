"""Benchmark-adjusted structural break detection for fund style analysis.

The library detects dates at which an equity fund's style-factor
exposures shifted relative to its benchmark, classifies each resulting
regime into a nine-cell size/value style box, grades every break's
intensity (Rotation, Drift, Strengthen, Weaken, Unchanged) and
attributes risk-adjusted performance to break-count groups. A
deterministic synthetic generator plants regimes with known ground
truth for end-to-end verification, and the ``fundshift`` CLI wraps the
whole pipeline.
"""

__version__ = "0.1.0"
