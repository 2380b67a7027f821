"""Detect, diagnose, and repair divergent interpretations of a process
narrative.

The pipeline parses executable process models, simulates them over a shared
case population, quantifies cross-model disagreement as normalized outcome
entropy, pins the disagreement on specific gateways via model-based
diagnosis, maps those gateways back to narrative segments, and splices in
provider-supplied disambiguated wording.
"""

__version__ = "0.1.0"
