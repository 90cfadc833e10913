"""Supertrace character forms, transgressions, and Thom classes on charts.

The package evaluates differential forms pointwise on coordinate charts:
values carry second-order jets where derivatives are needed, supertraces
of graded exponentials produce the character and transgression forms of a
superconnection with an odd morphism, and fiberwise Berezin integrals
produce Thom representatives of metric bundles. A small harness
(``chernforms verify``) reruns the numeric cross-checks. The layers are
imported from their modules (``chernforms.quillen``, ``chernforms.thom``, ...);
the package root exports only the harness entry points.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .scenarios import SCENARIO_NAMES, ScenarioConfig, run_scenario

__all__ = ["__version__", "SCENARIO_NAMES", "ScenarioConfig", "run_scenario"]
