"""Probabilistic landing-site selection with visual-servo execution, in simulation.

Pipeline: a synthetic noisy depth camera observes a procedural world;
geometric cues per candidate region feed a two-hypothesis belief
recursion; a hard inscribed-radius constraint plus a belief threshold
commit a site; salient-point tracking and an interaction-matrix servo
law fly the vehicle to touchdown.
"""

__version__ = "0.1.0"
