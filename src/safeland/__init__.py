"""Probabilistic landing-site selection with visual-servo execution, in simulation.

Pipeline: a synthetic noisy depth camera observes a procedural world;
geometric cues per candidate region feed a two-hypothesis belief
recursion; a hard inscribed-radius constraint plus a belief threshold
commit a site; salient-point tracking and an interaction-matrix servo
law fly the vehicle to touchdown.
"""

from .belief import (RegionTrack, associate, likelihood_safe, likelihood_unsafe,
                     predict, step, update)
from .params import ConfigError, Params, apply_overrides, validate
from .perception import (CueVector, PlaneFit, RegionMask, compute_cues,
                         extract_regions, fit_plane, screen_frame)
from .scene import (Box, CameraModel, DepthFrame, FlatPatch, NoiseModel,
                    Scenario, World, build_world, corrupt, load_scenario,
                    render_true_depth, scenario_from_dict)
from .selector import (FeasibilityResult, distance_sq_to, inscribed_distance_sq,
                       inscribed_radius, select)
from .servo import (FeatureSet, VelocityCommand, control, detect_and_track,
                    detect_features, ibvs_velocity, interaction_matrix)
from .simloop import EpisodeResult, VehicleState, run_episode, step_vehicle_world

__version__ = "0.1.0"
