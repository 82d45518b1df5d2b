"""Labeled multi-camera surface capture pipeline.

Reconstructs uniquely labeled 3D corner trajectories of a deforming body from
per-camera 2D detections of a coded suit, refines an actor-specific linear
blend skinning model on the reconstructed trajectories, and fills unobserved
corners with a constrained spatio-temporal Laplacian solve. A synthetic
multi-camera simulator provides ground truth for every stage.
"""

__version__ = "0.1.0"

from .geometry import Camera, CameraRig
from .layout import SuitLayout

__all__ = ["Camera", "CameraRig", "SuitLayout", "__version__"]
