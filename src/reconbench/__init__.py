"""Single-view 3D reconstruction benchmark at desk scale.

Two reconstruction strategies share one evaluation harness: a latent
SDF auto-decoder queried on a grid, and a mirrored-view depth
completion pipeline.  All numerics are plain numpy.
"""

from .bench import (
    METHODS,
    EvalRecord,
    Report,
    TimingResult,
    generate_dataset,
    report,
    run_evaluation,
    time_methods,
)
from .autodecoder import (
    AutoDecoderResult,
    DecoderParams,
    TrainConfig,
    decoder_forward,
    infer_latent,
    load_decoder,
    reconstruct,
    save_decoder,
    train_autodecoder,
    view_samples_for_inference,
)
from .config import BenchConfig, load_config
from .depth import DepthImage, back_project, render_depth, splat_cloud
from .errors import ConfigurationError, InvalidInputError, MissingArtifactError
from .fileio import load_obj, load_pfm, save_obj, save_pfm
from .geometry import (
    TAG_GENERATED,
    TAG_OBSERVED,
    CameraModel,
    PointCloud,
    RigidTransform,
    TriangleMesh,
    camera_looking_at,
    normalize_to_unit_sphere,
)
from .metrics import (
    KdTree,
    VoxelFilterConfig,
    chamfer_hausdorff,
    nearest_distances,
    voxel_downsample,
    voxel_filter,
)
from .mirror import (
    MirrorModelParams,
    MirrorTrainConfig,
    complete_view_learned,
    complete_view_oracle,
    learned_completion,
    load_mirror_model,
    mirror_pose,
    oracle_completion,
    reconstruct_view_dependent,
    save_mirror_model,
    train_mirror_model,
)
from .sdf import (
    SamplingConfig,
    SdfSamples,
    extract_surface_points,
    sample_training_set,
    signed_distances,
)
from .shapes import CATEGORIES, ShapeSpec, build_mesh, icosphere, sample_spec

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
