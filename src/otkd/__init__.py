"""Uncertainty-weighted optimal-transport distillation for keypoint-based
pose estimation, from the transport solver up to a desk-scale experiment."""

from .errors import (
    CenterOutsideMap,
    ConfigError,
    DegenerateConfiguration,
    DimensionMismatch,
    EmptyEnsemble,
    EmptyHead,
    EmptySet,
    NegativeWeight,
    NoContributors,
    NonpositiveScale,
    OtkdError,
    OutOfRange,
    PointBehindCamera,
    ShapeMismatch,
    TrainingDiverged,
    ZeroCount,
    ZeroGroundTruthTranslation,
)
from .geometry import (
    CameraIntrinsics,
    KeypointSet,
    Model3D,
    Pose,
    add_01d_hit,
    add_metric,
    add_s_metric,
    pose_errors,
    project,
    rotation_from_axis_angle,
)
from .sinkhorn import (
    SinkhornConfig,
    TransportPlan,
    cost_matrix,
    default_config,
    plan_residuals,
    sinkhorn_unbalanced,
    sinkhorn_unbalanced_batch,
)
from .uncertainty import (
    EnsemblePrediction,
    aggregate,
    blend_weights,
    ensemble_statistics,
    majority_vote_align,
    student_uniform_weights,
    teacher_confidence,
    variance_to_uncertainty,
)
from .uakd import PredictionLossResult, prediction_loss, transport_loss
from .pfkd import (
    ConvLayerSpec,
    FeatureMap,
    FeatureRegion,
    extract_region,
    extract_regions,
    init_projection,
    pfkd_loss,
    receptive_field_extent,
    region_center,
    region_loss,
    scatter_region_grads,
)
from .pnp import Correspondences, PnpResult, pnp_solve, reprojection_rms
from .regressor import RegressorSpec, ToyRegressor
from .harness import (
    CONDITIONS,
    DistillTargets,
    ExperimentReport,
    ReportRow,
    SyntheticScene,
    TrainingConfig,
    box_model,
    default_camera,
    evaluate_student,
    make_scene,
    make_scenes,
    make_teacher_ensemble,
    prepare_targets,
    run_all_conditions,
    run_experiment,
    summarize,
    total_loss,
    write_report_csv,
    write_report_json,
)

__version__ = "0.1.0"
