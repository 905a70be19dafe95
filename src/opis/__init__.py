"""Instance-balanced supervision for weakly supervised detection.

The package implements the full supervision pipeline around an instance
classifier refinement detector: cluster-center label assignment, progressive
IoU-binned negative sampling with positive neglect, exponential positive
reweighting with fine-tuning attenuation, the rescaled refinement losses, and
a deterministic synthetic world in which the whole thing trains end-to-end
and is scored with VOC-style mAP and CorLoc.
"""

from .geometry import BBox, ScoredBox, iou, nms, nms_indices, pairwise_iou
from .midn import (
    SCORE_EPS,
    ScoreSet,
    compose_instance_scores,
    image_scores,
    midn_loss,
    midn_loss_grad,
    softmax_over_classes,
    softmax_over_instances,
)
from .supervision import (
    ClusterAssignment,
    SupervisionTargets,
    assign_labels,
    select_cluster_centers,
)
from .sampling import (
    SamplerRng,
    ScheduleState,
    apply_selection_mask,
    iou_bin_edges,
    neglect_threshold,
    progressive_t,
    ratio_mu,
    reselect_positives,
    sample_negatives,
    sample_negatives_detail,
)
from .reweighting import reweight_attenuated, reweight_branch, reweight_normal
from .losses import refinement_loss, refinement_loss_grad, total_loss, zeta
from .harness import (
    METHODS,
    Scene,
    SceneConfig,
    ToyModel,
    TrainConfig,
    TrainLog,
    TrainingDivergence,
    build_branch_supervision,
    finite_diff_check,
    forward,
    generate_dataset,
    generate_scene,
    train,
)
from .evaluation import (
    MetricsReport,
    UndefinedAPError,
    corloc,
    detect,
    dump_detections,
    evaluate_scenes,
    voc_ap,
)

__version__ = "0.1.0"
