"""Ghost imaging with entanglement-swapped photon pairs.

Exact qudit state algebra, closed-form image and contrast predictions,
Poisson coincidence-counting simulation, and a small CLI (ghostctl) for
reproducible runs.
"""

from ghostswap.analytic import (
    ContrastValue,
    Image,
    add_images,
    analytic_contrast,
    analytic_image,
    conditional_density,
    contrast_of_image,
    projection_probability,
)
from ghostswap.coincidence import (
    MAX_EVENT_TOTAL,
    CampaignConfig,
    CampaignResult,
    HomScanResult,
    antisymmetric_weight,
    bootstrap_contrast_sigma,
    estimate_contrast,
    hom_scan,
    rate_budget,
    sample_campaign,
    subtract_accidentals,
)
from ghostswap.configfile import HomJob, ImageJob, load_hom_job, load_image_job
from ghostswap.errors import ConfigError, DegenerateMaskError, ImageConsistencyError
from ghostswap.hilbert import (
    MAX_EXACT_DIMENSION,
    BellProjector,
    DensityMatrix,
    FourPhotonState,
    ObjectMask,
    Projection,
    TwoPhotonState,
    apply_object_mask,
    build_initial_state,
    enumerate_projectors,
    joint_probability,
    project_bc,
    validate_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError",
    "DegenerateMaskError",
    "ImageConsistencyError",
    "MAX_EXACT_DIMENSION",
    "BellProjector",
    "DensityMatrix",
    "FourPhotonState",
    "ObjectMask",
    "Projection",
    "TwoPhotonState",
    "apply_object_mask",
    "build_initial_state",
    "enumerate_projectors",
    "joint_probability",
    "project_bc",
    "validate_dimension",
    "ContrastValue",
    "Image",
    "add_images",
    "analytic_contrast",
    "analytic_image",
    "conditional_density",
    "contrast_of_image",
    "projection_probability",
    "MAX_EVENT_TOTAL",
    "CampaignConfig",
    "CampaignResult",
    "HomScanResult",
    "antisymmetric_weight",
    "bootstrap_contrast_sigma",
    "estimate_contrast",
    "hom_scan",
    "rate_budget",
    "sample_campaign",
    "subtract_accidentals",
    "HomJob",
    "ImageJob",
    "load_hom_job",
    "load_image_job",
]
