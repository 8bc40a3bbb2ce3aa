"""polarcube: spectro-polarimetric imaging toolbox.

Forward simulation of full-Stokes cameras (sequential hyperspectral and
single-shot mosaic), per-pixel least-squares Stokes reconstruction,
polarimetric feature extraction and dataset statistics, and two
compressive representations (patch-PCA and a coordinate network).
"""

from .analysis import (
    DensityGrid,
    Histogram,
    NormalSpreadReport,
    aolp_gradient,
    docp_distribution,
    feature_gradient_histograms,
    feature_plane,
    gradient_field,
    normal_spectral_stddev,
    poincare_density,
    pol_unpol_histograms,
    stokes_histograms,
    wrap_aolp_gradient,
)
from .camera import (
    CaptureConfig,
    MeasurementConfig,
    MosaicLayout,
    NoiseModel,
    RawCapture,
    SpectralResponse,
    add_noise,
    analyzer_row,
    default_qwp_angles,
    demosaic,
    demosaic_footprint,
    lctf_responses,
    measure_intensity,
    mosaic_merge,
    mosaic_split,
    simulate_hyperspectral,
    simulate_trichromatic,
    trichromatic_responses,
)
from .errors import (
    ConfigurationError,
    ContainerError,
    DecompositionError,
    DimensionError,
    EmptySelectionError,
    LabelSchemaError,
    PolarcubeError,
    SamplingGridError,
    TrainingDivergedError,
    UndefinedFeatureError,
)
from .image import NormalMapStack, ScalarCube, StokesImage
from .inr import (
    InrModel,
    TrainReport,
    inr_decode,
    inr_forward,
    inr_init,
    inr_loss_and_grads,
    inr_rate_curve,
    inr_train,
    parameter_count,
    positional_encode,
)
from .io import (
    Curve,
    export_csv,
    read_labels,
    read_spsi,
    write_labels,
    write_spsi,
)
from .labels import LabelFilter, LabelSet
from .pca import (
    PcaCodebook,
    PcaEncoding,
    bpp,
    extract_patches,
    pca_decode,
    pca_encode,
    pca_fit,
    pca_fit_image,
    pca_rate_curve,
    truncate_codebook,
    variance_spectrum,
)
from .reconstruct import (
    QualityReport,
    SystemMatrix,
    burst_average,
    median_filter,
    quality,
    reconstruct_image,
    solve_stokes,
    solve_stokes_per_pixel,
    system_matrix,
)
from .scenes import lctf_wavelengths, random_scene, smooth_scene, uniform_scene
from .stokes import (
    PolarimetricFeatures,
    apply,
    decompose,
    features,
    identity_mueller,
    is_valid,
    lp_mueller,
    normalize,
    retarder_mueller,
    rotate_mueller,
    rotation_mueller,
)

__version__ = "0.1.0"
