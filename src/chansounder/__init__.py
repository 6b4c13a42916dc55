"""Hardware-free channel generation, emulation, and sounding toolchain."""

from .channel_model import (
    ChannelSnapshot,
    RadioParams,
    RayPath,
    link_path_loss_db,
    noise_floor_dbm,
    path_coefficient,
    prune_paths,
    snapshot_to_cir,
)
from .emulator import EmulatorConfig, IqStream, apply_channel, make_noise
from .harness import (
    PathLossHeatmap,
    ValidationReport,
    compare_to_ground_truth,
    pathloss_heatmap,
    run_scenario_pipeline,
)
from .mobility import (
    ChannelMatrix,
    NodeSpec,
    Scenario,
    Trajectory,
    assemble_channel_matrix,
    load_scenario,
    num_samples,
    sample_trajectory,
    synthesize_paths,
)
from .sequences import (
    CodeSequence,
    CorrelationProfile,
    bpsk_modulate,
    generate_glfsr,
    generate_gold,
    generate_golay_a,
    generate_ls,
    periodic_correlation,
)
from .sounder import (
    CirFrame,
    Detections,
    SoundingConfig,
    SoundingReport,
    compute_cir_frames,
    path_gains_db,
    sound_chunked,
)
from .tap_approx import TapFile, TapSet, approximate_taps, apply_offset

__version__ = "0.1.0"
