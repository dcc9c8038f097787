"""pinchsim: pinching-antenna system simulation and placement optimization.

Pinching antennas are radiation points created by pressing small dielectric
particles onto a dielectric waveguide; their positions along the guide are
reconfigurable, which lets a system move its antennas next to the users it
serves. This package synthesizes the resulting complex channels from
geometry, optimizes antenna positions jointly with digital beamforming, and
evaluates TDMA/NOMA access schemes on top.
"""

from ._version import __version__
from .access import NomaCluster, TdmaSchedule, noma_rates, tdma_rates
from .beamforming import (
    Beamformer,
    RankDeficiencyError,
    RateReport,
    conventional_bound,
    evaluate_rates,
    mrc_beamformer,
    zf_beamformer,
)
from .channel import (
    ChannelMatrix,
    build_channel,
    free_space_gain,
    guide_distances,
    guided_wavelength,
    link_gains,
    link_power,
    los_probability,
)
from .placement import (
    PlacementSolution,
    align_multi_on_guide,
    noma_gain_reorder,
    optimize_multi_waveguide_sweep,
    place_single_for_group,
    place_single_for_user,
)
from .scenario import (
    SPEED_OF_LIGHT_M_S,
    CarrierSpec,
    LoSModelConfig,
    PinchingLayout,
    Scenario,
    UserSet,
    Violation,
    WaveguideSpec,
    validate_scenario,
)

__all__ = [
    "__version__",
    "SPEED_OF_LIGHT_M_S",
    "CarrierSpec",
    "WaveguideSpec",
    "UserSet",
    "LoSModelConfig",
    "Scenario",
    "PinchingLayout",
    "Violation",
    "validate_scenario",
    "guided_wavelength",
    "los_probability",
    "free_space_gain",
    "guide_distances",
    "link_gains",
    "link_power",
    "ChannelMatrix",
    "build_channel",
    "Beamformer",
    "RateReport",
    "RankDeficiencyError",
    "mrc_beamformer",
    "zf_beamformer",
    "evaluate_rates",
    "conventional_bound",
    "PlacementSolution",
    "place_single_for_user",
    "place_single_for_group",
    "align_multi_on_guide",
    "optimize_multi_waveguide_sweep",
    "TdmaSchedule",
    "NomaCluster",
    "tdma_rates",
    "noma_rates",
    "noma_gain_reorder",
]
