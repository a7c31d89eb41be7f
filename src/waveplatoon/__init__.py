"""Wave-based analysis and wave-absorbing control of vehicle platoons."""

__version__ = "0.1.0"

from .lti import (  # noqa: F401
    FrequencyResponse,
    Polynomial,
    RationalTF,
    StateSpace,
    eval_at,
    freq_response,
    impulse_response,
    tf_add,
    tf_inv,
    to_state_space,
)
from .plant import build_platoon, chain_state_space  # noqa: F401
from .wave import (  # noqa: F401
    CouplingRatio,
    WaveApprox,
    WaveFIR,
    coupling_from_gains,
    wave_fir,
    wave_tf_approx,
    wave_tf_exact,
    wave_tf_pair,
)
from .boundary import (  # noqa: F401
    AbsorberState,
    ChainModel,
    ChainPrediction,
    absorber_front_step,
    absorber_rear_step,
    chain_tf_prediction,
    kappa_front,
    kappa_rear,
    make_front_absorber,
    make_rear_absorber,
    ramp_slopes,
    squared_fir,
)
from .sim import (  # noqa: F401
    Event,
    NoiseSpec,
    PlatoonConfig,
    ScenarioSpec,
    SimulationTrace,
    inject_noise,
    run_scenario,
    trace_to_csv,
)
from .metrics import (  # noqa: F401
    MetricsReport,
    maneuver_metrics,
    mse_velocity,
    noise_metrics,
    settling_time,
)
from .sweep import (  # noqa: F401
    SweepCell,
    SweepResult,
    acceleration_scenario,
    sweep,
)
from .verify import VerifyReport, verify  # noqa: F401
