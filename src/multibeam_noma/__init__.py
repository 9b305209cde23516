"""Beam splitting and multi-beam NOMA for hybrid mmWave arrays.

One RF chain's ULA is partitioned into contiguous subarrays, each steered
at a scheduled user's LOS departure angle, so a single chain serves a
whole NOMA group at once.  The package models the multipath channel,
builds the constant-modulus precoders, evaluates effective channels and
SIC rates, provides the large-array rate laws, and runs the seeded Monte
Carlo sweeps behind the bundled CLI.
"""

from .asymptotic import (
    AsymptoticScenario,
    SicConditionError,
    allocation_superiority,
    asymptotic_rates,
    asymptotic_sum_rate,
    min_antennas_for_superiority,
    noma_gain,
    sic_condition_asymptotic,
    strongest_user_rate_asymptotic,
    tdma_sum_rate_asymptotic,
)
from .beams import (
    AnalogPrecoder,
    GroupPlan,
    PlanError,
    beam_pattern,
    default_angle_grid,
    rf_chain_precoder,
    segment_layout,
    segment_precoder,
    user_combiner,
)
from .channel import (
    ScenarioConfig,
    UlaConfig,
    UserChannel,
    array_response,
    channel_matrix,
    dbm_to_watt,
    generate_user_channel,
    user_rng,
)
from .effective import (
    EffectiveChannelMatrix,
    dirichlet,
    effective_asymptotic,
    effective_channel_matrix,
    effective_closed_form,
    effective_direct,
    tdma_effective_gain,
)
from .experiments import (
    BeamPatternConfig,
    InfeasibleSpecError,
    MonteCarloResult,
    SweepSpec,
    SweepTable,
    drop_users,
    monte_carlo,
    run_antenna_sweep,
    run_beam_pattern,
    run_power_sweep,
    single_chain_plan,
)
from .rates import (
    RateReport,
    SicOrder,
    beamwidth_3db_deg,
    sic_feasible,
    single_beam_noma_baseline,
    system_sum_rate,
    tdma_rates,
)

__version__ = "0.1.0"
