"""Doppler- and delay-resilient Golay complementary pulse train design.

Transmit the two sequences of a complementary pair across a train of N
pulses according to a +/-1 schedule p, weight the received pulses with
complex coefficients w, and the range sidelobes of the resulting
ambiguity map vanish wherever the slow-time response of z = p * w does.
Placing z in the null space of a small phase matrix makes that happen
across a whole interval of Doppler shifts (or delay mismatches), and the
leftover degrees of freedom can be spent on SNR.  This package builds
such designs, optimizes them, evaluates their ambiguity maps (including
the four-channel dual-polarization case), and ships baseline schemes for
comparison.
"""
from .golay import (
    CorrelationProfile,
    GolayPair,
    as_biphase,
    autocorrelation,
    cross_correlation,
    generate_golay_pair,
    is_golay_pair,
    length64_pair,
    load_sequence,
    reverse,
    save_sequence,
)
from .design import (
    DesignReport,
    EmptyNullSpaceError,
    ResilienceGrid,
    WaveformDesign,
    design_from_vector,
    design_matrix,
    extract_design,
    null_space_basis,
    null_space_design,
    validate_design,
)
from .ambiguity import (
    AmbiguityMap,
    SidelobeMetrics,
    closed_form_ambiguity,
    delay_ambiguity,
    discrete_ambiguity,
    evaluation_grid,
    sidelobe_metrics,
    slow_time_response,
    write_columns_csv,
    write_two_column_csv,
)
from .snropt import (
    OptimizerReport,
    basis_selection,
    coordinate_descent,
    design_from_lambda,
    hcd,
    snr_ratio,
    snr_upper_bound,
)
from .polarimetric import (
    PolarimetricAmbiguity,
    ScatteringMatrix,
    cross_channel_nulls,
    output_matrix,
    polarimetric_ambiguities,
)
from .baselines import binomial_design, ptm_schedule

__version__ = "0.1.0"

__all__ = [
    "CorrelationProfile",
    "GolayPair",
    "as_biphase",
    "autocorrelation",
    "cross_correlation",
    "generate_golay_pair",
    "is_golay_pair",
    "length64_pair",
    "load_sequence",
    "reverse",
    "save_sequence",
    "DesignReport",
    "EmptyNullSpaceError",
    "ResilienceGrid",
    "WaveformDesign",
    "design_from_vector",
    "design_matrix",
    "extract_design",
    "null_space_basis",
    "null_space_design",
    "validate_design",
    "AmbiguityMap",
    "SidelobeMetrics",
    "closed_form_ambiguity",
    "delay_ambiguity",
    "discrete_ambiguity",
    "evaluation_grid",
    "sidelobe_metrics",
    "slow_time_response",
    "write_columns_csv",
    "write_two_column_csv",
    "OptimizerReport",
    "basis_selection",
    "coordinate_descent",
    "design_from_lambda",
    "hcd",
    "snr_ratio",
    "snr_upper_bound",
    "PolarimetricAmbiguity",
    "ScatteringMatrix",
    "cross_channel_nulls",
    "output_matrix",
    "polarimetric_ambiguities",
    "binomial_design",
    "ptm_schedule",
    "__version__",
]
