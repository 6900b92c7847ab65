"""The package's public names: one list, built from the six modules' own."""
import compwave
from compwave import ambiguity, baselines, design, golay, polarimetric, snropt

MODULES = (golay, design, ambiguity, snropt, polarimetric, baselines)

PUBLIC = {
    "GolayPair", "as_biphase", "autocorrelation", "cross_correlation", "generate_golay_pair",
    "is_golay_pair", "length64_pair", "load_sequence", "reverse", "save_sequence",
    "DesignReport", "EmptyNullSpaceError", "ResilienceGrid", "WaveformDesign", "design_from_vector",
    "design_matrix", "extract_design", "null_space_basis", "null_space_design", "validate_design",
    "AmbiguityMap", "SidelobeMetrics", "closed_form_ambiguity", "delay_ambiguity", "discrete_ambiguity",
    "evaluation_grid", "sidelobe_metrics", "slow_time_response", "write_columns_csv", "write_two_column_csv",
    "OptimizerReport", "basis_selection", "coordinate_descent", "design_from_lambda", "snr_ratio",
    "snr_upper_bound",
    "PolarimetricAmbiguity", "ScatteringMatrix", "cross_channel_nulls", "output_matrix",
    "polarimetric_ambiguities",
    "binomial_design", "ptm_schedule",
    "__version__",
}


def test_no_duplicates():
    assert len(compwave.__all__) == len(set(compwave.__all__))


def test_union_of_the_module_lists():
    assert set(compwave.__all__) == {name for m in MODULES for name in m.__all__} | {"__version__"}


def test_each_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(compwave, name) is getattr(module, name), name


def test_public_names():
    assert set(compwave.__all__) == PUBLIC
