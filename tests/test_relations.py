"""Equivalent inputs, equal files: relations under which the dB map CSVs do not change a byte.

Each case writes, through ``db_to_csv`` at the map's own peak, the
single-antenna map and the four polarimetric channels of a design, then
of an equivalent input, and compares the files:

- swapping the pair, (x, y) -> (y, x), keeps the single-antenna, VV and
  HH files and swaps VH with HV (C_yx[k] = C_xy[-k]);
- flipping the schedule, p -> -p, negates z = p w: it keeps the
  single-antenna and VH files and swaps VV with HH;
- scaling the weights by -1, j or -j keeps every file: those factors
  only swap and negate real and imaginary parts, so every magnitude is
  exact.

For a complementary pair the VV and HH dB files are the same bytes
(C_x + C_y vanishes off the zero lag, and C_x - C_y at it), so "keeps"
and "swaps" agree for them; the bundled pair's VH and HV files are the
same bytes too, so the pair with y reversed is also tested.  A general
phase such as e^{0.3j} rounds differently, and the cells near the float
floor move, so it has no exact relation here.
"""
import hashlib

import pytest

from compwave import GolayPair, discrete_ambiguity, evaluation_grid, null_space_design, polarimetric_ambiguities


@pytest.fixture(scope="module")
def design_16_01():
    """16-pulse design resilient over [0, 1], M = 15."""
    return null_space_design(16, (0.0, 1.0))


@pytest.fixture(params=["design_02", "design_0pi", "design_16_01"])
def design(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(params=["bundled", "y reversed"])
def pair(request, pair64):
    """The bundled pair, whose |C_xy| is even in the lag, and (x, y reversed), a complementary pair whose is not."""
    return pair64 if request.param == "bundled" else GolayPair(pair64.x, pair64.y[::-1])


def db_files(pair, p, w, angles, path) -> dict:
    """sha256 of each dB CSV: the single-antenna map's, then each polarimetric channel's."""
    maps = {"single": discrete_ambiguity(pair, p, w, angles), **polarimetric_ambiguities(pair, p, w, angles).channels}
    digests = {}
    for name, amap in maps.items():
        amap.db_to_csv(path)
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def relation_files(pair, design, tmp_path, /, **change) -> tuple:
    """(the dB files of ``pair`` and the design, those with ``pair``, ``p`` or ``w`` replaced by ``change``)."""
    angles = evaluation_grid(*design.grid.interval, 2001)
    args = {"pair": pair, "p": design.p, "w": design.w}
    return tuple(db_files(**inputs, angles=angles, path=tmp_path / "db.csv") for inputs in (args, {**args, **change}))


def test_swapping_the_pair_swaps_the_cross_channels(pair, design, tmp_path):
    base, swapped = relation_files(pair, design, tmp_path, pair=(pair.y, pair.x))
    assert swapped == {**base, "vh": base["hv"], "hv": base["vh"]}


def test_flipping_the_schedule_swaps_the_co_polar_channels(pair, design, tmp_path):
    base, flipped = relation_files(pair, design, tmp_path, p=-design.p)
    assert flipped == {**base, "vv": base["hh"], "hh": base["vv"]}


@pytest.mark.parametrize("factor", [-1, 1j, -1j])
def test_weights_scaled_by_a_quarter_turn_keep_every_file(pair, design, tmp_path, factor):
    base, scaled = relation_files(pair, design, tmp_path, w=factor * design.w)
    assert scaled == base


def test_the_reversed_pair_tells_the_cross_channels_apart(pair64, tmp_path, design_02):
    # otherwise the swap of VH with HV could not be seen: the bundled pair's two cross files are the same bytes
    files = {name: relation_files(pair, design_02, tmp_path)[0]
             for name, pair in (("bundled", pair64), ("reversed", GolayPair(pair64.x, pair64.y[::-1])))}
    assert files["bundled"]["vh"] == files["bundled"]["hv"] and files["reversed"]["vh"] != files["reversed"]["hv"]
