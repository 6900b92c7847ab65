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
comparison.  The public names are those of the six modules' ``__all__``.
"""
from . import ambiguity, baselines, design, golay, polarimetric, snropt
from .golay import *
from .design import *
from .ambiguity import *
from .snropt import *
from .polarimetric import *
from .baselines import *

__version__ = "0.1.0"

__all__ = [name for module in (golay, design, ambiguity, snropt, polarimetric, baselines)
           for name in module.__all__] + ["__version__"]
