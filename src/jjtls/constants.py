"""Physical constants, CODATA 2018 values to 10 significant digits."""

HBAR = 1.054571817e-34         # J s
BOLTZMANN_K = 1.380649000e-23  # J / K

GHZ = 1e9  # Hz per GHz; frequencies are stored in GHz throughout
