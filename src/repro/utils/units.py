"""Unit constants used throughout the simulator.

The DFX paper mixes decimal units (memory bandwidth in GB/s, link speed in
Gb/s) and binary units (HBM/DDR capacity in GiB).  Keeping the constants in
one place avoids the classic 1000-vs-1024 mistakes when computing bandwidth
bound latencies.
"""

GIGA = 1_000_000_000
GIBI = 1024**3
