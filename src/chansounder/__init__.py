"""Hardware-free channel generation, emulation, and sounding toolchain."""

__version__ = "0.1.0"
