"""Suite-wide test configuration.

Property tests draw the same examples on every run: the default
hypothesis profile is derandomized, so a tier-1 result reproduces.
"""

from hypothesis import settings

settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")
