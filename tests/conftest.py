"""One Hypothesis profile for the whole suite: draws are derived from each
test's name rather than from a random seed, so two runs draw the same
examples and a failure found once is found again.  Each test keeps its own
max_examples and deadline."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
