"""One Hypothesis profile for the whole suite: draws are derived from each
test's name rather than from a random seed, so two runs draw the same
examples and a failure found once is found again.  Each test keeps its own
max_examples and deadline.  alg_dir holds every corpus .alg file."""

import corpus
import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def alg_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("alg")
    corpus.write_files(workdir)
    return workdir
