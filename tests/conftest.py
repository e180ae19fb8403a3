"""One hypothesis profile for the whole suite: examples are drawn from a
seed derived from each test's source (so every run draws the same ones),
with no deadline and no example database."""

from hypothesis import settings

settings.register_profile("cpdkit", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("cpdkit")
