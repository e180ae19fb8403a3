"""The public surface: what ``cpdkit`` exports and which knobs the
mode-reduction pipeline takes.  Adding or removing either changes this
test on purpose."""

import dataclasses

import cpdkit
from cpdkit.mrcpd import MrcpdOptions


def test_every_exported_name_resolves():
    for name in cpdkit.__all__:
        assert hasattr(cpdkit, name), name


def test_mrcpd_options_fields():
    assert [f.name for f in dataclasses.fields(MrcpdOptions)] == [
        "split", "solver_opts", "krproj", "projection", "compression",
        "restarts"]
