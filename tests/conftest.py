"""Shared pytest set-up: a fixed hypothesis profile, so the property
tests draw the same examples on every run and never fail on timing."""
from hypothesis import settings

settings.register_profile("opdual", derandomize=True, deadline=None)
settings.load_profile("opdual")
