"""Suite-wide settings: a failing Hypothesis example prints the
``@reproduce_failure`` line that replays it."""

from hypothesis import settings

settings.register_profile("suite", print_blob=True)
settings.load_profile("suite")
