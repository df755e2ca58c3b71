"""Shared test settings.

Every property test runs under one hypothesis profile: examples come from a
fixed seed, no example database is read or written, and no example has a
deadline, so every run draws the same examples.  Each test sets its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("cheblink", derandomize=True, database=None, deadline=None)
settings.load_profile("cheblink")
