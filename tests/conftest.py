"""Shared pytest configuration: a forgiving hypothesis profile.

The property tests wrap numerical pipelines whose first call may JIT-warm
numpy buffers; per-example deadlines would flag that as flakiness.  The
"blocktau-deep" profile (`--hypothesis-profile blocktau-deep`) runs 300
derandomized examples per property, for a longer look at selected tests.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "blocktau",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "blocktau-deep",
    deadline=None,
    max_examples=300,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("blocktau")
