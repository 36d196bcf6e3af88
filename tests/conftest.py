"""Shared test configuration.

Registers the ``ci`` hypothesis profile: tier-1 runs each property at
the budget its module sets, and ``--hypothesis-profile=ci`` widens the
properties that defer to the active profile (see
``tests/sim/test_park_model.py``).  Jobs that run only non-property
tests need not install hypothesis.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", max_examples=500, deadline=None)
