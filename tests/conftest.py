from hypothesis import settings

# Property tests run in tier-1; a fixed example budget keeps the suite short
# and its run time steady.
settings.register_profile("tier1", max_examples=40, deadline=None)
settings.load_profile("tier1")
