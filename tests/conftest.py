from hypothesis import settings

# Property tests run in tier-1; a fixed example budget keeps the suite short
# and its run time steady.  CI also runs the kernel and estimator properties
# under the deeper profile: pytest --hypothesis-profile=deep.
settings.register_profile("tier1", max_examples=40, deadline=None)
settings.register_profile("deep", max_examples=300, deadline=None)
settings.load_profile("tier1")
