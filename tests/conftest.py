from hypothesis import settings

# derandomized and deadline-free so that the property tests draw the same
# examples on every run and never fail on a slow machine
settings.register_profile("blockspin", derandomize=True, deadline=None, max_examples=12)
settings.load_profile("blockspin")
