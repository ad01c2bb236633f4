from hypothesis import settings

# Derandomized and without a deadline, so a property test draws the same
# examples on every run and a slow machine cannot fail it on time alone.
settings.register_profile("lrc4", deadline=None, derandomize=True, max_examples=100, database=None)
settings.load_profile("lrc4")
