"""Hypothesis profile of the suite: every failing property prints a ``@reproduce_failure`` line.

Hypothesis keeps the examples it finds in ``.hypothesis/``, which is not
tracked, so a failure seen in one checkout would not replay in another.
The printed line replays it anywhere.  The profile inherits everything else,
example counts and deadlines included, from the profile already loaded.
"""

from hypothesis import settings

settings.register_profile("replayable", settings.default, print_blob=True)
settings.load_profile("replayable")
