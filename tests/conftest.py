"""Session set-up shared by every test module."""

import warnings

# When a @given test fails, hypothesis's report hook imports its patch writer,
# whose libcst import raises a DeprecationWarning (mypy_extensions.TypedDict).
# Under the suite's filterwarnings = error that warning aborts the session
# before the falsifying example is printed, so the writer is imported here
# once with that warning ignored for this import alone.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
