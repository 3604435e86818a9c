import warnings

import pytest

from motionseg.synthetic import write_blob_dataset

# Hypothesis imports this module to report a falsifying example. Importing
# it here first keeps its mypy_extensions DeprecationWarning from turning
# that report into an INTERNALERROR under ``-W error``.
try:
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="mypy_extensions.TypedDict is deprecated",
            category=DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:  # libcst, which that module needs, is optional
    pass


@pytest.fixture(scope="session")
def blob_manifest_path(tmp_path_factory):
    """One synthetic two-category video dataset shared by the session."""
    root = tmp_path_factory.mktemp("blob_dataset")
    return write_blob_dataset(root, seed=0, with_scores=True)
