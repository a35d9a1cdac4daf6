"""The files of the byte-identity check set match the committed manifest.

See ``tests/identity_set.py``.  The set is built with the helper thread off
and on, and the two builds must agree on every host.  Bytes depend on NumPy,
its SIMD dispatch, the BLAS build and the CPU, so on a host whose provenance
differs from the manifest's the test then skips the comparison with the
manifest and names the field; it never passes there.
"""

import json

import pytest

import identity_set


def test_command_files_match_the_committed_manifest(tmp_path):
    alone = identity_set.build(tmp_path / "cpus1", 1)
    helped = identity_set.build(tmp_path / "cpus2", 2)
    assert identity_set.differences(alone, helped) == []
    manifest = json.loads(identity_set.MANIFEST.read_text())
    reason = identity_set.mismatch(manifest["provenance"])
    if reason:
        pytest.skip(reason)
    assert identity_set.differences(manifest["entries"], alone) == []


@pytest.mark.parametrize("field", ["numpy", "numpy_dispatch",
                                   "openblas_config", "openblas_corename",
                                   "cpu_model"])
def test_a_host_of_other_provenance_is_named(field):
    recorded = dict(identity_set.provenance(), **{field: "elsewhere"})
    assert identity_set.mismatch(identity_set.provenance()) is None
    assert identity_set.mismatch(recorded).startswith(
        f"the manifest was built with {field} 'elsewhere', ")
