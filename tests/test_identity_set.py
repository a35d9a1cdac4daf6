"""The files of the byte-identity check set match the committed manifest.

See ``tests/identity_set.py``.  Bytes depend on NumPy, the BLAS build and
the CPU, so on a host whose provenance differs from the manifest's the test
skips and names the field; it never passes there.
"""

import json

import pytest

import identity_set


def test_command_files_match_the_committed_manifest(tmp_path):
    manifest = json.loads(identity_set.MANIFEST.read_text())
    reason = identity_set.mismatch(manifest["provenance"])
    if reason:
        pytest.skip(reason)
    for cpu_count in (1, 2):
        found = identity_set.build(tmp_path / f"cpus{cpu_count}", cpu_count)
        assert identity_set.differences(manifest["entries"], found) == []


@pytest.mark.parametrize("field", ["numpy", "openblas_config",
                                   "openblas_corename", "cpu_model"])
def test_a_host_of_other_provenance_is_named(field):
    recorded = dict(identity_set.provenance(), **{field: "elsewhere"})
    assert identity_set.mismatch(identity_set.provenance()) is None
    assert identity_set.mismatch(recorded).startswith(
        f"the manifest was built with {field} 'elsewhere', ")
