"""Malformed headers in the binary and image file formats."""
import pytest

from reconbench.errors import InvalidInputError
from reconbench.fileio import (
    DECODER_MAGIC,
    SAMPLES_MAGIC,
    load_pfm,
    load_samples,
    load_tensors,
)

_PFM_BODY = bytes(16)


@pytest.mark.parametrize(
    "load, blob",
    [
        (load_pfm, b"Pf\nabc 4\n-1.0\n" + _PFM_BODY),
        (load_pfm, b"Pf\n2 2\nxyz\n" + _PFM_BODY),
        (lambda p: load_tensors(p, DECODER_MAGIC), DECODER_MAGIC + b"\nnotanint\nEND\n"),
        (lambda p: load_tensors(p, DECODER_MAGIC), DECODER_MAGIC + b"\n1\nw a\nEND\n"),
        (load_samples, SAMPLES_MAGIC.encode() + b"\ncount x\nEND\n"),
    ],
    ids=["pfm-dims", "pfm-scale", "tensor-count", "tensor-dim", "sample-count"],
)
def test_malformed_header_names_the_file(tmp_path, load, blob):
    path = tmp_path / "corrupt.bin"
    path.write_bytes(blob)
    with pytest.raises(InvalidInputError, match="corrupt.bin"):
        load(path)
