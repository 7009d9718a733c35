import struct

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import mutated_bytes
from tensplit.core import DenseTensor
from tensplit.dtf import DtfFormatError, read_tensor, write_tensor


def pack_reference(shape, values):
    """Build the binary layout by hand: magic, order, extents, payload."""
    blob = b"DTF1"
    blob += struct.pack("<I", len(shape))
    blob += struct.pack(f"<{len(shape)}Q", *shape)
    blob += struct.pack(f"<{len(values)}d", *values)
    return blob


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(4,), (3, 5), (2, 3, 4), (2, 2, 2, 2, 2)]:
        t = DenseTensor(rng.standard_normal(shape))
        path = tmp_path / "t.dtf1"
        write_tensor(t, path)
        assert read_tensor(path) == t


def test_file_layout_matches_reference(tmp_path):
    arr = np.array([[1.5, -2.0], [0.25, 8.0]])
    t = DenseTensor(arr)
    path = tmp_path / "t.dtf1"
    write_tensor(t, path)
    # payload in first-index-fastest order
    expected = pack_reference((2, 2), [1.5, 0.25, -2.0, 8.0])
    assert path.read_bytes() == expected


def test_reads_reference_bytes(tmp_path):
    blob = pack_reference((2, 3), [float(v) for v in range(6)])
    path = tmp_path / "ref.dtf1"
    path.write_bytes(blob)
    t = read_tensor(path)
    assert t.shape == (2, 3)
    np.testing.assert_array_equal(
        t.to_array(), np.array([[0.0, 2.0, 4.0], [1.0, 3.0, 5.0]])
    )


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.dtf1"
    path.write_bytes(b"XXXX" + pack_reference((2,), [1.0, 2.0])[4:])
    with pytest.raises(DtfFormatError):
        read_tensor(path)


def test_rejects_truncated_payload(tmp_path):
    blob = pack_reference((2, 2), [1.0, 2.0, 3.0, 4.0])
    path = tmp_path / "short.dtf1"
    path.write_bytes(blob[:-8])
    with pytest.raises(DtfFormatError):
        read_tensor(path)


def test_rejects_truncated_header(tmp_path):
    blob = pack_reference((2, 2), [1.0, 2.0, 3.0, 4.0])
    path = tmp_path / "short.dtf1"
    path.write_bytes(blob[:10])
    with pytest.raises(DtfFormatError):
        read_tensor(path)


def test_rejects_trailing_bytes(tmp_path):
    blob = pack_reference((2,), [1.0, 2.0]) + b"\x00"
    path = tmp_path / "long.dtf1"
    path.write_bytes(blob)
    with pytest.raises(DtfFormatError):
        read_tensor(path)


def test_rejects_zero_extent(tmp_path):
    blob = b"DTF1" + struct.pack("<I", 2) + struct.pack("<2Q", 2, 0)
    path = tmp_path / "zero.dtf1"
    path.write_bytes(blob)
    with pytest.raises(DtfFormatError):
        read_tensor(path)


def test_rejects_order_out_of_range(tmp_path):
    blob = b"DTF1" + struct.pack("<I", 9) + struct.pack("<9Q", *([1] * 9))
    path = tmp_path / "deep.dtf1"
    path.write_bytes(blob)
    with pytest.raises(DtfFormatError):
        read_tensor(path)

    blob = b"DTF1" + struct.pack("<I", 0)
    path.write_bytes(blob)
    with pytest.raises(DtfFormatError):
        read_tensor(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_rejects_non_finite_payload(tmp_path, bad):
    path = tmp_path / "nonfinite.dtf1"
    path.write_bytes(pack_reference((2, 2), [1.0, 2.0, bad, 4.0]))
    with pytest.raises(DtfFormatError, match="nonfinite.dtf1.*non-finite"):
        read_tensor(path)


_DTF_SEEDS = [pack_reference((3,), [1.0, -2.5, 0.0]),
              pack_reference((2, 3), [float(v) for v in range(6)]),
              pack_reference((1, 2, 2), [0.5, 1e300, -1e-300, 7.0])]
# extents and payload words that stress the header checks
_DTF_TOKENS = [struct.pack("<Q", 2**64 - 1), struct.pack("<Q", 2**61), struct.pack("<Q", 0),
               struct.pack("<I", 9), struct.pack("<I", 0), struct.pack("<d", float("nan")),
               struct.pack("<d", float("inf")), b"DTF1"]


@settings(max_examples=400)
@given(data=mutated_bytes(_DTF_SEEDS, _DTF_TOKENS))
def test_mutated_files_read_or_raise_format_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.dtf1"
    path.write_bytes(data)
    try:
        t = read_tensor(path)
    except DtfFormatError:
        return
    header = 8 + 8 * t.order
    assert len(data) == header + 8 * t.size
    assert np.isfinite(t.values).all()
    assert t.flat.tobytes() == data[header:]
