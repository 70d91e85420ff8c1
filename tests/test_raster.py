import numpy as np
import pytest

from safeland.raster import depth_to_pgm, gray_to_pgm, labels_to_pgm, write_pgm


def read_pgm(path) -> np.ndarray:
    """An independent P5 reader: the round trip checks the writer."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError("not a binary PGM file")
    # header: magic, width, height, maxval, then raster
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    width, height, maxval = (int(f) for f in fields)
    dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
    raster = np.frombuffer(data, dtype=dtype, offset=pos, count=width * height)
    return raster.reshape(height, width).astype(np.uint16 if maxval >= 256 else np.uint8)


def test_eight_bit_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(20, 30)).astype(np.uint8)
    path = tmp_path / "a.pgm"
    write_pgm(path, img, 255)
    assert np.array_equal(read_pgm(path), img)


def test_sixteen_bit_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 65536, size=(12, 9)).astype(np.uint16)
    path = tmp_path / "b.pgm"
    write_pgm(path, img, 65535)
    assert np.array_equal(read_pgm(path), img)


def test_depth_export_uses_millimeters_and_zero_for_invalid(tmp_path):
    depth = np.array([[1.2345, 2.0], [0.5, 9.9]])
    valid = np.array([[True, False], [True, True]])
    path = tmp_path / "depth.pgm"
    depth_to_pgm(path, depth, valid)
    out = read_pgm(path)
    assert out[0, 0] == 1234 or out[0, 0] == 1235   # rounded millimeters
    assert out[0, 1] == 0                           # invalid marker
    assert out[1, 0] == 500


def test_gray_export_clips_unit_range(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 1.7]])
    path = tmp_path / "g.pgm"
    gray_to_pgm(path, img)
    out = read_pgm(path)
    assert out[0, 0] == 0 and out[1, 0] == 255 and out[1, 1] == 255
    assert out[0, 1] in (127, 128)


def test_label_export_keeps_background_black(tmp_path):
    labels = np.array([[0, 1], [2, 0]])
    path = tmp_path / "l.pgm"
    labels_to_pgm(path, labels)
    out = read_pgm(path)
    assert out[0, 0] == 0 and out[1, 1] == 0
    assert out[0, 1] != 0 and out[1, 0] != 0
    labels_to_pgm(path, np.zeros((2, 3), dtype=np.int32))   # no region at all
    out = read_pgm(path)
    assert out.shape == (2, 3) and not out.any()


def test_rejects_non_2d_and_bad_maxval(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)), 255)
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), 1000)
