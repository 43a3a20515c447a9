import numpy as np
import pytest

from tuckersketch.fileio import (
    read_decomposition,
    read_tensor,
    write_decomposition,
    write_tensor,
)
from tuckersketch.tucker import TuckerDecomposition, reconstruct


def test_tensor_writer_rejects_complex_values(tmp_path):
    path = tmp_path / "z.tkr"
    with pytest.raises(ValueError, match="must be real"):
        write_tensor(path, np.ones((2, 3)) * (1 + 2j))
    assert not path.exists()


def test_tensor_writer_rejects_a_scalar(tmp_path):
    path = tmp_path / "s.tkr"
    with pytest.raises(ValueError, match="^unsupported tensor order 0$"):
        write_tensor(path, 3.0)
    assert not path.exists()


def test_tensor_round_trip(tmp_path):
    gen = np.random.default_rng(0)
    for shape in [(3,), (2, 5), (4, 3, 2), (2, 2, 2, 3)]:
        X = gen.standard_normal(shape)
        path = tmp_path / "t.tkr"
        write_tensor(path, X)
        Y = read_tensor(path)
        assert Y.shape == X.shape
        assert np.array_equal(Y, X)  # bitwise


def test_tensor_header_layout(tmp_path):
    X = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
    path = tmp_path / "t.tkr"
    write_tensor(path, X)
    raw = path.read_bytes()
    assert raw[:4] == b"TKR1"
    assert raw[4] == 3
    assert np.frombuffer(raw[5:29], dtype="<u8").tolist() == [2, 2, 2]
    # payload follows first-index-fastest: 1..8
    assert np.frombuffer(raw[29:], dtype="<f8").tolist() == list(range(1, 9))


def test_tensor_file_does_not_depend_on_the_memory_layout(tmp_path):
    X = np.random.default_rng(2).standard_normal((4, 3, 5))
    big = np.zeros((8, 3, 5))
    big[::2] = X
    layouts = [X, np.asfortranarray(X), big[::2], np.ascontiguousarray(X.transpose(2, 1, 0)).transpose(2, 1, 0)]
    blobs = set()
    for k, Y in enumerate(layouts):
        write_tensor(tmp_path / f"{k}.tkr", Y)
        blobs.add((tmp_path / f"{k}.tkr").read_bytes())
    assert len(blobs) == 1


def test_tensor_reader_rejects_malformed(tmp_path):
    X = np.ones((2, 3))
    path = tmp_path / "t.tkr"
    write_tensor(path, X)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.tkr"
    bad.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="magic"):
        read_tensor(bad)

    zero = bytearray(raw)
    zero[5:13] = np.array([0], dtype="<u8").tobytes()
    bad.write_bytes(bytes(zero))
    with pytest.raises(ValueError, match="zero dimension"):
        read_tensor(bad)

    bad.write_bytes(bytes(raw[:-8]))
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(bad)

    bad.write_bytes(bytes(raw) + b"\x00" * 4)
    with pytest.raises(ValueError, match="trailing"):
        read_tensor(bad)

    bad.write_bytes(b"TKR1" + bytes([0]) + bytes(raw[5:]))
    with pytest.raises(ValueError, match="^tensor order must be at least 1$"):
        read_tensor(bad)


def test_decomposition_round_trip(tmp_path):
    gen = np.random.default_rng(1)
    factors = [np.linalg.qr(gen.standard_normal((n, r)))[0] for n, r in [(5, 2), (4, 3), (3, 1)]]
    T = TuckerDecomposition(gen.standard_normal((2, 3, 1)), factors, orthogonal=True)
    path = tmp_path / "d.tkd"
    write_decomposition(path, T)
    S = read_decomposition(path)
    assert S.orthogonal  # re-detected from the factors
    assert np.array_equal(S.core, T.core)
    for a, b in zip(S.factors, T.factors):
        assert np.array_equal(a, b)
    assert np.array_equal(reconstruct(S), reconstruct(T))


def test_decomposition_header_layout(tmp_path):
    factors = [np.eye(3, 2), np.eye(4, 1)]
    T = TuckerDecomposition(np.array([[1.0], [2.0]]), factors, orthogonal=True)
    path = tmp_path / "d.tkd"
    write_decomposition(path, T)
    raw = path.read_bytes()
    assert raw[:5] == b"TKD1" + bytes([2])
    # mode sizes interleave with the ranks: n_1, R_1, n_2, R_2
    assert np.frombuffer(raw[5:37], dtype="<u8").tolist() == [3, 2, 4, 1]
    payload = np.frombuffer(raw[37:], dtype="<f8").tolist()
    assert payload == [1.0, 2.0] + np.eye(3, 2).ravel(order="F").tolist() + [1.0, 0.0, 0.0, 0.0]


def test_decomposition_orthogonal_flag_not_set_for_oblique(tmp_path):
    T = TuckerDecomposition(np.ones((2, 2)), [np.ones((3, 2)) + np.eye(3, 2), np.eye(2)])
    path = tmp_path / "d.tkd"
    write_decomposition(path, T)
    assert not read_decomposition(path).orthogonal


def test_decomposition_reader_rejects_malformed(tmp_path):
    T = TuckerDecomposition(np.ones((2, 2)), [np.eye(3, 2), np.eye(2)])
    path = tmp_path / "d.tkd"
    write_decomposition(path, T)
    raw = path.read_bytes()

    bad = tmp_path / "bad.tkd"
    bad.write_bytes(b"TKR1" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        read_decomposition(bad)

    bad.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_decomposition(bad)


def test_readers_reject_header_whose_size_overflows_u64(tmp_path):
    # 2^32 * 2^32 values wraps to 0 in 64-bit arithmetic; the payload is missing
    huge = [2**32, 2**32]
    path = tmp_path / "huge.tkr"
    path.write_bytes(b"TKR1" + bytes([2]) + np.asarray(huge, dtype="<u8").tobytes())
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(path)

    path = tmp_path / "huge.tkd"
    path.write_bytes(b"TKD1" + bytes([2]) + np.asarray(huge + huge, dtype="<u8").tobytes())
    with pytest.raises(ValueError, match="truncated"):
        read_decomposition(path)


@pytest.mark.parametrize(
    "write, value",
    [
        (write_tensor, np.zeros((0, 3))),
        (write_decomposition, TuckerDecomposition(np.zeros((0, 2)), [np.zeros((3, 0)), np.eye(2)])),
    ],
)
def test_writers_reject_a_zero_header_value_and_write_nothing(tmp_path, write, value):
    # both writes used to succeed, and the readers refused the files
    path = tmp_path / "zero.bin"
    with pytest.raises(ValueError, match="zero dimension in header"):
        write(path, value)
    assert not path.exists()
