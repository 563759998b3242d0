import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sraar import (
    EvalReport,
    MotionTrajectory,
    export_pgm,
    load_array,
    load_trajectory,
    save_array,
    save_trajectory,
    shepp_logan,
)
from sraar.fileio import (
    MAGIC,
    TRAJECTORY_HEADER,
    format_report,
    load_trace_csv,
    save_trace_csv,
)
from sraar.solvers import SolverTrace
from conftest import random_complex


class TestRawArrays:
    def test_complex_header_layout(self, tmp_path, rng):
        path = tmp_path / "a.srr"
        save_array(path, random_complex(rng, (3, 5)))
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        code, rows, cols = struct.unpack("<BII", blob[4:13])
        assert (code, rows, cols) == (1, 3, 5)
        assert len(blob) == 13 + 3 * 5 * 8

    def test_real_header_layout(self, tmp_path):
        path = tmp_path / "a.srr"
        save_array(path, np.arange(6.0).reshape(2, 3))
        blob = path.read_bytes()
        code, rows, cols = struct.unpack("<BII", blob[4:13])
        assert (code, rows, cols) == (0, 2, 3)
        assert len(blob) == 13 + 2 * 3 * 4

    def test_save_load_save_is_byte_stable(self, tmp_path, rng):
        first = tmp_path / "a.srr"
        second = tmp_path / "b.srr"
        save_array(first, random_complex(rng, (8, 8)))
        save_array(second, load_array(first))
        assert first.read_bytes() == second.read_bytes()

    def test_phantom_round_trip_precision(self, tmp_path):
        img = shepp_logan(64)
        path = tmp_path / "p.srr"
        save_array(path, img)
        back = load_array(path)
        assert back.dtype == np.complex128
        assert np.abs(back - img).max() <= 1e-7  # 32-bit storage

    def test_real_round_trip_dtype(self, tmp_path):
        path = tmp_path / "r.srr"
        save_array(path, np.eye(4))
        back = load_array(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, np.eye(4))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.srr"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError):
            load_array(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "t.srr"
        save_array(path, random_complex(rng, (4, 4)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError):
            load_array(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "u.srr"
        path.write_bytes(MAGIC + struct.pack("<BII", 7, 1, 1) + bytes(8))
        with pytest.raises(ValueError):
            load_array(path)

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_array(tmp_path / "x.srr", np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        arr = np.ones((4, 4), dtype=np.complex128)
        arr[1, 2] = bad
        save_array(tmp_path / "n.srr", arr)
        with pytest.raises(ValueError, match="non-finite"):
            load_array(tmp_path / "n.srr")

    @pytest.mark.parametrize("n", [256, 512])
    def test_complex_load_copies_payload_once(self, tmp_path, rng, n):
        # the file's bytes (half an n x n complex128 array) plus the
        # complex128 result peak at 1.5 arrays; slicing the header off the
        # bytes copies the payload once more and peaks at 2.0
        path = tmp_path / "k.srr"
        save_array(path, random_complex(rng, (n, n)))
        tracemalloc.start()
        try:
            load_array(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * n * n * 16

    @pytest.mark.parametrize("big", [1e39, complex(1.0, -1e39)])
    def test_single_precision_overflow_rejected(self, tmp_path, big):
        arr = np.ones((4, 4), dtype=type(big))
        arr[2, 1] = big
        with pytest.raises(ValueError, match="single-precision range"):
            save_array(tmp_path / "big.srr", arr)
        assert not (tmp_path / "big.srr").exists()


single_precision_arrays = st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(
    lambda shape: st.one_of(
        arrays(np.float32, shape, elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
        arrays(np.complex64, shape,
               elements=st.complex_numbers(width=64, allow_nan=False, allow_infinity=False)),
    )
)


@settings(max_examples=200, deadline=None)
@given(stored=single_precision_arrays)
def test_raw_array_round_trip_is_exact(tmp_path_factory, stored):
    """Any finite single-precision-representable array, square or not, real
    or complex, reads back exactly in double precision."""
    arr = stored.astype(np.complex128 if np.iscomplexobj(stored) else np.float64)
    path = tmp_path_factory.mktemp("srr") / "a.srr"
    save_array(path, arr)
    back = load_array(path)
    assert back.dtype == arr.dtype
    assert np.array_equal(back, arr)


@settings(max_examples=200, deadline=None)
@given(shifts=arrays(np.float64, st.tuples(st.integers(1, 64), st.just(2)),
                     elements=st.floats(-100.0, 100.0)))
def test_trajectory_round_trip_within_format_precision(tmp_path_factory, shifts):
    """The format writes nine decimals: half a unit in the last one, plus the
    rounding of the decimal back to double precision."""
    path = tmp_path_factory.mktemp("traj") / "t.txt"
    save_trajectory(path, MotionTrajectory(shifts))
    back = load_trajectory(path).shifts
    assert back.shape == shifts.shape
    assert np.all(np.abs(back - shifts) <= 5e-10 + np.spacing(np.abs(shifts)))


class TestTrajectoryFiles:
    def test_round_trip(self, tmp_path, rng):
        traj = MotionTrajectory(rng.uniform(-5, 5, (16, 2)))
        path = tmp_path / "t.txt"
        save_trajectory(path, traj)
        back = load_trajectory(path)
        assert np.abs(back.shifts - traj.shifts).max() <= 1e-9

    def test_file_shape(self, tmp_path):
        path = tmp_path / "t.txt"
        save_trajectory(path, MotionTrajectory(np.array([[1.5, -2.25]])))
        lines = path.read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert lines[1] == "0 1.500000000 -2.250000000"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 1.0 2.0\n")
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_non_contiguous_indices(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(f"{TRAJECTORY_HEADER}\n0 1.0 2.0\n2 1.0 2.0\n")
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(f"{TRAJECTORY_HEADER}\n0 1.0\n")
        with pytest.raises(ValueError):
            load_trajectory(path)
        path.write_text(f"{TRAJECTORY_HEADER}\n0 1.0 apple\n")
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_empty_trajectory(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(f"{TRAJECTORY_HEADER}\n")
        with pytest.raises(ValueError):
            load_trajectory(path)


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        trace = SolverTrace()
        trace.append(1.2345678901234567, 100.5, 0.01)
        trace.append(0.5, 99.0, 0.02)
        path = tmp_path / "trace.csv"
        save_trace_csv(path, trace)
        cols = load_trace_csv(path)
        assert np.array_equal(cols["iter"], [1, 2])
        assert np.array_equal(cols["misfit"], trace.misfit)  # repr round-trips float64
        assert np.array_equal(cols["l1"], trace.l1)
        assert np.array_equal(cols["seconds"], trace.seconds)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ValueError):
            load_trace_csv(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iter,misfit,l1,seconds\n1,2,3\n")
        with pytest.raises(ValueError):
            load_trace_csv(path)


class TestPgmExport:
    @staticmethod
    def parse(path):
        blob = path.read_bytes()
        magic, dims, maxval, rest = blob.split(b"\n", 3)
        width, height = map(int, dims.split())
        assert magic == b"P5" and maxval == b"65535"
        return np.frombuffer(rest, dtype=">u2").reshape(height, width)

    def test_two_level_image_hits_extremes(self, tmp_path):
        path = tmp_path / "img.pgm"
        export_pgm(path, np.array([[0.0, 2.0], [2.0, 0.0]]))
        levels = self.parse(path)
        assert np.array_equal(levels, [[0, 65535], [65535, 0]])

    def test_linear_scaling(self, tmp_path):
        path = tmp_path / "img.pgm"
        export_pgm(path, np.array([[0.0, 1.0, 2.0, 3.0]]))
        levels = self.parse(path)
        assert np.array_equal(levels, [[0, 21845, 43690, 65535]])

    def test_complex_input_uses_modulus(self, tmp_path):
        path = tmp_path / "img.pgm"
        export_pgm(path, np.array([[0.0 + 0j, 3.0 + 4.0j]]))
        assert np.array_equal(self.parse(path), [[0, 65535]])

    def test_constant_image_all_zero(self, tmp_path):
        path = tmp_path / "img.pgm"
        export_pgm(path, np.full((3, 3), 7.0))
        assert np.array_equal(self.parse(path), np.zeros((3, 3)))

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))


class TestReports:
    def test_format_plain(self):
        report = EvalReport(rmse_rel=0.0123456789, psnr_db=float("inf"),
                            l1_gt=100.0, l1_recon=98.5, iterations=40)
        text = format_report(report)
        lines = text.splitlines()
        assert "rmse_rel=0.0123456789" in lines
        assert "psnr_db=inf" in lines
        assert "iterations=40" in lines
        assert text.endswith("\n")
