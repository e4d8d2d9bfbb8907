"""Columnar and array file round-trips and manifest checksumming."""

import io
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from robustcontract import export

from helpers import oracle_write_table


class TestRendering:
    def test_seventeen_digits_round_trip_doubles(self):
        rng = np.random.default_rng(7)
        values = np.concatenate([
            rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50),
            [0.0, -0.0, 1.0, 0.1, 2.0 / 3.0, np.pi],
        ])
        for v in values:
            assert float(export.render_float(v)) == float(v)

    def test_rendering_is_plain_decimal(self):
        assert export.render_float(0.5) == "0.5"
        assert export.render_float(-3.0) == "-3"


class TestTables:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "t.txt")
        t = np.linspace(0.0, 1.0, 7)
        v = np.sin(t) * 1e-8
        export.write_table(path, ("t", "value"), (t, v))
        back = export.read_table(path)
        assert list(back) == ["t", "value"]
        np.testing.assert_array_equal(back["t"], t)
        np.testing.assert_array_equal(back["value"], v)

    def test_header_only_table(self, tmp_path):
        path = str(tmp_path / "empty.txt")
        export.write_table(path, ("a", "b"), ((), ()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = export.read_table(path)
        assert back["a"].shape == (0,) and back["b"].shape == (0,)

    @pytest.mark.parametrize("body", ["\n", "  \n\n"])
    def test_blank_body_reads_as_empty(self, tmp_path, body):
        path = tmp_path / "blank.txt"
        path.write_text("a b\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = export.read_table(str(path))
        assert back["a"].shape == (0,) and back["b"].shape == (0,)

    def test_missing_header_detected(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("\n1 2\n")
        with pytest.raises(ValueError, match="missing header"):
            export.read_table(str(path))

    def test_bad_inputs_rejected(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with pytest.raises(ValueError, match="token"):
            export.write_table(path, ("a b",), ([1.0],))
        with pytest.raises(ValueError, match="column"):
            export.write_table(path, ("a", "b"), ([1.0],))
        with pytest.raises(ValueError, match="equally long"):
            export.write_table(path, ("a", "b"), ([1.0], [1.0, 2.0]))

    def test_width_mismatch_detected(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("a b\n1 2 3\n")
        with pytest.raises(ValueError, match="columns"):
            export.read_table(str(path))


def _column_sets():
    """Named column sets for the writer, each as a tuple of columns."""
    t, x, y = np.meshgrid(np.linspace(0.0, 1.0, 33), np.linspace(-8.0, 8.0, 23),
                          np.linspace(-8.0, 8.0, 23), indexing="ij")
    grid = (t.ravel(), x.ravel(), y.ravel(), (x - y + 0.5 * t).ravel())
    rng = np.random.default_rng(15)
    wide = rng.standard_normal((3000, 4)) * 10.0 ** rng.integers(-300, 300, (3000, 4))
    nan_a = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(float)[0]
    nan_b = np.array([0xFFF8_0000_0000_0002], dtype=np.uint64).view(float)[0]
    special = np.array([0.0, -0.0, nan_a, nan_b, np.inf, -np.inf, 5e-324,
                        -5e-324, -0.0, nan_b, 0.0, nan_a, 1.0])
    return {
        # more rows than one written block, a few dozen values per column
        "grid_repetitive": grid,
        "all_distinct": tuple(wide.T),
        "signed_zeros": (np.array([0.0, -0.0, 0.0, -0.0, 2.0, -0.0]),),
        "special_values": (special, special[::-1]),
        "integers": (np.arange(-3, 9), np.arange(12) % 3),
        "non_contiguous": (wide[:, 1], wide[::-1, 2],
                           np.stack(grid, axis=1)[:3000, 3],
                           grid[3][::-1][:3000]),
        "zero_rows": ((), ()),
        "one_row": ([-0.0], [np.pi], [7]),
    }


class TestDistinctValueWriter:
    @pytest.mark.parametrize("case", sorted(_column_sets()))
    def test_bytes_match_the_per_cell_writer(self, tmp_path, case):
        columns = _column_sets()[case]
        names = [f"c{i}" for i in range(len(columns))]
        export.write_table(str(tmp_path / "got.txt"), names, columns)
        oracle_write_table(str(tmp_path / "want.txt"), names, columns)
        want = (tmp_path / "want.txt").read_bytes()
        assert (tmp_path / "got.txt").read_bytes() == want
        if case == "signed_zeros":
            # a writer keyed on the float values would merge these two
            assert b"\n0\n-0\n" in want


class TestArrays:
    FIELDS = [np.arange(24.0).reshape(2, 3, 4) * k - 0.5 for k in range(3)]

    def test_bytes_are_those_np_save_writes_for_the_stack(self, tmp_path):
        path = tmp_path / "a.npy"
        export.write_array(str(path), self.FIELDS)
        buf = io.BytesIO()
        np.save(buf, np.stack(self.FIELDS), allow_pickle=False)
        assert path.read_bytes() == buf.getvalue()

    def test_round_trip_keeps_every_bit(self, tmp_path):
        path = str(tmp_path / "a.npy")
        fields = [f.copy() for f in self.FIELDS]
        fields[0].flat[:4] = [-0.0, np.nan, -np.inf, 5e-324]
        fields[1].flat[0] = np.frombuffer(
            np.uint64(0xFFF4_0000_0000_0001).tobytes(), dtype=float)[0]
        export.write_array(path, fields)
        back = export.read_array(path, (3, 2, 3, 4))
        assert back.dtype == np.dtype("<f8") and back.flags.c_contiguous
        assert back.tobytes() == np.stack(fields).tobytes()

    def test_unequal_fields_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="one shape"):
            export.write_array(str(tmp_path / "a.npy"),
                               [np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError, match="one shape"):
            export.write_array(str(tmp_path / "b.npy"), [])

    def test_claimed_billion_elements_are_never_allocated(self, tmp_path):
        # a header whose shape is the expected one, over 16 bytes of data:
        # the length check answers before a byte of the 8 GB is reserved
        path = tmp_path / "huge.npy"
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": "<f8", "fortran_order": False, "shape": (10**9,)})
            fh.write(bytes(16))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                export.read_array(str(path), (10**9,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "ends 7999999984 bytes short of its data"
        assert peak < 1 << 20

    @pytest.mark.parametrize("raw,message", [
        (b"", "not a .npy file"),
        (b"\x93NUMPY\x02\x00", "unsupported .npy version (2, 0)"),
        # the rest of this message is NumPy's own, flattened to one line
        (b"\x93NUMPY\x01\x00\x10\x00{'descr': '<f8'}\n",
         "unreadable .npy header: "),
    ])
    def test_damaged_headers_give_one_line(self, tmp_path, raw, message):
        path = tmp_path / "bad.npy"
        path.write_bytes(raw)
        with pytest.raises(ValueError) as exc:
            export.read_array(str(path), (1,))
        assert str(exc.value).startswith(message)
        assert "\n" not in str(exc.value)


class TestCanonicalYaml:
    def test_key_order_is_canonical(self):
        a = export.canonical_yaml({"b": 1, "a": {"d": 2.0, "c": [3, 4]}})
        b = export.canonical_yaml({"a": {"c": [3, 4], "d": 2.0}, "b": 1})
        assert a == b

    def test_numpy_scalars_are_stripped(self):
        text = export.canonical_yaml(
            {"x": np.float64(0.5), "n": np.int64(3),
             "flag": np.bool_(True), "arr": np.arange(2.0)})
        assert "0.5" in text and "!!python" not in text


class TestManifests:
    def _make_run(self, tmp_path):
        out = str(tmp_path / "run")
        os.makedirs(out)
        export.write_table(os.path.join(out, "a.txt"), ("v",), ([1.0, 2.0],))
        export.write_table(os.path.join(out, "b.txt"), ("v",), ([3.0],))
        export.write_manifest(out, "solve-agent", {"grid": {"x_nodes": 3}},
                              files=["a.txt", "b.txt"])
        export.write_timings(out, {"solve": 0.12})
        return out

    def test_manifest_lists_only_artifacts(self, tmp_path):
        out = self._make_run(tmp_path)
        doc = export.read_manifest(out)
        assert sorted(doc["artifacts"]) == ["a.txt", "b.txt"]
        assert doc["command"] == "solve-agent"

    def test_clean_directory_passes(self, tmp_path):
        out = self._make_run(tmp_path)
        missing, mismatched = export.checksum_failures(
            out, export.read_manifest(out))
        assert missing == [] and mismatched == []

    def test_tampering_is_detected(self, tmp_path):
        out = self._make_run(tmp_path)
        with open(os.path.join(out, "a.txt"), "a") as fh:
            fh.write("9\n")
        missing, mismatched = export.checksum_failures(
            out, export.read_manifest(out))
        assert mismatched == ["a.txt"] and missing == []

    def test_deletion_is_detected(self, tmp_path):
        out = self._make_run(tmp_path)
        os.remove(os.path.join(out, "b.txt"))
        missing, _ = export.checksum_failures(out, export.read_manifest(out))
        assert missing == ["b.txt"]

    def test_config_hash_is_stable(self, tmp_path):
        out = self._make_run(tmp_path)
        doc = export.read_manifest(out)
        again = export.sha256_text(export.canonical_yaml(doc["config"]))
        assert doc["config_sha256"] == again

    def test_not_a_manifest(self, tmp_path):
        (tmp_path / "manifest.yaml").write_text("just: text\n")
        with pytest.raises(ValueError, match="manifest"):
            export.read_manifest(str(tmp_path))
