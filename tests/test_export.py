"""Columnar file round-trips and manifest checksumming."""

import os
import warnings

import numpy as np
import pytest

from robustcontract import export


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
