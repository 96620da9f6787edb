import csv

import numpy as np
import pytest

from akcarc.data import (
    SyntheticTaskSpec,
    _orthogonal_means,
    _plane_rotation,
    generate_task,
    load_csv,
    load_task,
    split_labeled,
)
from akcarc.config import ExperimentConfig
from akcarc.errors import ConfigError, InvalidSplit, ParseError
from akcarc.model import Classifier, LinearHead, MlpExtractor
from akcarc.training import train_supervised, accuracy


def rows(x):
    """The rows of x as tuples."""
    return list(map(tuple, x.tolist()))


class TestSpecValidation:
    def test_defaults_valid(self):
        SyntheticTaskSpec().validate()

    def test_too_few_target_classes(self):
        with pytest.raises(ConfigError):
            SyntheticTaskSpec(target_classes=1).validate()

    def test_source_smaller_than_target(self):
        with pytest.raises(ConfigError):
            SyntheticTaskSpec(source_classes=3, target_classes=4).validate()

    def test_nonpositive_std(self):
        with pytest.raises(ConfigError):
            SyntheticTaskSpec(cluster_std=0.0).validate()


class TestGeometry:
    def test_orthogonal_means_when_they_fit(self):
        m = _orthogonal_means(5, 16, np.random.default_rng(0))
        np.testing.assert_allclose(m @ m.T, np.eye(5), atol=1e-10)

    def test_unit_norm_when_overcomplete(self):
        m = _orthogonal_means(10, 4, np.random.default_rng(1))
        np.testing.assert_allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-12)

    def test_plane_rotation_is_orthogonal(self):
        r = _plane_rotation(8, 0.7, np.random.default_rng(2))
        np.testing.assert_allclose(r @ r.T, np.eye(8), atol=1e-10)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)

    def test_zero_angle_is_identity(self):
        r = _plane_rotation(6, 0.0, np.random.default_rng(3))
        np.testing.assert_allclose(r, np.eye(6), atol=1e-12)

    def test_rotation_preserves_norms(self):
        rng = np.random.default_rng(4)
        r = _plane_rotation(8, 1.2, rng)
        v = rng.normal(size=(5, 8))
        np.testing.assert_allclose(
            np.linalg.norm(v @ r.T, axis=1), np.linalg.norm(v, axis=1), atol=1e-10
        )


class TestGenerateTask:
    def test_shapes_and_label_ranges(self):
        spec = SyntheticTaskSpec(source_train=200, target_train=120, target_test=80)
        source, target = generate_task(spec)
        assert source.labeled_x.shape == (200, 16)
        assert target.labeled_x.shape == (120, 16)
        assert target.test_x.shape == (80, 16)
        assert set(source.labeled_y) == set(range(10))
        assert set(target.labeled_y) == set(range(4))

    def test_deterministic_per_seed(self):
        a = generate_task(SyntheticTaskSpec(seed=9))
        b = generate_task(SyntheticTaskSpec(seed=9))
        np.testing.assert_array_equal(a[1].labeled_x, b[1].labeled_x)
        c = generate_task(SyntheticTaskSpec(seed=10))
        assert not np.array_equal(a[1].labeled_x, c[1].labeled_x)

    def test_class_balance(self):
        _, target = generate_task(SyntheticTaskSpec(target_train=400))
        counts = np.bincount(target.labeled_y)
        assert counts.max() - counts.min() <= 1

    def test_rows_disjoint_between_train_and_test(self):
        _, target = generate_task(SyntheticTaskSpec())
        train = rows(target.labeled_x)
        assert len(set(train)) == len(train)
        assert not set(train) & set(rows(target.test_x))

    def test_linear_probe_sanity(self):
        # a small classifier trained on the full target train set should beat
        # chance comfortably on held-out data: clusters must be learnable
        spec = SyntheticTaskSpec(target_train=600, target_test=400, seed=3)
        _, target = generate_task(spec)
        rng = np.random.default_rng(0)
        model = Classifier(
            MlpExtractor([16, 32, 16], rng), LinearHead(4, 16, rng)
        )
        train_supervised(model, target.labeled_x, target.labeled_y,
                         epochs=10, batch_size=64, eta0=0.01,
                         rng=np.random.default_rng(1))
        assert accuracy(model, target.test_x, target.test_y) > 0.5


class TestSplitLabeled:
    def make_target(self, n=200, n_classes=4, seed=0):
        _, target = generate_task(
            SyntheticTaskSpec(target_train=n, target_classes=n_classes, seed=seed)
        )
        return target

    def test_sizes(self):
        t = split_labeled(self.make_target(), 40, 0)
        assert t.labeled_x.shape[0] == 40
        assert t.unlabeled_x.shape[0] == 160
        assert t.labeled_y.shape == (40,)

    def test_stratified_within_one(self):
        t = split_labeled(self.make_target(), 42, 1)
        counts = np.bincount(t.labeled_y, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_rows_partition_original(self):
        orig = self.make_target()
        t = split_labeled(orig, 40, 2)
        # the rows are distinct, so equal sorted lists mean a partition
        assert sorted(rows(t.labeled_x) + rows(t.unlabeled_x)) == sorted(rows(orig.labeled_x))
        labeled = set(zip(rows(orig.labeled_x), orig.labeled_y.tolist()))
        assert set(zip(rows(t.labeled_x), t.labeled_y.tolist())) <= labeled

    def test_deterministic(self):
        a = split_labeled(self.make_target(), 40, 7)
        b = split_labeled(self.make_target(), 40, 7)
        np.testing.assert_array_equal(a.labeled_x, b.labeled_x)
        np.testing.assert_array_equal(a.unlabeled_x, b.unlabeled_x)

    def test_rejects_fewer_than_classes(self):
        with pytest.raises(InvalidSplit):
            split_labeled(self.make_target(), 3, 0)

    def test_rejects_more_than_available(self):
        with pytest.raises(InvalidSplit):
            split_labeled(self.make_target(n=50), 60, 0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3))
        y = rng.integers(0, 3, size=12)
        p = tmp_path / "d.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["f0", "f1", "f2", "label"])
            writer.writerows([*map(repr, row), lab] for row, lab in zip(x.tolist(), y))
        loaded = load_csv(p)
        np.testing.assert_array_equal(loaded.labeled_x, x)
        np.testing.assert_array_equal(loaded.labeled_y, y)

    def test_sparse_labels_remapped_dense(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label\n1.0,10\n2.0,30\n3.0,10\n")
        loaded = load_csv(p)
        assert loaded.label_map == {10: 0, 30: 1}
        assert loaded.labeled_y.tolist() == [0, 1, 0]

    def test_test_file_reuses_training_label_map(self, tmp_path):
        train, test, src = (tmp_path / n for n in ("train.csv", "test.csv", "src.csv"))
        train.write_text("f0,label\n1.0,1\n2.0,3\n3.0,5\n")
        test.write_text("f0,label\n1.0,3\n2.0,5\n3.0,3\n")
        src.write_text("f0,label\n1.0,0\n2.0,1\n")
        cfg = ExperimentConfig(source_train_csv=str(src),
                               target_train_csv=str(train),
                               target_test_csv=str(test))
        _, target = load_task(cfg)
        assert set(target.labeled_y.tolist()) == {0, 1, 2}
        assert target.test_y.tolist() == [1, 2, 1]

    @pytest.mark.parametrize("wide", ["train", "test"])
    def test_feature_count_mismatch_names_both_files(self, tmp_path, wide):
        paths = {n: tmp_path / f"{n}.csv" for n in ("src", "train", "test")}
        for name, p in paths.items():
            if name == wide:
                p.write_text("f0,f1,label\n1.0,0.5,0\n2.0,0.5,1\n")
            else:
                p.write_text("f0,label\n1.0,0\n2.0,1\n")
        cfg = ExperimentConfig(source_train_csv=str(paths["src"]),
                               target_train_csv=str(paths["train"]),
                               target_test_csv=str(paths["test"]))
        with pytest.raises(ParseError) as exc:
            load_task(cfg)
        msg = str(exc.value)
        assert str(paths[wide]) in msg and str(paths["src"]) in msg
        assert "2 features" in msg and "has 1" in msg

    @pytest.mark.parametrize("bad,cell,value", [
        ("src", "nan", "nan"), ("train", "inf", "inf"), ("test", "-Infinity", "-inf")])
    def test_non_finite_cell_names_file_line_and_column(self, tmp_path, bad, cell, value):
        # the label sits between the features, so the column count skips it
        paths = {n: tmp_path / f"{n}.csv" for n in ("src", "train", "test")}
        for name, p in paths.items():
            second = f"2.0,1,{cell},{cell}" if name == bad else "2.0,1,0.5,0.5"
            p.write_text(f"f0,label,f1,f2\n1.0,0,0.5,0.5\n{second}\n")
        cfg = ExperimentConfig(source_train_csv=str(paths["src"]),
                               target_train_csv=str(paths["train"]),
                               target_test_csv=str(paths["test"]))
        with pytest.raises(ParseError, match=rf"{bad}\.csv:3:3: non-finite value {value}$"):
            load_task(cfg)

    @pytest.mark.parametrize("changed,header", [
        ("train", "f1,f0"), ("test", "f1,f0"), ("train", "f0,g1"), ("test", "g0,f1")])
    def test_feature_names_mismatch_names_both_files(self, tmp_path, changed, header):
        paths = {n: tmp_path / f"{n}.csv" for n in ("src", "train", "test")}
        for name, p in paths.items():
            names = header if name == changed else "f0,f1"
            p.write_text(f"{names},label\n1.0,0.5,0\n2.0,0.5,1\n")
        cfg = ExperimentConfig(source_train_csv=str(paths["src"]),
                               target_train_csv=str(paths["train"]),
                               target_test_csv=str(paths["test"]))
        with pytest.raises(ParseError) as exc:
            load_task(cfg)
        assert str(exc.value) == (
            f"{paths[changed]} has feature columns {header.split(',')} but "
            f"{paths['src']} has ['f0', 'f1']")

    @pytest.mark.parametrize("single", ["src", "train"])
    def test_single_class_file_is_named(self, tmp_path, single):
        paths = {n: tmp_path / f"{n}.csv" for n in ("src", "train", "test")}
        for name, p in paths.items():
            p.write_text("f0,label\n1.0,7\n2.0,7\n" if name == single
                         else "f0,label\n1.0,7\n2.0,8\n")
        cfg = ExperimentConfig(source_train_csv=str(paths["src"]),
                               target_train_csv=str(paths["train"]),
                               target_test_csv=str(paths["test"]))
        with pytest.raises(ParseError) as exc:
            load_task(cfg)
        assert str(exc.value) == f"{paths[single]} has 1 class; a run needs at least 2"

    def test_unusual_valid_cells_read_as_python_reads_them(self, tmp_path):
        cells = ["1_0", " 1.5 ", "+.5", "-0", "1e-400", "\uff11"]
        p = tmp_path / "d.csv"
        header = ",".join(f"f{i}" for i in range(len(cells)))
        p.write_text(f"{header},label\n{','.join(cells)}, 3 \n", encoding="utf-8")
        loaded = load_csv(p)
        assert loaded.labeled_x.tobytes() == np.array([[float(c) for c in cells]]).tobytes()
        assert loaded.label_map == {int(" 3 "): 0}

    @pytest.mark.parametrize("row,fault", [
        ("x,1,0.5", "3:1: non-numeric 'x'"),
        ("1.0,one,0.5", "3:2: bad label 'one'"),
        ("1.0,1,y", "3:3: non-numeric 'y'"),
        ("1.0,9,0.5", "3:2: label 9 is not among the training labels"),
        ("x,one,y", "3:1: non-numeric 'x'"),
        # a cell that does not parse wins over an unknown label before it
        ("1.0,9,y", "3:3: non-numeric 'y'"),
    ])
    def test_first_fault_of_a_row_is_named(self, tmp_path, row, fault):
        p = tmp_path / "d.csv"
        p.write_text(f"f0,label,f1\n1.0,0,0.5\n{row}\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p, label_map={0: 0, 1: 1})
        assert str(exc.value) == f"{p}:{fault}"

    def test_test_label_outside_training_labels_rejected(self, tmp_path):
        p = tmp_path / "test.csv"
        p.write_text("f0,label\n1.0,3\n2.0,4\n")
        with pytest.raises(ParseError, match=r"test\.csv:3:2: label 4"):
            load_csv(p, label_map={1: 0, 3: 1, 5: 2})

    @pytest.mark.parametrize("header,rows", [("label,f0", "0,1.5\n1,2.5\n"),
                                             ("f0,label", "1.5,0\n2.5,1\n")])
    def test_byte_order_mark_is_skipped(self, tmp_path, header, rows):
        # a BOM in only one of the three files must not rename its first column
        paths = {n: tmp_path / f"{n}.csv" for n in ("src", "train", "test")}
        for name, p in paths.items():
            p.write_text(header + "\n" + rows,
                         encoding="utf-8-sig" if name == "train" else "utf-8")
        assert paths["train"].read_bytes().startswith(b"\xef\xbb\xbf")
        cfg = ExperimentConfig(source_train_csv=str(paths["src"]),
                               target_train_csv=str(paths["train"]),
                               target_test_csv=str(paths["test"]))
        source, target = load_task(cfg)
        assert source.feature_names == target.feature_names == ("f0",)
        assert target.labeled_x.tolist() == [[1.5], [2.5]]
        assert target.labeled_y.tolist() == [0, 1]

    @pytest.mark.parametrize("header,name", [("label,f0,label", "label"),
                                             ("f0,label,f1,f0", "f0")])
    def test_repeated_column_is_named(self, tmp_path, header, name):
        p = tmp_path / "d.csv"
        p.write_text(f"{header}\n" + ",".join(["1"] * header.count(",")) + ",0\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert str(exc.value) == f"{p}: header names column {name!r} more than once"

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(ParseError, match="label"):
            load_csv(p)

    def test_bad_cell_reports_line_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ParseError, match=r":3:2"):
            load_csv(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n1.0,2.0\n")
        with pytest.raises(ParseError, match="expected 3 fields"):
            load_csv(p)

    @pytest.mark.parametrize("case,reason", [
        ("missing", "cannot read: No such file or directory"),
        ("directory", "cannot read: Is a directory"),
        ("not-utf8", "not UTF-8 text: byte 0xff"),
        ("label-only", "no feature column besides 'label'"),
    ], ids=["missing", "directory", "not-utf8", "label-only"])
    def test_file_that_gives_no_features_names_itself_and_the_reason(self, tmp_path,
                                                                      case, reason):
        p = tmp_path / "d.csv"
        if case == "directory":
            p.mkdir()
        elif case == "not-utf8":
            p.write_bytes(b"f0,label\n1.\xff,0\n")
        elif case == "label-only":
            p.write_text("label\n0\n1\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert str(exc.value) == f"{p}: {reason}"

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(p)
