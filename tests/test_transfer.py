"""PCA and SVM estimators, the dataset manifest, and the transfer pipeline."""

import codecs
import csv
import hashlib
import io
import itertools
import time

import numpy as np
import pytest

from meltag import cli
from meltag.errors import (
    ConfigInvalidError,
    MeltagError,
    NotFittedError,
    NumericFaultError,
    ShapeMismatchError,
    SingleClassError,
)
from meltag.network import build_model
from meltag.store import save_model
from meltag.transfer import (
    DatasetManifest,
    LinearSvmOneVsRest,
    ManifestRow,
    PipelineReport,
    PrincipalComponents,
    load_manifest,
    run_pipeline,
)

from conftest import sine, tiny_musicnn


def _blobs(rng, centers, n_per, scale=0.1):
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(rng.normal(scale=scale, size=(n_per, len(center))) + center)
        ys.append(np.full(n_per, label))
    return np.concatenate(xs), np.concatenate(ys)


def _planted(rng, n, spectrum, v):
    """n rows whose centred matrix is exactly U diag(spectrum) V^T plus
    rounding: U's columns are orthonormal and orthogonal to the ones vector,
    so centring leaves them alone, and v's rows are the planted directions."""
    u = rng.normal(size=(n, len(spectrum)))
    u, _ = np.linalg.qr(u - u.mean(axis=0))
    return (u * spectrum) @ v + rng.normal(size=v.shape[1])


class TestPrincipalComponents:
    def test_first_component_finds_the_stretched_axis(self):
        rng = np.random.default_rng(0)
        direction = np.array([3.0, 4.0]) / 5.0
        x = rng.normal(size=(200, 1)) * 9.0 * direction + rng.normal(size=(200, 2)) * 0.1
        pca = PrincipalComponents(n_components=2).fit(x)
        assert abs(pca.components_[0] @ direction) > 0.999

    def test_matches_an_eigendecomposition_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 6)) @ rng.normal(size=(6, 6))
        pca = PrincipalComponents(n_components=6).fit(x)
        xc = x - x.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(xc.T @ xc)
        eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
        np.testing.assert_allclose(pca.singular_values_**2, eigvals, rtol=1e-9)
        for i in range(6):
            assert abs(pca.components_[i] @ eigvecs[:, i]) > 1.0 - 1e-8

    def test_wide_matrix_branch_matches_the_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 12))  # fewer samples than features
        pca = PrincipalComponents(n_components=4).fit(x)
        xc = x - x.mean(axis=0)
        _, s, vt = np.linalg.svd(xc, full_matrices=False)
        np.testing.assert_allclose(pca.singular_values_, s[:4], rtol=1e-9)
        for i in range(4):
            assert abs(pca.components_[i] @ vt[i]) > 1.0 - 1e-8

    def test_rows_are_orthonormal(self):
        rng = np.random.default_rng(3)
        pca = PrincipalComponents(n_components=5).fit(rng.normal(size=(30, 8)))
        gram = pca.components_ @ pca.components_.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        pca = PrincipalComponents(n_components=4).fit(rng.normal(size=(25, 7)))
        for row in pca.components_:
            assert row[np.argmax(np.abs(row))] > 0

    def test_transform_of_the_mean_is_zero(self):
        rng = np.random.default_rng(5)
        pca = PrincipalComponents(n_components=3).fit(rng.normal(size=(20, 5)))
        np.testing.assert_allclose(pca.transform(pca.mean_[None]), 0.0, atol=1e-12)

    def test_transform_of_mean_plus_component_is_a_basis_vector(self):
        rng = np.random.default_rng(6)
        pca = PrincipalComponents(n_components=3).fit(rng.normal(size=(20, 5)))
        for i in range(3):
            z = pca.transform((pca.mean_ + pca.components_[i])[None])
            np.testing.assert_allclose(z, np.eye(3)[i : i + 1], atol=1e-10)

    def test_full_rank_projection_preserves_geometry(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(15, 4))
        z = PrincipalComponents(n_components=4).fit(x).transform(x)
        d_x = np.linalg.norm(x[:, None] - x[None], axis=2)
        d_z = np.linalg.norm(z[:, None] - z[None], axis=2)
        np.testing.assert_allclose(d_z, d_x, atol=1e-8)

    def test_reconstruction_at_full_rank(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 4))
        pca = PrincipalComponents(n_components=4).fit(x)
        z = pca.transform(x)
        np.testing.assert_allclose(z @ pca.components_ + pca.mean_, x, atol=1e-8)

    def test_rank_deficient_data_clamps_components(self):
        rng = np.random.default_rng(9)
        plane = rng.normal(size=(30, 2)) @ rng.normal(size=(2, 5))  # rank 2 in 5-D
        pca = PrincipalComponents(n_components=4).fit(plane)
        assert pca.rank_deficient_
        assert pca.n_components_ == 2
        assert pca.components_.shape == (2, 5)
        assert pca.transform(plane).shape == (30, 2)

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(25, 6))
        a = PrincipalComponents(n_components=3).fit(x)
        b = PrincipalComponents(n_components=3).fit(x)
        np.testing.assert_array_equal(a.components_, b.components_)
        np.testing.assert_array_equal(a.singular_values_, b.singular_values_)

    def test_feature_count_mismatch(self):
        rng = np.random.default_rng(12)
        pca = PrincipalComponents(n_components=2).fit(rng.normal(size=(10, 4)))
        with pytest.raises(ShapeMismatchError):
            pca.transform(np.zeros(5))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            PrincipalComponents().transform(np.zeros((2, 2)))
        assert issubclass(NotFittedError, MeltagError)  # the CLIs report MeltagError

    def test_bad_sample_or_component_counts(self):
        with pytest.raises(ConfigInvalidError):
            PrincipalComponents(n_components=1).fit(np.zeros((1, 3)))
        with pytest.raises(ConfigInvalidError):
            PrincipalComponents(n_components=5).fit(np.zeros((4, 3)))
        with pytest.raises(ConfigInvalidError):
            PrincipalComponents(n_components=0).fit(np.zeros((4, 3)))

    @pytest.mark.parametrize(
        "n, d, rank, k",
        [(200, 24, 24, 24), (40, 120, 39, 39), (16, 200, 15, 16)],
        ids=["tall", "wide", "bench_shape_rank_deficient"],
    )
    def test_planted_spectrum_matches_the_gram_oracle(self, n, d, rank, k):
        rng = np.random.default_rng(n * d)
        spectrum = np.linspace(10.0, 3.0, rank)  # gaps of at least 0.18
        v, _ = np.linalg.qr(rng.normal(size=(d, rank)))
        x = _planted(rng, n, spectrum, v.T)
        pca = PrincipalComponents(n_components=k).fit(x)
        assert pca.n_components_ == rank
        assert pca.rank_deficient_ == (rank < k)
        xc = x - x.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(xc.T @ xc)
        eigvals, eigvecs = eigvals[::-1][:rank], eigvecs[:, ::-1][:, :rank]
        np.testing.assert_allclose(eigvals, spectrum**2, rtol=1e-9)
        np.testing.assert_allclose(pca.singular_values_**2, eigvals, rtol=1e-9)
        overlap = np.abs(np.sum(pca.components_ * eigvecs.T, axis=1))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-9)

    def test_sign_rule_fixes_each_component_whatever_the_solver_returns(self):
        # largest-|entry| coordinate positive, for the data and its mirror image
        v = np.array([[0.6, -0.8, 0.0], [-0.8, -0.6, 0.0], [0.0, 0.0, -1.0]])
        want = np.array([[-0.6, 0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
        x = _planted(np.random.default_rng(13), 20, np.array([5.0, 3.0, 1.0]), v)
        for data in (x, -x):
            pca = PrincipalComponents(n_components=3).fit(data)
            np.testing.assert_allclose(pca.components_, want, atol=1e-12)

    def test_gtzan_sized_fit_finishes_quickly(self):
        # the paper's transfer experiment: about 1,000 clips, 326-d embeddings,
        # 128 components
        x = np.random.default_rng(14).normal(size=(1000, 326))
        started = time.perf_counter()
        pca = PrincipalComponents(n_components=128).fit(x)
        elapsed = time.perf_counter() - started
        assert pca.n_components_ == 128
        assert elapsed < 5.0, f"PCA fit took {elapsed:.2f} s"


class TestLinearSvm:
    def test_separable_two_class_problem(self):
        rng = np.random.default_rng(0)
        x, y = _blobs(rng, [(-2.0, 0.0), (2.0, 0.0)], 20)
        svm = LinearSvmOneVsRest(epochs=300).fit(x, y)
        assert (svm.predict(x) == y).all()

    def test_three_class_simplex(self):
        rng = np.random.default_rng(1)
        x, y = _blobs(rng, [(3.0, 0.0), (-1.5, 2.6), (-1.5, -2.6)], 30, scale=0.4)
        svm = LinearSvmOneVsRest(epochs=400).fit(x, y)
        assert (svm.predict(x) == y).mean() >= 0.95

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(2)
        x, y = _blobs(rng, [(-1.0, 1.0), (1.0, -1.0)], 10)
        a = LinearSvmOneVsRest().fit(x, y)
        b = LinearSvmOneVsRest().fit(x, y)
        np.testing.assert_array_equal(a.weights_, b.weights_)
        np.testing.assert_array_equal(a.biases_, b.biases_)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(3)
        x, y = _blobs(rng, [(-1.0, 0.0), (1.0, 0.0), (0.0, 2.0)], 15, scale=0.8)
        svm = LinearSvmOneVsRest(epochs=250).fit(x, y)
        assert svm.objective_history_.shape == (3, 251)
        diffs = np.diff(svm.objective_history_, axis=1)
        assert (diffs <= 1e-12).all()

    def test_objective_actually_decreases_from_the_start(self):
        rng = np.random.default_rng(4)
        x, y = _blobs(rng, [(-2.0, 0.0), (2.0, 0.0)], 10)
        svm = LinearSvmOneVsRest(epochs=50).fit(x, y)
        assert svm.objective_history_[0, -1] < svm.objective_history_[0, 0]

    def test_prediction_ties_take_the_lowest_class_index(self):
        svm = LinearSvmOneVsRest()
        svm.classes_ = np.array([4, 7, 9])
        svm.weights_ = np.zeros((3, 2))
        svm.biases_ = np.zeros(3)
        assert list(svm.predict(np.array([[1.0, 2.0]]))) == [4]
        assert list(svm.predict(np.zeros((2, 2)))) == [4, 4]

    def test_single_class_raises(self):
        with pytest.raises(SingleClassError):
            LinearSvmOneVsRest().fit(np.zeros((4, 2)), np.zeros(4))

    def test_invalid_hyperparameters(self):
        x, y = np.zeros((4, 2)), np.array([0, 0, 1, 1])
        with pytest.raises(ConfigInvalidError):
            LinearSvmOneVsRest(reg_strength=0.0).fit(x, y)
        with pytest.raises(ConfigInvalidError):
            LinearSvmOneVsRest(epochs=0).fit(x, y)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LinearSvmOneVsRest().predict(np.zeros(2))

    def test_decision_feature_mismatch(self):
        rng = np.random.default_rng(5)
        x, y = _blobs(rng, [(-1.0,), (1.0,)], 5)
        svm = LinearSvmOneVsRest(epochs=20).fit(x, y)
        with pytest.raises(ShapeMismatchError):
            svm.decision_function(np.zeros(3))

    def test_string_labels_round_trip(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(size=(8, 2)) - 3, rng.normal(size=(8, 2)) + 3])
        y = np.array(["ambient"] * 8 + ["metal"] * 8)
        svm = LinearSvmOneVsRest(epochs=200).fit(x, y)
        assert set(svm.predict(x)) == {"ambient", "metal"}
        assert (svm.predict(x) == y).all()


def _per_class_svm(x, y, reg_strength=1e-3, epochs=200):
    """The SVM as one gradient descent per class, each margin a matrix-vector
    product: the reference the class-batched fit must reproduce."""
    classes = np.unique(y)
    n, d = x.shape
    lr = 1.0 / (reg_strength + 2.0 * float(np.mean((x * x).sum(axis=1) + 1.0)))
    weights, biases = np.zeros((len(classes), d)), np.zeros(len(classes))
    history = np.zeros((len(classes), epochs + 1))

    def objective(t, w, b):
        margin = np.maximum(0.0, 1.0 - t * (x @ w + b))
        return 0.5 * reg_strength * (w @ w) + float(np.mean(margin**2))

    for c, label in enumerate(classes):
        t = np.where(y == label, 1.0, -1.0)
        w, b = np.zeros(d), 0.0
        history[c, 0] = objective(t, w, b)
        for epoch in range(1, epochs + 1):
            coeff = -2.0 * t * np.maximum(0.0, 1.0 - t * (x @ w + b)) / n
            w = w - lr * (reg_strength * w + x.T @ coeff)
            b = b - lr * float(coeff.sum())
            history[c, epoch] = objective(t, w, b)
        weights[c], biases[c] = w, b
    return classes, weights, biases, history


class TestSvmClassBatch:
    @pytest.mark.parametrize("n_classes, n, d", [(2, 30, 3), (3, 45, 5), (10, 200, 16)])
    def test_matches_the_per_class_fit(self, n_classes, n, d):
        rng = np.random.default_rng(n_classes)
        y = rng.integers(0, n_classes, size=n)
        x = rng.normal(size=(n, d)) + 0.5 * rng.normal(size=(n_classes, d))[y]
        classes, weights, biases, history = _per_class_svm(x, y, epochs=150)
        svm = LinearSvmOneVsRest(epochs=150).fit(x, y)
        np.testing.assert_array_equal(svm.classes_, classes)
        np.testing.assert_allclose(svm.weights_, weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(svm.biases_, biases, rtol=0, atol=1e-12)
        np.testing.assert_allclose(svm.objective_history_, history, rtol=0, atol=1e-12)
        oracle_scores = x @ weights.T + biases
        np.testing.assert_array_equal(svm.predict(x), classes[oracle_scores.argmax(axis=1)])

    def test_fit_keeps_its_bits(self):
        # Pinned on x86-64 with OpenBLAS; a BLAS with other kernels may round
        # the class-batched products differently.
        rng = np.random.default_rng(21)
        y = np.repeat(np.arange(4), 10)
        x = rng.normal(size=(40, 6)) + y[:, None] * 0.4
        svm = LinearSvmOneVsRest(epochs=120).fit(x, y)
        h = hashlib.sha256()
        for array in (svm.weights_, svm.biases_, svm.objective_history_):
            h.update(array.tobytes())
        assert h.hexdigest() == SVM_FIT_SHA256

    def test_a_rising_objective_names_the_first_class_that_rose(self):
        calls = itertools.count()

        class Rising(LinearSvmOneVsRest):
            def _objective(self, hinge, weights):
                values = super()._objective(hinge, weights)
                values[1:] += next(calls)  # every class but the first rises
                return values

        x = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NumericFaultError, match=r"at epoch 1 for class 'b'$"):
            Rising(epochs=5).fit(x, np.array(["a", "b", "c", "a"]))


SVM_FIT_SHA256 = "30aec9c38f4a496d26d0944905a810c74774fd15351663758ed24c2013bf5891"


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fits_raise_naming_row_and_column(self, bad):
        x = np.random.default_rng(7).normal(size=(6, 3))
        x[4, 2] = bad
        y = np.array([0, 1, 0, 1, 0, 1])
        with pytest.raises(NumericFaultError, match="row 4, column 2"):
            PrincipalComponents(n_components=2).fit(x)
        with pytest.raises(NumericFaultError, match="row 4, column 2"):
            LinearSvmOneVsRest(epochs=5).fit(x, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_transform_and_predict_raise_naming_row_and_column(self, bad):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(6, 3)), np.array([0, 1, 0, 1, 0, 1])
        pca = PrincipalComponents(n_components=2).fit(x)
        svm = LinearSvmOneVsRest(epochs=5).fit(x, y)
        x[1, 0] = bad
        with pytest.raises(NumericFaultError, match="row 1, column 0"):
            pca.transform(x)
        with pytest.raises(NumericFaultError, match="row 1, column 0"):
            svm.decision_function(x)
        with pytest.raises(NumericFaultError, match="row 1, column 0"):
            svm.predict(x)


class TestManifest:
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_relative_paths_resolve_against_the_manifest(self, tmp_path):
        path = self._write(
            tmp_path,
            "path,label,split\nclips/a.wav,rock,train\n/abs/b.wav,jazz,test\n",
        )
        manifest = load_manifest(path)
        assert manifest.rows[0].path == str(tmp_path / "clips/a.wav")
        assert manifest.rows[1].path == "/abs/b.wav"
        assert manifest.labels == ("jazz", "rock")  # sorted vocabulary

    def test_split_filter(self, tmp_path):
        path = self._write(
            tmp_path,
            "path,label,split\na.wav,x,train\nb.wav,y,test\nc.wav,x,train\n",
        )
        manifest = load_manifest(path)
        assert [r.path for r in manifest.split("train")] == [
            str(tmp_path / "a.wav"),
            str(tmp_path / "c.wav"),
        ]
        assert len(manifest.split("test")) == 1

    def test_extra_columns_are_tolerated(self, tmp_path):
        path = self._write(tmp_path, "path,label,split,note\na.wav,x,train,hello\nb.wav,y,test,\n")
        assert len(load_manifest(path).rows) == 2

    def test_missing_column(self, tmp_path):
        path = self._write(tmp_path, "path,label\na.wav,x\n")
        with pytest.raises(ConfigInvalidError):
            load_manifest(path)

    def test_bad_split_value(self, tmp_path):
        path = self._write(tmp_path, "path,label,split\na.wav,x,validation\n")
        with pytest.raises(ConfigInvalidError):
            load_manifest(path)

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        """Spreadsheets start a "CSV UTF-8" file with a BOM, which used to hide the path column."""
        path = tmp_path / "data.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"path,label,split\na.wav,x,train\n")
        assert load_manifest(path).rows == (ManifestRow(path=str(tmp_path / "a.wav"), label="x", split="train"),)

    def test_empty_manifest(self, tmp_path):
        path = self._write(tmp_path, "path,label,split\n")
        with pytest.raises(ConfigInvalidError):
            load_manifest(path)


def _two_genre_setup(tmp_path, wav_factory, n_train_per=3, n_test_per=2):
    """Tone clips vs noise clips, a manifest over them, and a tiny model."""
    rng = np.random.default_rng(42)
    rows = []

    def add(kind, split, count):
        for _ in range(count):
            if kind == "tone":
                freq = rng.uniform(200, 260)
                samples = sine(freq, 0.3, 2000) + rng.normal(scale=0.01, size=600)
            else:
                samples = rng.uniform(-0.5, 0.5, 600)
            path = wav_factory(samples, 2000, fmt="float32")
            rows.append(ManifestRow(path=str(path), label=kind, split=split))

    add("tone", "train", n_train_per)
    add("noise", "train", n_train_per)
    add("tone", "test", n_test_per)
    add("noise", "test", n_test_per)
    manifest = DatasetManifest(rows=tuple(rows), labels=("noise", "tone"))
    model = build_model(tiny_musicnn(), seed=5)
    return manifest, model


class TestPipeline:
    def test_separates_tones_from_noise(self, tmp_path, wav_factory):
        manifest, model = _two_genre_setup(tmp_path, wav_factory)
        report = run_pipeline(manifest, model, k=4, epochs=150)
        assert report.labels == ("noise", "tone")
        assert report.feature_key == "penultimate"
        assert report.train_accuracy == 1.0
        assert report.test_accuracy == 1.0
        assert report.confusion.sum() == 4
        np.testing.assert_array_equal(report.confusion, [[2, 0], [0, 2]])

    def test_is_deterministic(self, tmp_path, wav_factory):
        manifest, model = _two_genre_setup(tmp_path, wav_factory)
        a = run_pipeline(manifest, model, k=4, epochs=100)
        b = run_pipeline(manifest, model, k=4, epochs=100)
        assert a.as_text() == b.as_text()
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_component_clamping_is_reported(self, tmp_path, wav_factory):
        manifest, model = _two_genre_setup(tmp_path, wav_factory)
        report = run_pipeline(manifest, model, k=128, epochs=50)
        assert any("clamped from 128" in w for w in report.warnings)
        assert report.pca_components <= 6  # at most n_train

    def test_report_text_layout(self, tmp_path, wav_factory):
        manifest, model = _two_genre_setup(tmp_path, wav_factory)
        report = run_pipeline(manifest, model, k=4, epochs=50)
        text = report.as_text()
        assert text.startswith("labels: noise,tone\n")
        assert "train_accuracy: 1.000000" in text
        assert text.endswith("\n")
        csv_text = report.confusion_csv()
        lines = csv_text.splitlines()
        assert lines[0] == ",noise,tone"
        assert lines[1].startswith("noise,") and lines[2].startswith("tone,")

    def test_confusion_csv_quotes_labels_that_need_it(self):
        labels = ("rock, classic", 'say "hi"')
        report = PipelineReport(labels, "penultimate", 2, 1.0, 0.5, np.array([[1, 0], [1, 0]]), ())
        rows = list(csv.reader(io.StringIO(report.confusion_csv())))
        assert rows == [["", *labels], [labels[0], "1", "0"], [labels[1], "1", "0"]]

    def test_text_report_quotes_labels_as_the_manifest_reads_them(self, tmp_path):
        """`labels: rock, classic,jazz` used to be ambiguous: one label or two?"""
        path = tmp_path / "manifest.csv"
        path.write_text('path,label,split\na.wav,"rock, classic",train\nb.wav,jazz,test\nc.wav,"say ""hi""",test\n')
        labels = load_manifest(path).labels
        report = PipelineReport(labels, "penultimate", 2, 1.0, 0.5, np.eye(3, dtype=int), ())
        lines = report.as_text().splitlines()
        assert lines[0] == 'labels: jazz,"rock, classic","say ""hi"""'
        assert next(csv.reader([lines[0].removeprefix("labels: ")])) == list(labels)
        assert lines[-2] == '  "rock, classic": 0 1 0'

    def test_text_report_keeps_plain_labels_as_they_were(self):
        report = PipelineReport(("high", "low", "mid"), "penultimate", 2, 1.0, 1.0, np.eye(3, dtype=int), ())
        lines = report.as_text().splitlines()
        assert lines[0] == "labels: high,low,mid"
        assert lines[-3:] == ["  high: 1 0 0", "  low: 0 1 0", "  mid: 0 0 1"]

    def test_feature_key_override(self, tmp_path, wav_factory):
        manifest, model = _two_genre_setup(tmp_path, wav_factory)
        report = run_pipeline(manifest, model, feature_key="mean_pool", k=4, epochs=50)
        assert report.feature_key == "mean_pool"

    def test_missing_split_raises(self, tmp_path, wav_factory):
        manifest, model = _two_genre_setup(tmp_path, wav_factory)
        train_only = DatasetManifest(rows=manifest.split("train"), labels=manifest.labels)
        with pytest.raises(ConfigInvalidError):
            run_pipeline(train_only, model)


class TestTransferCli:
    def _setup(self, tmp_path, wav_factory):
        manifest, model = _two_genre_setup(tmp_path, wav_factory)
        manifest_path = tmp_path / "manifest.csv"
        lines = ["path,label,split"]
        lines += [f"{r.path},{r.label},{r.split}" for r in manifest.rows]
        manifest_path.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "tiny.mcn"
        save_model(model, model_path)
        return manifest_path, model_path

    def test_end_to_end(self, tmp_path, wav_factory, capsys):
        manifest_path, model_path = self._setup(tmp_path, wav_factory)
        confusion_path = tmp_path / "confusion.csv"
        code = cli.main(
            [
                "transfer",
                "--manifest", str(manifest_path),
                "-m", str(model_path),
                "--pca", "4",
                "--epochs", "100",
                "--confusion-out", str(confusion_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "test_accuracy: 1.000000" in out
        assert confusion_path.read_text().splitlines()[0] == ",noise,tone"

    def test_missing_manifest_exits_one(self, tmp_path, capsys):
        code = cli.main(["transfer", "--manifest", str(tmp_path / "none.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_manifest_flag_required(self):
        assert cli.main(["transfer"]) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--pca", "0"),
            ("--pca", "-3"),
            ("--reg", "0"),
            ("--reg", "nan"),
            ("--reg", "inf"),
            ("--epochs", "0"),
        ],
    )
    def test_bad_hyperparameter_exits_one(self, tmp_path, wav_factory, capsys, flag, value):
        manifest_path, model_path = self._setup(tmp_path, wav_factory)
        code = cli.main(
            ["transfer", "--manifest", str(manifest_path), "-m", str(model_path), flag, value]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and value in err
        assert "Traceback" not in err

    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        code = cli.main(["transfer", "--manifest", str(tmp_path / "m.csv"), "--seed", "3"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err
