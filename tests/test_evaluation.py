"""Evaluation harness: sweeps and curves."""

import math

import numpy as np
import pytest

from circuq import Dataset, EvalConfig, build_manual, ood_sweep
from circuq.errors import DegenerateSampleError, ShapeError, UnderflowError
from circuq.evaluation import (
    accuracy_of_means,
    entropies,
    outlier_rates,
    perturb_sweep,
    posterior_means,
    write_curve_csv,
)

@pytest.fixture(scope="module")
def small_classifier():
    """Two-class circuit over two variables with distinct class models."""
    return build_manual(
        """
        a1 gaussian 0 -1.0 1.0
        b1 gaussian 1 -1.0 1.0
        p1 product a1 b1
        a2 gaussian 0 1.0 1.0
        b2 gaussian 1 1.0 1.0
        p2 product a2 b2
        a3 gaussian 0 0.0 1.5
        b3 gaussian 1 0.0 1.5
        p3 product a3 b3
        s1 sum 0.8 p1 0.2 p3
        s2 sum 0.8 p2 0.2 p3
        root s1 s2
        """
    )


class TestOutlierRates:
    def test_synthetic_exact_values(self):
        """Constructed entropies: the rates and AUC follow by直 counting.

        With ID entropies all 0.1 and OOD all 2.0 on a [0, ln 10] grid, the
        OOD rate is 1 for thresholds <= 2.0 and 0 above, so the AUC equals
        the fraction of grid below 2.0.
        """
        h_id = np.full(50, 0.1)
        h_ood = np.full(50, 2.0)
        h_max = math.log(10)
        thresholds = np.linspace(0.0, h_max, 256)
        id_rate = outlier_rates(h_id, thresholds)
        ood_rate = outlier_rates(h_ood, thresholds)
        assert np.all(ood_rate[thresholds <= 2.0] == 1.0)
        assert np.all(ood_rate[thresholds > 2.0] == 0.0)
        assert np.all(id_rate[thresholds > 0.1] == 0.0)
        auc = float(np.trapezoid(ood_rate, thresholds) / h_max)
        expected = 2.0 / h_max  # fraction of the grid below the OOD entropy
        assert auc == pytest.approx(expected, abs=0.01)

    def test_rates_monotone_and_bounded(self):
        rng = np.random.default_rng(0)
        h = rng.uniform(0, 1.5, size=300)
        thresholds = np.linspace(0, 2, 128)
        rates = outlier_rates(h, thresholds)
        assert np.all(np.diff(rates) <= 0)
        assert np.all((0 <= rates) & (rates <= 1))


class TestOodSweep:
    def test_identical_sets_identical_curves(self, small_classifier):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        ds = Dataset(X, name="same")
        res = ood_sweep(small_classifier, ds, ds, EvalConfig(method="plain"))
        np.testing.assert_array_equal(res.id_outlier_rate, res.ood_outlier_rate)
        assert res.auc == pytest.approx(
            float(np.trapezoid(res.id_outlier_rate, res.thresholds)
                  / (res.thresholds[-1] - res.thresholds[0]))
        )

    def test_normalized_entropy_leaves_auc_unchanged(self, small_classifier):
        rng = np.random.default_rng(2)
        id_ds = Dataset(rng.normal(-1, 1, size=(30, 2)))
        ood_ds = Dataset(rng.normal(4, 1, size=(30, 2)))
        raw = ood_sweep(small_classifier, id_ds, ood_ds, EvalConfig(method="tdi", p=0.1))
        norm = ood_sweep(
            small_classifier, id_ds, ood_ds,
            EvalConfig(method="tdi", p=0.1, normalized_entropy=True),
        )
        assert raw.auc == pytest.approx(norm.auc, abs=1e-12)
        np.testing.assert_allclose(raw.ood_outlier_rate, norm.ood_outlier_rate, atol=1e-12)

    def test_empty_sets_rejected(self, small_classifier):
        ds = Dataset(np.zeros((0, 2)))
        full = Dataset(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            ood_sweep(small_classifier, ds, full, EvalConfig())

    def test_metadata_tags(self, small_classifier):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(10, 2)))
        for method, tag in (("plain", "PC"), ("tdi", "PC+TDI"), ("mcd", "PC+MCD")):
            res = ood_sweep(small_classifier, ds, ds,
                            EvalConfig(method=method, p=0.1, mcd_passes=20))
            assert res.metadata["method"] == tag

    def test_sweep_keeps_the_id_entropies_it_counted(self, small_classifier):
        rng = np.random.default_rng(8)
        id_data, ood = Dataset(rng.normal(size=(7, 2))), Dataset(rng.normal(size=(5, 2)))
        config = EvalConfig(method="tdi", normalized_entropy=True)
        res = ood_sweep(small_classifier, id_data, ood, config)
        np.testing.assert_array_equal(res.id_entropy,
                                      entropies(small_classifier, id_data.features, config))

    def test_csv_output(self, small_classifier, tmp_path):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(10, 2)))
        res = ood_sweep(small_classifier, ds, ds, EvalConfig(method="plain"))
        out = tmp_path / "sweep.csv"
        res.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "threshold,id_outlier_rate,ood_outlier_rate"
        assert lines[-1].startswith("# auc=")


class TestMethodPlumbing:
    def test_p_zero_tdi_equals_plain_per_sample(self, small_classifier):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(25, 2))
        h_plain = entropies(small_classifier, X, EvalConfig(method="plain"))
        h_tdi = entropies(small_classifier, X, EvalConfig(method="tdi", p=0.0))
        np.testing.assert_allclose(h_plain, h_tdi, atol=1e-9)

    def test_mcd_p_zero_equals_plain(self, small_classifier):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(5, 2))
        h_plain = entropies(small_classifier, X, EvalConfig(method="plain"))
        h_mcd = entropies(small_classifier, X, EvalConfig(method="mcd", p=0.0, mcd_passes=3))
        np.testing.assert_allclose(h_plain, h_mcd, atol=1e-9)

    def test_zero_likelihood_row_raises_under_every_method(self):
        # Row 1 is a state that both class heads give probability 0.
        c = build_manual("""
        a categorical 0 1.0 0.0
        b categorical 0 1.0 0.0
        root a b
        """)
        X = np.array([[0.0], [1.0]])
        for method in ("plain", "tdi"):
            with pytest.raises(UnderflowError, match="row 1"):
                posterior_means(c, X, EvalConfig(method=method))
        with pytest.raises(DegenerateSampleError):
            posterior_means(c, X, EvalConfig(method="mcd", mcd_passes=10))

    @pytest.mark.parametrize("method", ["plain", "tdi", "mcd"])
    def test_a_one_dimensional_batch_names_its_shape(self, small_classifier, method):
        with pytest.raises(ShapeError, match=r"^batch has shape \(2,\), expected \(rows, 2\)$"):
            posterior_means(small_classifier, np.zeros(2), EvalConfig(method=method))

    def test_accuracy_tie_break_lowest_index(self):
        means = np.array([[0.4, 0.4, 0.2], [0.1, 0.45, 0.45]])
        assert accuracy_of_means(means, np.array([0, 1])) == 1.0
        assert accuracy_of_means(means, np.array([1, 2])) == 0.0


class TestPerturbSweep:
    def test_angle_zero_matches_direct_eval(self):
        rng = np.random.default_rng(7)
        X = np.clip(rng.normal(0.5, 0.2, size=(12, 4)), 0, 1)
        ds = Dataset(X, labels=rng.integers(2, size=12))
        pts = perturb_sweep(small_classifier_4var(), ds, [0.0],
                            EvalConfig(method="plain"), 2, 2)
        h = entropies(small_classifier_4var(), X, EvalConfig(method="plain"))
        assert pts[0].mean_entropy == pytest.approx(float(h.mean()), abs=1e-12)

    def test_angles_must_ascend(self):
        ds = Dataset(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            perturb_sweep(small_classifier_4var(), ds, [30, 0],
                          EvalConfig(method="plain"), 2, 2)


def small_classifier_4var():
    return build_manual(
        """
        a1 gaussian 0 0.3 0.5
        b1 gaussian 1 0.3 0.5
        c1 gaussian 2 0.7 0.5
        d1 gaussian 3 0.7 0.5
        p1 product a1 b1 c1 d1
        a2 gaussian 0 0.7 0.5
        b2 gaussian 1 0.7 0.5
        c2 gaussian 2 0.3 0.5
        d2 gaussian 3 0.3 0.5
        p2 product a2 b2 c2 d2
        root p1 p2
        """
    )


def test_curve_csv(tmp_path):
    from circuq.evaluation import CurvePoint

    pts = [CurvePoint(0.0, 0.5, 0.9, 0.01), CurvePoint(15.0, 0.7, 0.8, 0.02)]
    out = tmp_path / "curve.csv"
    write_curve_csv(pts, out, "angle")
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "angle,mean_entropy,accuracy,mean_std"
    assert len(lines) == 3
