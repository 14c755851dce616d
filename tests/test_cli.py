"""Command-line interface: subcommands, exit codes, snapshots."""

import json
import subprocess
import sys

import numpy as np
import pytest

from circuq import (CovarianceStrategy, Dataset, DropoutConfig, McdConfig, load, load_csv,
                    mcd_infer, mcd_vs_tdi_report, posterior_moments, save_csv, synth_blobs,
                    tdi_pass)
from circuq.cli import build_parser, main
from circuq.evaluation import EvalConfig, posterior_means

SUBCOMMANDS = ("build", "train", "eval", "tdi", "mcd", "compare", "ood",
               "perturb", "corrupt", "oracle")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = synth_blobs(3, 6, 40, 5.0, seed=1)
    save_csv(data, root / "data.csv")
    save_csv(Dataset(data.features[:8]), root / "x.csv")
    rc = main(["build", "-S", "2", "-I", "2", "-D", "2", "-R", "1",
               "--classes", "3", "--variables", "6", "--seed", "5",
               "--out", str(root / "build")])
    assert rc == 0
    rc = main(["train", "--model", str(root / "build" / "model.circuit"),
               "--data", str(root / "data.csv"), "--epochs", "6",
               "--batch-size", "40", "--learning-rate", "0.02",
               "--out", str(root / "train")])
    assert rc == 0
    return root


class TestHelp:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_every_subcommand_has_help(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["build", "--no-such-flag"])
        assert exc.value.code == 2

    def test_taylor_is_not_an_option(self, workspace, capsys):
        model, data = str(workspace / "train" / "model.circuit"), str(workspace / "data.csv")
        with pytest.raises(SystemExit) as exc:
            main(["ood", "--model", model, "--id-data", data, "--ood-data", data,
                  "--taylor", "simple", "--out", str(workspace / "ood_taylor")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --taylor simple" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("argv, missing", [
        (["train", "--model", "{model}", "--data", "{data}"], "model"),
        (["train", "--model", "{model}", "--data", "{data}"], "data"),
        (["eval", "--model", "{model}", "--data", "{data}"], "model"),
        (["eval", "--model", "{model}", "--data", "{data}"], "data"),
        (["tdi", "--model", "{model}", "--input", "{x}"], "model"),
        (["tdi", "--model", "{model}", "--input", "{x}"], "x"),
        (["mcd", "--model", "{model}", "--input", "{x}"], "model"),
        (["mcd", "--model", "{model}", "--input", "{x}"], "x"),
        (["compare", "--model", "{model}", "--input", "{x}"], "model"),
        (["compare", "--model", "{model}", "--input", "{x}"], "x"),
        (["ood", "--model", "{model}", "--id-data", "{data}", "--ood-data", "{x}"], "model"),
        (["ood", "--model", "{model}", "--id-data", "{data}", "--ood-data", "{x}"], "data"),
        (["ood", "--model", "{model}", "--id-data", "{data}", "--ood-data", "{x}"], "x"),
        (["perturb", "--model", "{model}", "--data", "{data}", "--width", "3", "--height", "2"],
         "model"),
        (["perturb", "--model", "{model}", "--data", "{data}", "--width", "3", "--height", "2"],
         "data"),
        (["corrupt", "--model", "{model}", "--data", "{data}"], "model"),
        (["corrupt", "--model", "{model}", "--data", "{data}"], "data"),
    ])
    def test_every_missing_input_file_is_3(self, workspace, argv, missing, capsys):
        paths = {"model": str(workspace / "train" / "model.circuit"),
                 "data": str(workspace / "data.csv"), "x": str(workspace / "x.csv")}
        paths[missing] = str(workspace / f"nope_{missing}")
        argv = [a.format(**paths) for a in argv]
        rc = main(argv + ["--out", str(workspace / f"missing_{argv[0]}_{missing}")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: code=3 kind=missing-file") and f"nope_{missing}" in err

    def test_invalid_circuit_is_4(self, workspace):
        bad = workspace / "bad.circuit"
        model = (workspace / "build" / "model.circuit").read_bytes()
        bad.write_bytes(model.replace(b'"version": 1', b'"version": 9'))
        rc = main(["eval", "--model", str(bad), "--data", str(workspace / "data.csv"),
                   "--out", str(workspace / "out_bad")])
        assert rc == 4

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{data}"],
        ["eval", "--data", "{data}"],
        ["tdi", "--input", "{x}"],
        ["mcd", "--input", "{x}"],
        ["compare", "--input", "{x}"],
        ["ood", "--id-data", "{data}", "--ood-data", "{x}"],
        ["perturb", "--data", "{data}", "--width", "3", "--height", "2"],
        ["corrupt", "--data", "{data}"],
    ])
    def test_a_string_node_id_is_4(self, workspace, argv, capsys):
        doc = json.loads((workspace / "build" / "model.circuit").read_bytes())
        node = next(n for n in doc["nodes"] if n["kind"] != "gaussian")
        node["children"][0] = str(node["children"][0])
        bad = workspace / "string_child.circuit"
        bad.write_text(json.dumps(doc))
        paths = {"data": str(workspace / "data.csv"), "x": str(workspace / "x.csv")}
        argv = [a.format(**paths) for a in argv]
        rc = main(argv + ["--model", str(bad), "--out", str(workspace / f"string_{argv[0]}")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: code=4 kind=validation") and "[index]" in err

    @pytest.mark.parametrize("width", [5, 7])
    @pytest.mark.parametrize("argv", [["tdi", "--input"], ["train", "--epochs", "1", "--data"]])
    def test_input_of_wrong_width_is_4(self, workspace, argv, width, capsys):
        path = workspace / f"x{width}.csv"
        save_csv(Dataset(np.zeros((3, width)), np.zeros(3, dtype=np.int64)), path)
        rc = main(argv + [str(path), "--model", str(workspace / "train" / "model.circuit"),
                          "--out", str(workspace / f"{argv[0]}_x{width}")])
        assert rc == 4
        assert "kind=circuit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{empty}"],
        ["eval", "--data", "{empty}"],
        ["perturb", "--data", "{empty}", "--width", "3", "--height", "2", "--angles", "0,90"],
        ["corrupt", "--data", "{empty}", "--kinds", "brightness", "--severities", "0,1"],
        ["ood", "--id-data", "{data}", "--ood-data", "{empty}"],
        ["ood", "--id-data", "{empty}", "--ood-data", "{data}"],
    ])
    def test_zero_row_input_is_a_validation_error(self, workspace, argv, capsys):
        empty = workspace / "empty_labelled.csv"
        save_csv(Dataset(np.empty((0, 6)), np.empty(0, dtype=np.int64)), empty)
        paths = {"empty": str(empty), "data": str(workspace / "data.csv")}
        argv = [a.format(**paths) for a in argv]
        rc = main(argv + ["--model", str(workspace / "train" / "model.circuit"),
                          "--out", str(workspace / f"empty_{argv[0]}")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: code=4 kind=validation") and "no data rows" in err

    def test_success_is_0(self, workspace):
        rc = main(["eval", "--model", str(workspace / "train" / "model.circuit"),
                   "--data", str(workspace / "data.csv"),
                   "--out", str(workspace / "out_eval")])
        assert rc == 0


class TestRuns:
    def test_tdi_posterior_csv(self, workspace):
        out = workspace / "out_tdi"
        rc = main(["tdi", "--model", str(workspace / "train" / "model.circuit"),
                   "--input", str(workspace / "x.csv"), "--p", "0.1",
                   "--dump-moments", "--out", str(out)])
        assert rc == 0
        lines = (out / "posterior.csv").read_text().strip().splitlines()
        assert lines[0] == "sample_id,class,mean,variance,std,entropy,normalized_entropy"
        assert len(lines) == 1 + 8 * 3
        assert (out / "moments_nodes.csv").exists()
        assert (out / "config.snapshot").exists()

    def test_tdi_matches_per_row_posterior_moments(self, workspace):
        model = workspace / "train" / "model.circuit"
        out = workspace / "tdi_rows"
        assert main(["tdi", "--model", str(model), "--input", str(workspace / "data.csv"),
                     "--p", "0.2", "--out", str(out)]) == 0
        got = np.loadtxt(out / "posterior.csv", delimiter=",", skiprows=1)
        circuit, X = load(model), load_csv(workspace / "data.csv").features
        want = []
        for r, x in enumerate(X):
            pm = posterior_moments(circuit, x, DropoutConfig.with_p(0.2))
            for c in range(circuit.num_classes):
                want.append([r, c, pm.mean[c], pm.variance[c], pm.std[c], pm.entropy,
                             pm.normalized_entropy])
        np.testing.assert_allclose(got, np.array(want), rtol=1e-12, atol=0.0)

    def test_tdi_rat_exact_dumps_the_class_root_covariances(self, workspace):
        model = workspace / "build" / "model.circuit"
        out = workspace / "tdi_exact"
        assert main(["tdi", "--model", str(model), "--input", str(workspace / "x.csv"),
                     "--strategy", "rat_exact", "--p", "0.2", "--dump-moments",
                     "--out", str(out)]) == 0
        circuit, X = load(model), load_csv(workspace / "x.csv").features
        post = np.loadtxt(out / "posterior.csv", delimiter=",", skiprows=1)
        sums = post[:, 2].reshape(len(X), circuit.num_classes).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, rtol=0.0, atol=1e-9)
        dumped = {(int(a), int(b)): c for a, b, c in
                  np.loadtxt(out / "moments_cov.csv", delimiter=",", skiprows=1)}
        frame = tdi_pass(circuit, X[0], DropoutConfig.with_p(0.2, CovarianceStrategy.RAT_EXACT))
        roots = circuit.roots
        pairs = [(a, b) for i, a in enumerate(roots) for b in roots[i + 1 :]]
        want = [frame.pair_cov(a, b).to_float() for a, b in pairs]
        assert any(want)  # the class roots share their products
        np.testing.assert_allclose([dumped[pair] for pair in pairs], want, rtol=1e-12, atol=0.0)

    def test_zero_row_input(self, workspace, capsys):
        model = str(workspace / "train" / "model.circuit")
        empty = workspace / "empty.csv"
        save_csv(Dataset(np.empty((0, 6))), empty)
        out = workspace / "tdi_empty"
        assert main(["tdi", "--model", model, "--input", str(empty), "--out", str(out)]) == 0
        assert (out / "posterior.csv").read_text().count("\n") == 1
        assert main(["mcd", "--model", model, "--input", str(empty),
                     "--out", str(workspace / "mcd_empty")]) == 0
        capsys.readouterr()
        # the moment dump is of the first row, which does not exist
        assert main(["tdi", "--model", model, "--input", str(empty), "--dump-moments",
                     "--out", str(workspace / "tdi_empty_dump")]) == 4
        assert capsys.readouterr().err.startswith("error: code=4")

    def test_replay_switches_a_snapshot_flag_off(self, workspace):
        first = workspace / "dump_on"
        assert main(["tdi", "--model", str(workspace / "train" / "model.circuit"),
                     "--input", str(workspace / "x.csv"), "--dump-moments",
                     "--out", str(first)]) == 0
        assert "dump_moments = True" in (first / "config.snapshot").read_text()
        replay = workspace / "dump_off"
        assert main(["tdi", "--config", str(first / "config.snapshot"), "--no-dump-moments",
                     "--out", str(replay)]) == 0
        assert (replay / "posterior.csv").exists()
        assert not (replay / "moments_nodes.csv").exists()
        assert not (replay / "moments_cov.csv").exists()
        assert "dump_moments = False" in (replay / "config.snapshot").read_text()

    def test_snapshot_reruns_identically(self, workspace):
        out1 = workspace / "snap1"
        rc = main(["tdi", "--model", str(workspace / "train" / "model.circuit"),
                   "--input", str(workspace / "x.csv"), "--p", "0.15",
                   "--out", str(out1)])
        assert rc == 0
        out2 = workspace / "snap2"
        rc = main(["tdi", "--config", str(out1 / "config.snapshot"),
                   "--out", str(out2)])
        assert rc == 0
        assert (out1 / "posterior.csv").read_text() == (out2 / "posterior.csv").read_text()
        # a snapshot written before --threads was removed still replays
        old = workspace / "snap_threads.snapshot"
        old.write_text((out1 / "config.snapshot").read_text() + "threads = 4\n")
        out3 = workspace / "snap3"
        assert main(["tdi", "--config", str(old), "--out", str(out3)]) == 0
        assert (out1 / "posterior.csv").read_text() == (out3 / "posterior.csv").read_text()
        # and so does one written before --taylor was removed, under SIMPLE
        old = workspace / "snap_taylor.snapshot"
        old.write_text((out1 / "config.snapshot").read_text() + "taylor = extended\n")
        out4 = workspace / "snap4"
        assert main(["tdi", "--config", str(old), "--out", str(out4)]) == 0
        assert (out1 / "posterior.csv").read_text() == (out4 / "posterior.csv").read_text()

    @pytest.mark.parametrize("key, value", [("strategy", "cauchy")])
    def test_replay_rejects_a_snapshot_value_outside_choices(self, workspace, key, value,
                                                             capsys):
        model, x = str(workspace / "train" / "model.circuit"), str(workspace / "x.csv")
        first = workspace / f"choices_{key}"
        assert main(["tdi", "--model", model, "--input", x, "--out", str(first)]) == 0
        text = (first / "config.snapshot").read_text()
        assert f"{key} = " in text
        bad = workspace / f"bad_{key}.snapshot"
        bad.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} = ") else line
                               for line in text.splitlines(keepends=True)))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["tdi", "--config", str(bad), "--out", str(workspace / f"replay_{key}")])
        assert exc.value.code == 2
        assert f"invalid choice: '{value}'" in capsys.readouterr().err
        # an explicit flag replaces the snapshot's value before it is checked
        fixed = workspace / f"replay_{key}_fixed"
        good = {"strategy": "tree_zero"}[key]
        assert main(["tdi", "--config", str(bad), f"--{key}", good, "--out", str(fixed)]) == 0
        assert (fixed / "posterior.csv").read_text() == (first / "posterior.csv").read_text()

    def test_explicit_short_flags_win_over_the_snapshot(self, workspace):
        snapshot = str(workspace / "build" / "config.snapshot")  # -S 2 ... --seed 5
        out = workspace / "rebuild_s3"
        assert main(["build", "--config", snapshot, "-S", "3", "-I3", "--seed=6",
                     "--out", str(out)]) == 0
        lines = (out / "config.snapshot").read_text().splitlines()
        assert {"S = 3", "I = 3", "D = 2", "R = 1", "seed = 6"} <= set(lines)
        direct = workspace / "build_s3"
        assert main(["build", "-S", "3", "-I", "3", "-D", "2", "-R", "1", "--classes", "3",
                     "--variables", "6", "--seed", "6", "--out", str(direct)]) == 0
        assert ((out / "model.circuit").read_bytes()
                == (direct / "model.circuit").read_bytes())

    def test_train_writes_model_history_and_snapshot(self, workspace):
        assert sorted(p.name for p in (workspace / "train").iterdir()) == [
            "config.snapshot", "history.csv", "model.circuit"]
        history = (workspace / "train" / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,accuracy" and len(history) == 1 + 6

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_train_without_epochs_is_an_error_line(self, workspace, epochs, capsys):
        rc = main(["train", "--model", str(workspace / "train" / "model.circuit"),
                   "--data", str(workspace / "data.csv"), "--epochs", epochs,
                   "--out", str(workspace / f"train_epochs{epochs}")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: code=1 kind=error") and "epochs" in err

    def test_ood_p_zero_matches_plain(self, workspace):
        model = str(workspace / "train" / "model.circuit")
        data = str(workspace / "data.csv")
        out_t = workspace / "ood_tdi0"
        out_p = workspace / "ood_plain"
        assert main(["ood", "--model", model, "--id-data", data, "--ood-data", data,
                     "--method", "tdi", "--p", "0.0", "--out", str(out_t)]) == 0
        assert main(["ood", "--model", model, "--id-data", data, "--ood-data", data,
                     "--method", "plain", "--json", "--out", str(out_p)]) == 0
        h_t = (out_t / "id_entropy.csv").read_text()
        h_p = (out_p / "id_entropy.csv").read_text()
        a = np.array([float(l.split(",")[1]) for l in h_t.splitlines()[1:]])
        b = np.array([float(l.split(",")[1]) for l in h_p.splitlines()[1:]])
        np.testing.assert_allclose(a, b, atol=1e-9)
        assert (out_p / "ood_sweep.json").exists()

    def test_mcd_and_compare(self, workspace):
        model = str(workspace / "train" / "model.circuit")
        out = workspace / "out_mcd"
        assert main(["mcd", "--model", model, "--input", str(workspace / "x.csv"),
                     "--p", "0.1", "-L", "25", "--out", str(out)]) == 0
        assert (out / "mcd.csv").exists()
        out2 = workspace / "out_cmp"
        assert main(["compare", "--model", model, "--input", str(workspace / "x.csv"),
                     "--p", "0.1", "-L", "25", "--out", str(out2)]) == 0
        assert "# timing," in (out2 / "comparison.csv").read_text()

    def test_mcd_rows_use_seed_plus_row(self, workspace):
        model = workspace / "train" / "model.circuit"
        out = workspace / "mcd_rows"
        assert main(["mcd", "--model", str(model), "--input", str(workspace / "x.csv"),
                     "--p", "0.2", "-L", "30", "--seed", "11", "--out", str(out)]) == 0
        circuit, X = load(model), load_csv(workspace / "x.csv").features
        cli = np.loadtxt(out / "mcd.csv", delimiter=",", skiprows=1)
        means, stds = posterior_means(circuit, X, EvalConfig("mcd", p=0.2, mcd_passes=30,
                                                             rng_seed=11))
        report = mcd_vs_tdi_report(circuit, X, 0.2, 30, 11)
        C = circuit.num_classes
        for r, x in enumerate(X):
            res = mcd_infer(circuit, x, McdConfig(0.2, 30, 11 + r))
            rows = cli[r * C : (r + 1) * C]
            np.testing.assert_array_equal(rows[:, 2], res.posterior_sample_mean)
            np.testing.assert_array_equal(rows[:, 3], res.posterior_sample_variance)
            np.testing.assert_array_equal(rows[:, 4], res.sample_mean)
            np.testing.assert_array_equal(rows[:, 5], res.sample_variance)
            np.testing.assert_array_equal(means[r], res.posterior_sample_mean)
            np.testing.assert_array_equal(stds[r], np.sqrt(res.posterior_sample_variance))
            np.testing.assert_array_equal(
                [(t.mcd_mean, t.mcd_var) for t in report.rows[r * C : (r + 1) * C]],
                np.stack([res.posterior_sample_mean, res.posterior_sample_variance], 1))

    def test_perturb_and_corrupt(self, workspace):
        # 2x3 pseudo-images over the 6 blob features, just to exercise plumbing
        model = str(workspace / "train" / "model.circuit")
        data = str(workspace / "data.csv")
        out = workspace / "out_perturb"
        assert main(["perturb", "--model", model, "--data", data,
                     "--width", "3", "--height", "2", "--angles", "0,90",
                     "--method", "plain", "--json", "--out", str(out)]) == 0
        lines = (out / "perturb.csv").read_text().strip().splitlines()
        assert lines[0] == "angle,mean_entropy,accuracy,mean_std"
        assert len(lines) == 3
        out2 = workspace / "out_corrupt"
        assert main(["corrupt", "--model", model, "--data", data,
                     "--kinds", "brightness", "--severities", "0,1,2",
                     "--method", "tdi", "--json", "--out", str(out2)]) == 0
        assert len((out2 / "corrupt.csv").read_text().strip().splitlines()) == 4
        # the JSON document holds the CSV's points, a corruption key as [kind, severity]
        for path, keys in ((out / "perturb.json", [0.0, 90.0]),
                           (out2 / "corrupt.json", [["brightness", s] for s in range(3)])):
            points = json.loads(path.read_text())
            assert [pt["key"] for pt in points] == keys
            rows = np.loadtxt(path.with_suffix(".csv"), delimiter=",", skiprows=1,
                              usecols=(-3, -2, -1))
            assert [[pt["mean_entropy"], pt["accuracy"], pt["mean_std"]]
                    for pt in points] == rows.tolist()

    def test_oracle_subcommand_passes(self, workspace):
        out = workspace / "out_oracle"
        rc = main(["oracle", "--max-edges", "10", "--trials", "30", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        text = (out / "oracle.csv").read_text()
        assert "expectation" in text and "variance" in text

    def test_console_entry_point(self, workspace):
        proc = subprocess.run(
            [sys.executable, "-m", "circuq.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "circuq" in proc.stdout

    def test_runs_without_scipy(self):
        # scipy is a test-only dependency: the package must import and run without it
        code = ("import sys; sys.modules['scipy'] = None; import circuq, circuq.cli; "
                "circuq.cli.main(['--version'])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "circuq" in proc.stdout
