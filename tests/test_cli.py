import dataclasses
import json
import os

import numpy as np
import pytest

from pinv_minres import cli
from pinv_minres.cli import CSV_SCHEMA, EXIT_OK, EXIT_PROPERTY, EXIT_USAGE, main
from pinv_minres.imaging import ImagePlane, read_image, write_image


def run_cli(*argv):
    return main(list(argv))


class TestSynthetic:
    def test_assert_mode_passes(self, tmp_path):
        csv = tmp_path / "syn.csv"
        assert run_cli("synthetic", "--csv", str(csv), "--assert") == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[0] == CSV_SCHEMA
        assert lines[1].startswith("# config: ")
        assert lines[2] == "t,err_plain,err_lifted,kind"
        assert float(lines[-1].split(",")[2]) <= 1e-8

    def test_complex_symmetric_kind(self, tmp_path):
        csv = tmp_path / "syn.csv"
        assert run_cli("synthetic", "--kind", "cs", "--csv", str(csv),
                       "--assert") == EXIT_OK

    def test_trivial_one_dimensional(self, tmp_path):
        csv = tmp_path / "one.csv"
        assert run_cli("synthetic", "--d", "1", "--rank", "1",
                       "--csv", str(csv), "--assert") == EXIT_OK
        assert len(csv.read_text().splitlines()) == 4  # header + one row

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("synthetic", "--seed", "3", "--csv", str(a))
        run_cli("synthetic", "--seed", "3", "--csv", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_property_failure_exit_code(self, tmp_path):
        # one iteration cannot reach the pseudo-inverse solution
        code = run_cli("synthetic", "--max-iter", "1", "--assert",
                       "--csv", str(tmp_path / "x.csv"))
        assert code == EXIT_PROPERTY

    def test_plain_error_gate_fires(self, capsys, monkeypatch):
        # on a singular A the plain final iterate misses A^+ b; a solver
        # whose last iterate is already lifted must fail that check alone
        from pinv_minres.minres_h import lift
        real_solve = cli.solve

        def lifted_solve(*args):
            rep = real_solve(*args)
            rep.trace.iterates[-1] = lift(rep.x, rep.r)
            return rep

        monkeypatch.setattr(cli, "solve", lifted_solve)
        assert run_cli("synthetic", "--assert") == EXIT_PROPERTY
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].endswith("not > 1e-2"), failed


class TestUsageErrors:
    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("no-such-command")
        assert exc.value.code == EXIT_USAGE

    def test_bad_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("synthetic", "--bogus")
        assert exc.value.code == EXIT_USAGE

    def test_io_error_exits_one(self, tmp_path):
        code = run_cli("deblur", "--image", str(tmp_path / "missing.pgm"))
        assert code == EXIT_USAGE

    def test_unwritable_csv_exits_one(self, tmp_path):
        code = run_cli("synthetic", "--csv", str(tmp_path / "no" / "x.csv"))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("synthetic", "--max-iter", "-2"),
        ("synthetic", "--max-iter", "0"),
        ("equiv", "--pairs", "0"),
    ])
    def test_out_of_range_count_exits_one(self, tmp_path, argv):
        csv = tmp_path / "x.csv"
        assert run_cli(*argv, "--csv", str(csv)) == EXIT_USAGE
        assert not csv.exists()

    # one case per range check; {tiny} is a 4 x 4 image, below SSIM's window
    @pytest.mark.parametrize("argv, message", [
        (("synthetic", "--d", "0"), "--d must be in 1..512"),
        (("synthetic", "--d", "5", "--rank", "6"), "--rank must be in 1..d"),
        (("npc", "--rank", "1"), "--rank must be in 2..d"),
        (("equiv", "--rank-m", "0"), "--rank-m must be in 1..d"),
        (("deblur", "--image", "{tiny}"), "the image size must be at least"),
        (("deblur", "--n", "0"), "the image size must be at least"),
        (("deblur", "--n", "-3"), "the image size must be at least"),
        (("deblur", "--n", "16", "--bandwidth", "33"), "bandwidth too large"),
    ], ids=["d", "rank", "npc_rank", "rank_m", "image_size", "phantom_empty",
            "phantom_negative", "bandwidth"])
    def test_out_of_range_dimension_exits_one(self, tmp_path, capsys, argv,
                                              message):
        tiny = tmp_path / "tiny.pgm"
        write_image(ImagePlane(np.zeros((4, 4))), tiny)
        csv = tmp_path / "x.csv"
        argv = [arg.format(tiny=tiny) for arg in argv]
        assert run_cli(*argv, "--csv", str(csv)) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not csv.exists()


class TestOutputContract:
    """One contract for every command: ``main`` writes the CSV, and a
    failing property exits 0 without --assert and 2 with it."""

    # a small run of each command: argv, header, label columns, and whether
    # a property fails on it
    CASES = {
        "synthetic": (("synthetic", "--max-iter", "1"),
                      "t,err_plain,err_lifted,kind", {"kind"}, True),
        "precon-sweep": (("precon-sweep", "--d", "6", "--rank", "4",
                          "--kind", "hermitian"),
                         "family,kind,i,E_x,E_x_hat,E_r,E_P,norm_Mr,norm_AMr",
                         {"family", "kind"}, False),
        "npc": (("npc", "--d", "8", "--rank", "4"),
                "preconditioner,t,lambda_min_T,m_x,x_b,x_mdag_norm,phi,"
                "detected_at", {"preconditioner"}, False),
        # rank(M) > rank(A): the traces part within the last steps before
        # the grade (4.5e-9 at t = 27), reorthogonalised or not
        "equiv": (("equiv", "--d", "30", "--rank", "28", "--rank-m", "30",
                   "--pairs", "1"), "pair,worst_deviation", set(), True),
        "deblur": (("deblur", "--n", "16", "--bandwidth", "3",
                    "--rank-side", "4", "--iters", "5"),
                   "solver,rank_ratio,psnr,ssim", {"solver"}, False),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_csv_and_exit_codes(self, tmp_path, capsys, command):
        argv, header, labels, fails = self.CASES[command]
        argv = argv + ("--outdir", str(tmp_path / "img")) * (
            command == "deblur")
        csv = tmp_path / "out.csv"
        assert run_cli(*argv, "--csv", str(csv)) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out
        lines = csv.read_text().splitlines()
        assert lines[0] == CSV_SCHEMA
        assert lines[1].startswith("# config: ")
        config = json.loads(lines[1][len("# config: "):])
        assert config["cmd"] == command and "seed" in config
        assert lines[2] == header
        columns = header.split(",")
        assert len(lines) > 3
        for line in lines[3:]:
            cells = line.split(",")
            assert len(cells) == len(columns)
            for column, cell in zip(columns, cells):
                if column not in labels:
                    float(cell)
        if fails:
            assert run_cli(*argv, "--assert") == EXIT_PROPERTY
            out = capsys.readouterr().out.splitlines()
            assert any(line.startswith("FAIL ") for line in out)
            assert "all asserted properties hold" not in out

    @pytest.mark.parametrize("value, cell", [
        (0.1, "0.1"), (np.float64(-2.5e-17), "-2.5e-17"), (7, "7"),
        (np.inf, "inf"), (-np.inf, "-inf"), (np.float64(-np.inf), "-inf"),
        (np.nan, "nan"), ("M1", "M1")])
    def test_cells_are_written_as_parsed_back(self, value, cell):
        assert cli._fmt(value) == cell
        if cell != "M1":
            assert np.array_equal(float(cell), value, equal_nan=True)

    def test_equiv_csv_rows_are_the_printed_deviations(self, tmp_path,
                                                      capsys):
        csv = tmp_path / "equiv.csv"
        assert run_cli("equiv", "--pairs", "2", "--csv", str(csv),
                       "--assert") == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ["equiv: 2 pairs agree to 1e-10",
                            "all asserted properties hold"]
        lines = csv.read_text().splitlines()
        config = json.loads(lines[1][len("# config: "):])
        assert set(config) == {"cmd", "d", "rank", "kind", "rank_m", "pairs",
                               "seed"}
        printed = [f"pair {k}: worst trace deviation {float(w):.3e}"
                   for k, w in (line.split(",") for line in lines[3:])]
        assert printed == out[:2]


class TestPreconSweep:
    def test_assert_mode_both_kinds(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        assert run_cli("precon-sweep", "--csv", str(csv),
                       "--assert") == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[2] == "family,kind,i,E_x,E_x_hat,E_r,E_P,norm_Mr,norm_AMr"
        # both families for both kinds, d ranks each
        assert len(lines) == 3 + 4 * 20

    def test_assert_mode_full_rank(self, capsys):
        # on a nonsingular A every full-rank M recovers A^+ b, so the
        # non-range-preserved gate applies only at rank < d
        assert run_cli("precon-sweep", "--d", "6", "--rank", "6",
                       "--kind", "hermitian", "--assert") == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out

    # one case per gate: the row field a broken solver would spoil, its
    # spoiled value, and the failure line that must then be the only kind
    @pytest.mark.parametrize("field,value,message", [
        ("norm_m_r", 1.0, ": ||M r|| = 1.000e+00"),
        ("e_p", 1.0, ": E_P = 1.000e+00"),
        ("norm_am_r", 1.0, ": ||A M r|| = 1.000e+00"),
        ("e_x", 1.0, "/range_preserved: E_x at i=r not ~0"),
        ("e_x", 0.0, "/non_range_preserved: E_x <= 1e-3 at some rank"),
        ("e_x_hat", 1.0, ": E_x_hat = 1.000e+00"),
    ], ids=["M_r", "E_P", "AM_r", "E_x_at_r", "E_x_small", "E_x_hat"])
    def test_each_gate_fires(self, capsys, monkeypatch, field, value, message):
        sweep = cli.run_error_sweep

        def spoiled(*args):
            return [dataclasses.replace(row, **{field: value})
                    for row in sweep(*args)]

        monkeypatch.setattr(cli, "run_error_sweep", spoiled)
        assert run_cli("precon-sweep", "--d", "6", "--rank", "4",
                       "--assert") == EXIT_PROPERTY
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert failed
        assert all(line.endswith(message) for line in failed), failed

    def test_unlifted_iterate_fails(self, capsys, monkeypatch):
        # a plift that returns the plain iterate misses A^+ b at every
        # range-preserving rank >= r (E_x up to 12 there)
        from pinv_minres import precon_factory
        monkeypatch.setattr(precon_factory, "plift", lambda rep: rep.x.copy())
        assert run_cli("precon-sweep", "--assert") == EXIT_PROPERTY
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert failed
        assert all("/range_preserved/" in line and ": E_x_hat = " in line
                   for line in failed), failed


class TestNpc:
    def test_assert_mode(self, tmp_path):
        csv = tmp_path / "npc.csv"
        assert run_cli("npc", "--csv", str(csv), "--assert") == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[2].startswith("preconditioner,t,lambda_min_T")
        names = {line.split(",")[0] for line in lines[3:]}
        assert names == {"M1", "M2", "M3", "M4"}

    def test_early_npc_on_m4_fails(self, capsys, monkeypatch):
        # M4 has no negative curvature to find before termination
        real_attach = cli.attach

        def early(*args):
            cert, monot = real_attach(*args)
            return dataclasses.replace(cert, iteration=1), monot

        monkeypatch.setattr(cli, "attach", early)
        assert run_cli("npc", "--assert") == EXIT_PROPERTY
        assert [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("FAIL")] == [
            "FAIL M4: NPC before the final iteration (t=1)"]

    @pytest.mark.parametrize("check, label", [
        ("check_monotonicity", "monotonicity"),
        ("verify_identities", "identity")])
    def test_violation_gates_fire(self, capsys, monkeypatch, check, label):
        from pinv_minres.npc_monitor import IdentityViolation
        monkeypatch.setattr(cli, check, lambda *args: [
            IdentityViolation(iteration=3, name="spoiled", magnitude=1.0)])
        assert run_cli("npc", "--assert") == EXIT_PROPERTY
        assert [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("FAIL")] == [
            f"FAIL {name}: {label} spoiled at t=3 (magnitude 1.000e+00)"
            for name in ("M1", "M2", "M3", "M4")]

    def test_rank_is_the_rank_of_a(self, tmp_path, monkeypatch):
        built = []
        real_make = cli.make_npc_matrix

        def capture(*args):
            out = real_make(*args)
            built.append(out[0])
            return out

        monkeypatch.setattr(cli, "make_npc_matrix", capture)
        csv = tmp_path / "npc.csv"
        assert run_cli("npc", "--d", "12", "--rank", "7",
                       "--csv", str(csv)) == EXIT_OK
        config = json.loads(csv.read_text().splitlines()[1][len("# config: "):])
        assert len(built) == 1
        assert np.linalg.matrix_rank(built[0]) == config["rank"] == 7


class TestEquiv:
    def test_hermitian_and_cs(self):
        assert run_cli("equiv", "--pairs", "3") == EXIT_OK
        assert run_cli("equiv", "--kind", "cs", "--pairs", "3") == EXIT_OK

    @pytest.mark.parametrize("kind", ["hermitian", "cs"])
    def test_reorthogonalised_past_the_loss_of_orthogonality(self, kind):
        # without reorthogonalisation these traces part at t = 20-25,
        # where the Lanczos vectors lose orthogonality
        assert run_cli("equiv", "--kind", kind, "--d", "60", "--rank", "40",
                       "--rank-m", "30", "--pairs", "1",
                       "--assert") == EXIT_OK


class TestDeblur:
    def test_pipeline_writes_images_and_csv(self, tmp_path):
        csv = tmp_path / "deblur.csv"
        out = tmp_path / "out"
        code = run_cli("deblur", "--n", "32", "--bandwidth", "7",
                       "--rank-side", "8", "--iters", "10",
                       "--csv", str(csv), "--outdir", str(out))
        assert code == EXIT_OK
        for name in ("original", "blurred", "noisy", "minres",
                     "minres_lifted", "lsqr", "tsvd", "s1", "s1_lifted",
                     "s2", "s2_lifted"):
            path = out / f"{name}.pgm"
            assert path.exists()
            assert read_image(path).size == 32
        lines = csv.read_text().splitlines()
        assert lines[2] == "solver,rank_ratio,psnr,ssim"
        assert len(lines) == 3 + 9

    def test_deterministic_csv(self, tmp_path):
        args = ["deblur", "--n", "32", "--bandwidth", "7", "--rank-side",
                "8", "--iters", "5", "--seed", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*args, "--csv", str(a), "--outdir", str(tmp_path / "o1"))
        run_cli(*args, "--csv", str(b), "--outdir", str(tmp_path / "o2"))
        assert a.read_bytes() == b.read_bytes()

    def test_identity_blur_reproduces_input(self, tmp_path):
        # bandwidth 1 makes Z the identity; with zero noise every pixel
        # survives the round trip exactly
        out = tmp_path / "out"
        code = run_cli("deblur", "--n", "16", "--bandwidth", "1",
                       "--sigma-noise", "0", "--iters", "5",
                       "--rank-side", "4", "--outdir", str(out),
                       "--csv", str(tmp_path / "ident.csv"))
        assert code == EXIT_OK
        orig = read_image(out / "original.pgm")
        rec = read_image(out / "minres.pgm")
        assert np.abs(orig.samples - rec.samples).max() <= 1.0 / 255.0

    def test_user_supplied_image(self, tmp_path, rng):
        from pinv_minres.imaging import ImagePlane, write_image
        src = tmp_path / "src.pgm"
        write_image(ImagePlane(rng.uniform(0.2, 0.8, (24, 24))), src)
        out = tmp_path / "out"
        code = run_cli("deblur", "--image", str(src), "--bandwidth", "5",
                       "--rank-side", "6", "--iters", "5",
                       "--outdir", str(out), "--csv", str(tmp_path / "u.csv"))
        assert code == EXIT_OK
        assert read_image(out / "minres.pgm").size == 24

    def test_default_experiment_numbers(self, tmp_path, capsys):
        # the n = 64 defaults as the experiment stands; a change to the blur,
        # the solvers or the metrics must change these lines on purpose
        assert run_cli("deblur", "--outdir", str(tmp_path)) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "        minres: PSNR  26.068 dB, SSIM 0.7284",
            " minres_lifted: PSNR  26.936 dB, SSIM 0.8174",
            "          lsqr: PSNR  23.794 dB, SSIM 0.7947",
            "          tsvd: PSNR  16.182 dB, SSIM 0.5438",
            "            s1: PSNR  13.978 dB, SSIM 0.2638",
            "     s1_lifted: PSNR  13.977 dB, SSIM 0.2636",
            "            s2: PSNR   5.533 dB, SSIM 0.0225",
            "     s2_lifted: PSNR   5.487 dB, SSIM 0.0226",
            " blurred_noisy: PSNR   3.977 dB, SSIM 0.2779",
        ]

    def test_declared_symmetry_gate(self, tmp_path, capsys, monkeypatch):
        # the gate probes the blur for the symmetry it declares: the real
        # blur passes it, and one off-diagonal entry doubled fails it
        from pinv_minres.core import KroneckerOperator
        argv = ("deblur", "--n", "16", "--bandwidth", "3", "--rank-side",
                "4", "--iters", "5", "--outdir", str(tmp_path), "--assert")
        line = "FAIL the blur operator is not hermitian"
        run_cli(*argv)
        assert line not in capsys.readouterr().out.splitlines()
        build = cli.deblur_problem

        def skewed(*args):
            problem = build(*args)
            z = problem["z"].copy()
            z[0, 1] *= 2.0
            problem["op"] = KroneckerOperator(z)
            return problem

        monkeypatch.setattr(cli, "deblur_problem", skewed)
        assert run_cli(*argv) == EXIT_PROPERTY
        assert line in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("argv", [
        ("--rank-side", "0"),
        ("--n", "32", "--rank-side", "65"),
        ("--rank-side", "-3"),
        ("--n", "8", "--rank-side", "4"),
    ])
    def test_out_of_range_arguments_exit_one(self, tmp_path, argv):
        out = tmp_path / "out"
        assert run_cli("deblur", *argv, "--outdir", str(out)) == EXIT_USAGE
        assert not out.exists()
