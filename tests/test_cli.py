"""Command-line interface and config-file format."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import manet1d
from manet1d import Boundary, ConfigError, parse_config_text
from manet1d.cli import main, main_script

CFG_21 = """\
# two interior positions, one relay
K = 2
N = 1
p_l = 0.25
p_r = 0.25
phi = 0.5
slots = 2000
burn_in = 100
replications = 2
seed = 3
"""

CFG_44 = """\
K = 4
N = 4
p_l = 0.25
p_r = 0.25
phi = 0.2
"""

CFG_33 = """\
K = 3
N = 3
p_l = 0.25
p_r = 0.25
phi = 0.3
slots = 1500
burn_in = 50
replications = 2
"""


def write_config(tmp_path, text, name="net.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_capped_cli(*argv):
    """Run the CLI in a child process under a 3 GiB address-space cap.
    Returns the completed process and the child's own peak RSS in KiB,
    read from VmHWM: ru_maxrss would survive the exec and report the
    peak of the process that spawned the child."""
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from manet1d.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as fh:\n"
        "    hwm = [l.split()[1] for l in fh if l.startswith('VmHWM:')][0]\n"
        "sys.stderr.write(f'vmhwm_kib={hwm}\\n')\n"
        "raise SystemExit(code)\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(manet1d.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    return done, int(done.stderr.splitlines()[-1].removeprefix("vmhwm_kib="))


class TestConfigText:
    def test_full_round_trip(self):
        cfg = parse_config_text(
            """
            K = 3
            N = 2          # relays
            m = 2
            rates = [1.0, 0.5]
            p_l = 0.1
            p_r = 0.3
            boundary = wrap_around
            phi = 0.25
            seed = 9
            slots = 50000
            burn_in = 500
            replications = 4
            """
        )
        p = cfg.params
        assert (p.K, p.N, p.m) == (3, 2, 2)
        assert p.rates == (1.0, 0.5)
        assert (p.p_l, p.p_r, p.phi) == (0.1, 0.3, 0.25)
        assert p.boundary is Boundary.WRAP
        assert (cfg.seed, cfg.slots, cfg.burn_in, cfg.replications) == (
            9, 50000, 500, 4,
        )

    def test_defaults(self):
        cfg = parse_config_text("K=2\nN=1\np_l=0.25\np_r=0.25\nphi=0\n")
        assert cfg.params.m == 2
        assert cfg.params.rates == (1.0, 0.5)
        assert cfg.params.boundary is Boundary.STUCK
        assert cfg.slots == 10**6
        assert cfg.burn_in == 10**4
        assert cfg.seed == 0
        assert cfg.replications == 5
        assert cfg.policy == "route-break"

    @pytest.mark.parametrize(
        "alias", ["stuck", "Stuck", "stuck_at_boundary", "stuckatboundary"]
    )
    def test_stuck_aliases(self, alias):
        text = f"K=2\nN=1\np_l=0.2\np_r=0.2\nphi=0\nboundary={alias}\n"
        assert parse_config_text(text).params.boundary is Boundary.STUCK

    @pytest.mark.parametrize("alias", ["wrap", "WRAP", "wraparound", "wrap_around"])
    def test_wrap_aliases(self, alias):
        text = f"K=2\nN=1\np_l=0.2\np_r=0.2\nphi=0\nboundary={alias}\n"
        assert parse_config_text(text).params.boundary is Boundary.WRAP

    def test_rates_accept_bare_list(self):
        text = "K=2\nN=1\nm=3\nrates=1 0.6 0.2\np_l=0.2\np_r=0.2\nphi=0\n"
        assert parse_config_text(text).params.rates == (1.0, 0.6, 0.2)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("K=2\nN=1\np_l=0.2\np_r=0.2\nphi=0\ncolor=red\n", "unknown key"),
            ("K=2\nK=3\nN=1\np_l=0.2\np_r=0.2\nphi=0\n", "duplicate key"),
            ("K=2\nN=1\n", "missing required keys: p_l, p_r, phi"),
            ("K 2\n", "expected 'key = value'"),
            ("K=2.5\nN=1\np_l=0.2\np_r=0.2\nphi=0\n", "must be an integer"),
            ("K=2\nN=1\np_l=x\np_r=0.2\nphi=0\n", "must be a number"),
            ("K=2\nN=1\np_l=0.2\np_r=0.2\nphi=0\nboundary=torus\n", "boundary"),
            ("K=2\nN=1\nm=3\np_l=0.2\np_r=0.2\nphi=0\n", "rates must be given"),
            ("K=0\nN=1\np_l=0.2\np_r=0.2\nphi=0\n", "K must be"),
            ("K=2\nN=1\np_l=0.8\np_r=0.8\nphi=0\n", "p_l + p_r"),
        ],
    )
    def test_rejects_bad_text(self, text, fragment):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert fragment in str(exc.value)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config file"):
            from manet1d import parse_config_file

            parse_config_file("/nonexistent/net.cfg")


class TestAnalyze:
    def test_route_census(self, tmp_path, capsys):
        path = write_config(tmp_path, CFG_44)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "routes: 8 non-null + null" in out
        route_lines = [l for l in out.splitlines() if l.startswith("  (S")]
        assert len(route_lines) == 8
        assert "configurations: 35" in out

    def test_expected_raw_line(self, tmp_path, capsys):
        path = write_config(tmp_path, CFG_21)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "E[raw throughput] = 0.3333333333" in out
        assert out.startswith("K=2 N=1 m=2 rates=1,0.5 ")
        assert "boundary=stuck phi=0.5" in out.splitlines()[0]
        assert "stationary node distribution: 0.5 0.5" in out

    def test_schedules_shown(self, tmp_path, capsys):
        path = write_config(tmp_path, CFG_21)
        main(["analyze", path])
        out = capsys.readouterr().out
        assert "(S,1,D)  f=0.3333333333  schedule:" in out


class TestSolve:
    def test_policy_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, CFG_33)
        out_csv = tmp_path / "policy.csv"
        assert main(["solve", path, "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "gain = " in out
        assert "iterations = " in out
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "state,config,held_route,action,bias"
        assert len(lines) == 1 + 10 * 6  # configurations x routes
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[3] in ("discover", "continue")
        actions = {line.split(",")[3] for line in lines[1:]}
        assert actions <= {"discover", "continue"}
        assert any(line.split(",")[2] == "null" for line in lines[1:])

    def test_size_guard_exit_code(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "K=6\nN=40\np_l=0.25\np_r=0.25\nphi=0.1\n"
        )
        assert main(["solve", path]) == 2
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_route_break(self, tmp_path, capsys):
        path = write_config(tmp_path, CFG_21)
        assert main(["eval", path, "--policy", "route-break"]) == 0
        out = capsys.readouterr().out
        assert "policy = route-break" in out
        assert "threshold = 0" in out
        assert "exact gain = 0.2916666667" in out  # 7/24
        assert "discovery frequency = " in out

    def test_optimal_has_no_threshold_line(self, tmp_path, capsys):
        path = write_config(tmp_path, CFG_21)
        assert main(["eval", path, "--policy", "optimal"]) == 0
        out = capsys.readouterr().out
        assert "threshold" not in out

    def test_bad_policy(self, tmp_path, capsys):
        path = write_config(tmp_path, CFG_21)
        assert main(["eval", path, "--policy", "greedy"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown policy spec" in err


class TestSimulateCommand:
    def test_run_and_determinism(self, tmp_path, capsys):
        path = write_config(tmp_path, CFG_21)
        assert main(["simulate", path, "--policy", "rule:2"]) == 0
        first = capsys.readouterr().out
        assert "policy = rule:2" in first
        assert "mean reward = " in first
        assert "stderr = " in first
        assert "slots=2000 burn_in=100 seed=3 replications=2" in first
        main(["simulate", path, "--policy", "rule:2"])
        assert capsys.readouterr().out == first

    def test_observe_prev(self, tmp_path, capsys):
        path = write_config(tmp_path, CFG_21)
        assert main(["simulate", path, "--policy", "fixed:0.2",
                     "--observe", "prev"]) == 0
        assert "policy = fixed:0.2@prev" in capsys.readouterr().out

    def test_observe_prev_rejects_optimal(self, tmp_path, capsys):
        path = write_config(tmp_path, CFG_21)
        assert main(["simulate", path, "--policy", "optimal",
                     "--observe", "prev"]) == 1
        assert "threshold" in capsys.readouterr().err


class TestSweep:
    def test_stdout_table(self, tmp_path, capsys):
        path = write_config(tmp_path, CFG_21)
        code = main(["sweep", path, "--phis", "0.5", "--policies", "rule:2",
                     "--out", "-"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "phi,policy,gain,stderr,threshold,discovery_frequency"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "0.5"
        assert fields[1] == "rule:2"
        assert fields[3] == ""  # exact rows carry no stderr

    def test_file_output_bytes(self, tmp_path, capsys):
        path = write_config(tmp_path, CFG_21)
        out_csv = tmp_path / "sweep.csv"
        code = main(["sweep", path, "--phis", "0.2,0.5",
                     "--policies", "optimal,route-break", "--out", str(out_csv)])
        assert code == 0
        assert "sweep written to" in capsys.readouterr().out
        raw = out_csv.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert len(lines) == 1 + 4
        opt_row = lines[1].split(",")
        assert opt_row[1] == "optimal"
        assert opt_row[4] == ""  # optimal has no threshold column value
        rerun = tmp_path / "sweep2.csv"
        main(["sweep", path, "--phis", "0.2,0.5",
              "--policies", "optimal,route-break", "--out", str(rerun)])
        capsys.readouterr()
        assert rerun.read_bytes() == raw

    @pytest.mark.parametrize(
        "argv_extra",
        [
            ["--phis", "1.5", "--policies", "rule:2"],
            ["--phis", "abc", "--policies", "rule:2"],
            ["--phis", "", "--policies", "rule:2"],
            ["--phis", "0.5", "--policies", ""],
            ["--phis", "0.5", "--policies", "greedy"],
        ],
    )
    def test_bad_arguments(self, tmp_path, capsys, argv_extra):
        path = write_config(tmp_path, CFG_21)
        assert main(["sweep", path, "--out", "-"] + argv_extra) == 1
        assert "error:" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        assert main(["analyze", "/nonexistent/net.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot read config file" in err

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("K=2\nN=1\np_l=0.2\np_r=0.2\nphi=0\njunk=1\n", "unknown key"),
            ("K=2\nN=1\np_l=0.2\np_r=0.2\nphi=2\n", "phi"),
            (
                "K=2\nN=1\np_l=0.2\np_r=0.2\nphi=0\nslots=100\nburn_in=100\n",
                "must exceed",
            ),
        ],
    )
    def test_bad_config_exits_1(self, tmp_path, capsys, text, fragment):
        path = write_config(tmp_path, text)
        assert main(["analyze", path]) == 1
        assert fragment in capsys.readouterr().err

    def test_stuck_drift_warning_on_stderr(self, tmp_path, capsys):
        # a drifting stuck walk is handled by the multinomial occupancy
        # law with the node's geometric stationary law: no warning, and
        # E[raw] is the kernel's value, not the uniform law's 0.1406
        path = write_config(
            tmp_path, "K=4\nN=3\np_l=0.1\np_r=0.4\nphi=0\n"
        )
        assert main(["analyze", path]) == 0
        captured = capsys.readouterr()
        assert "E[raw throughput] = 0.0297789538" in captured.out
        assert captured.err == ""

    def test_no_warning_for_wrap_asymmetric(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "K=2\nN=1\np_l=0.1\np_r=0.3\nphi=0\nboundary=wrap\n"
        )
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().err == ""

    FROZEN = "K=3\nN=2\np_l=0\np_r=0\nphi=0.2\n"

    @pytest.mark.parametrize(
        "text, command, fragment",
        [
            (FROZEN, ["analyze"], "node kernel has 3 closed classes"),
            (FROZEN, ["solve"], "configuration chain is reducible"),
            (FROZEN, ["eval", "--policy", "always"], "closed classes"),
            (FROZEN, ["simulate", "--policy", "rule:2"], "node kernel has 3 closed classes"),
            (
                "K=5\nN=4\np_l=0.3\np_r=0.3\nphi=0\n",
                ["sweep", "--phis", "0.5", "--policies", "never", "--out", "-"],
                "policy induces 14 closed classes",
            ),
        ],
        ids=["analyze", "solve", "eval", "simulate", "sweep"],
    )
    def test_reducible_chain_exits_3(self, tmp_path, capsys, text, command, fragment):
        path = write_config(tmp_path, text)
        argv = command[:1] + [path] + command[1:]
        if command[0] == "solve":
            argv += ["--out", str(tmp_path / "policy.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert fragment in err
        assert "Traceback" not in err

    def test_solver_that_does_not_converge_exits_4(self, tmp_path, capsys):
        # a wrap walk this close to periodic never settles value iteration
        path = write_config(
            tmp_path,
            "K=4\nN=2\np_l=0.4999999999999\np_r=0.4999999999999\n"
            "boundary=wrap\nphi=0.2\n",
        )
        assert main(["solve", path, "--out", str(tmp_path / "policy.csv")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: value iteration did not reach span")
        assert "Traceback" not in err

    def test_state_space_guard_exits_2_before_allocating(self, tmp_path):
        # 705,432 configurations x 1,706 routes would need about 9 GiB of
        # (C, R) arrays; the child runs under a 3 GiB address-space cap so
        # that a missing guard fails with MemoryError instead
        path = write_config(
            tmp_path, "K=12\nN=11\nm=3\nrates=1,0.5,0.25\np_l=0.3\np_r=0.3\nphi=0\n"
        )
        done, peak_kib = run_capped_cli("analyze", path)
        err = done.stderr.splitlines()
        assert done.returncode == 2, done.stderr
        assert err[0].startswith("error: 705432 configurations x 1706 routes")
        assert "state-space size limit" in err[0]
        assert peak_kib < 300 * 1024

    def test_state_limit_trips_before_the_state_space_is_built(self, tmp_path):
        # 12,376 configurations x 1,706 routes is under the state-space
        # size limit, so building the (C, R) arrays first would take about
        # 190 MiB before the decision-process limit refused them
        path = write_config(
            tmp_path, "K=12\nN=6\nm=3\nrates=1,0.5,0.25\np_l=0.3\np_r=0.3\nphi=0\n"
        )
        done, peak_kib = run_capped_cli("solve", path, "--out", str(tmp_path / "p.csv"))
        assert done.returncode == 2, done.stderr
        assert done.stderr.splitlines()[0] == (
            "error: 12376 configurations x 1706 routes = 21113456 states "
            "exceed the state limit 200000"
        )
        assert peak_kib < 150 * 1024

    def test_usage_error_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main([])
        with pytest.raises(SystemExit):
            main(["frobnicate", "x.cfg"])


class TestMainScript:
    def test_wraps_exit_code(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, CFG_21)
        monkeypatch.setattr(sys, "argv", ["manet1d", "analyze", path])
        with pytest.raises(SystemExit) as exc:
            main_script()
        assert exc.value.code == 0

    def test_wraps_failure_code(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["manet1d", "analyze", "/missing.cfg"])
        with pytest.raises(SystemExit) as exc:
            main_script()
        assert exc.value.code == 1

    def test_runs_as_module(self, tmp_path):
        path = write_config(tmp_path, CFG_21)
        env = dict(os.environ)
        src = str(Path(manet1d.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "manet1d.cli", "analyze", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("K=2 N=1 ")
        assert "E[raw throughput] = " in done.stdout
        done = subprocess.run(
            [sys.executable, "-m", "manet1d.cli", "analyze", str(tmp_path / "missing.cfg")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error:")
