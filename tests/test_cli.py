import csv
import dataclasses
import importlib
import os

import numpy as np
import pytest
import yaml

import nlspec as nl
from nlspec import cli

flow_module = importlib.import_module("nlspec.flow")


def write_config(path, cfg):
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return str(path)


def flow_config(out_dir, **overrides):
    cfg = {
        "functional": {"kind": "graph_tv"},
        "domain": {"grid": {"width": 6}},
        "input": {"generator": {"name": "gaussian", "seed": 4}},
        "command": "flow",
        "options": {"tau": 0.05, "max_steps": 400},
        "output_dir": str(out_dir),
        "seed": 4,
    }
    cfg.update(overrides)
    return cfg


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml", {
            "functional": {"kind": "l1", "n": 2},
            "command": "flow",
            "banana": 1,
        })
        rc = cli.main(["run", p])
        assert rc == 1
        assert "banana" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml", {
            "functional": {"kind": "graph_tv", "weight": 2},
            "domain": {"grid": {"width": 3}},
            "input": {"values": [1, 2, 3]},
            "command": "flow",
        })
        rc = cli.main(["run", p])
        assert rc == 1
        assert "weight" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.yaml")]) == 1

    def test_unknown_command(self, tmp_path):
        p = write_config(tmp_path / "c.yaml", {
            "functional": {"kind": "l1", "n": 2}, "command": "resolve"})
        assert cli.main(["run", p]) == 1

    def test_input_exclusivity(self, tmp_path):
        p = write_config(tmp_path / "c.yaml", {
            "functional": {"kind": "l1", "n": 2},
            "input": {"values": [1, 2], "file": "x"},
            "command": "flow"})
        assert cli.main(["run", p]) == 1


MISSING = object()  # an override that removes the key

# config overrides, environment, and the key the error must name.  The first
# nine ended in a Python traceback (exception noted) before the schema
# converted values.
MALFORMED = {
    "grid_width": ({"domain": {"grid": {"width": "abc"}}}, {},
                   "domain.grid.width"),  # ValueError
    "functional_n": ({"domain": MISSING, "functional": {"kind": "l1", "n": "x"}},
                     {}, "functional.n"),  # ValueError
    "max_steps": ({"options": {"max_steps": "many"}}, {},
                  "options.max_steps"),  # ValueError
    "tau": ({"options": {"tau": "fast"}}, {}, "options.tau"),  # TypeError
    "values": ({"input": {"values": ["a", "b", "c"]}}, {},
               "input.values"),  # ValueError
    "spacing": ({"domain": {"grid": {"width": 4, "spacing": "wide"}}}, {},
                "domain.grid.spacing"),  # ValueError
    "file": ({"input": {"file": "/nonexistent.txt"}}, {},
             "input.file"),  # FileNotFoundError
    "nodes": ({"input": {"generator": {"name": "indicator", "nodes": [7]}}}, {},
              "input.generator.nodes"),  # IndexError on 6 nodes
    "env_seed": ({}, {"NLSPEC_SEED": "x"}, "NLSPEC_SEED"),  # ValueError
    "store_iterates": ({"options": {"store_iterates": "no"}}, {},
                       "'store_iterates'"),  # not an option
    "extinction_tol": ({"options": {"extinction_tol": 1e-3}}, {},
                       "'extinction_tol'"),  # not an option
    "foreign_option": ({"command": "power", "input": MISSING,
                        "options": {"tau": 0.1}}, {}, "'tau'"),  # ignored
    "no_functional": ({"functional": MISSING}, {}, "'functional'"),
    "null_functional": ({"functional": None}, {}, "'functional'"),
    "fractional_node": ({"input": {"generator": {"name": "indicator",
                                                 "nodes": [1.5]}}}, {},
                        "input.generator.nodes"),  # read as node 1
    "negative_node": ({"input": {"generator": {"name": "indicator",
                                               "nodes": [-1]}}}, {},
                      "input.generator.nodes"),  # read as the last node
    "indicator_without_nodes": ({"input": {"generator": {"name": "indicator"}}},
                                {}, "input.generator: missing required key 'nodes'"),
    "empty_indicator_nodes": ({"input": {"generator": {"name": "indicator",
                                                       "nodes": []}}}, {},
                              "input.generator.nodes"),  # the zero signal
    "negative_index": ({"input": {"generator": {"name": "oracle_eigenvector",
                                                "index": -1}}}, {},
                       "input.generator.index"),  # read as the last vector
    "large_index": ({"input": {"generator": {"name": "oracle_eigenvector",
                                             "index": 6}}}, {},
                    "input.generator.index"),  # IndexError on 6 nodes
    "width_inf": ({"domain": {"grid": {"width": float("inf")}}}, {},
                  "domain.grid.width"),  # OverflowError
    "output_dir_list": ({"output_dir": [1]}, {}, "output_dir"),  # TypeError
    "options_pairs": ({"options": [["tau", 0.1]]}, {}, "options"),
    "fractional_width": ({"domain": {"grid": {"width": 4.7}}}, {},
                         "domain.grid.width"),  # built a width-4 grid
    "bool_height": ({"domain": {"grid": {"width": 6, "height": True}}}, {},
                    "domain.grid.height"),  # read as 1
    "negative_generator_seed": ({"input": {"generator": {"name": "gaussian",
                                                         "seed": -1}}}, {},
                                "input.generator.seed"),  # ValueError
    "negative_seed": ({"input": {"generator": {"name": "gaussian"}},
                       "seed": -1}, {}, "seed:"),  # ValueError
    "domain_without_edges": ({"domain": {"n": 3}}, {},
                             "domain: missing required key 'edges'"),
    "no_input": ({"input": MISSING}, {}, "missing required key 'input'"),
    "unknown_generator": ({"input": {"generator": {"name": "poisson"}}}, {},
                          "'poisson'"),
    "oracle_without_matrix": ({"command": "oracle", "domain": MISSING,
                               "functional": {"kind": "l1", "n": 3},
                               "input": MISSING, "options": MISSING}, {},
                              "not l1"),
    # functional keys the kind does not read: J was computed without them
    "graph_tv_p": ({"functional": {"kind": "graph_tv", "p": 3.0}}, {},
                   "functional: unknown key 'p'"),  # J at p = 1
    "graph_tv_node_measure": ({"functional": {"kind": "graph_tv",
                                              "node_measure": [5] * 6}}, {},
                              "functional: unknown key 'node_measure'"),
    "lipschitz_n": ({"functional": {"kind": "lipschitz_sup", "n": 6}}, {},
                    "functional: unknown key 'n'"),
    "l1_on_domain_node_measure": ({"functional": {"kind": "l1",
                                                  "node_measure": [5] * 6}}, {},
                                  "functional: unknown key 'node_measure'"),
    "l1_p": ({"domain": MISSING, "functional": {"kind": "l1", "n": 6,
                                                "p": 2.0}}, {},
             "functional: unknown key 'p'"),
    "dirichlet_p_matrix": ({"functional": {"kind": "dirichlet_p", "p": 2.0,
                                           "matrix": [[1.0]]}}, {},
                           "functional: unknown key 'matrix'"),
    "quadratic_form_n": ({"domain": MISSING,
                          "functional": {"kind": "quadratic_form",
                                         "matrix": [[1.0]], "n": 1}}, {},
                         "functional: unknown key 'n'"),
    # the rows below exit 0 without a word when every key is accepted and
    # the run drops those it does not read
    "quadratic_form_node_measure_on_domain": (
        {"functional": {"kind": "quadratic_form", "matrix": np.eye(6).tolist(),
                        "node_measure": [1, 2, 3, 4, 5, 6]}}, {},
        "functional: unknown key 'node_measure'"),  # J on another measure
    "grid_with_node_measure": ({"domain": {"grid": {"width": 6},
                                           "node_measure": [5] * 6}}, {},
                               "domain: unknown key 'node_measure'"),
    "grid_with_boundary": ({"domain": {"grid": {"width": 6}, "boundary": [0]}},
                           {}, "domain: unknown key 'boundary'"),
    "grid_with_n": ({"domain": {"grid": {"width": 6}, "n": 7}}, {},
                    "domain: unknown key 'n'"),
    "power_input": ({"command": "power", "options": {"restarts": 1}}, {},
                    "config: unknown key 'input'"),
    "oracle_input": ({"command": "oracle", "options": MISSING}, {},
                     "config: unknown key 'input'"),
    "gaussian_nodes": ({"input": {"generator": {"name": "gaussian",
                                                "nodes": [1]}}}, {},
                       "input.generator: unknown key 'nodes'"),
    "gaussian_index": ({"input": {"generator": {"name": "gaussian",
                                                "index": 2}}}, {},
                       "input.generator: unknown key 'index'"),
    "indicator_seed": ({"input": {"generator": {"name": "indicator",
                                                "nodes": [1], "seed": 3}}}, {},
                       "input.generator: unknown key 'seed'"),
    # a misspelt key is named ahead of the required key it replaced
    "kind_typo": ({"functional": {"knid": "graph_tv"}}, {},
                  "functional: unknown key 'knid'"),
    "edges_typo": ({"domain": {"n": 3, "edgs": [[0, 1, 1.0], [1, 2, 1.0]]}}, {},
                   "domain: unknown key 'edgs'"),
    "generator_name_typo": ({"input": {"generator": {"nmae": "gaussian"}}}, {},
                            "input.generator: unknown key 'nmae'"),
    "command_typo": ({"command": "flwo"}, {}, "command: unknown command 'flwo'"),
    "kind_unknown": ({"functional": {"kind": "tv"}}, {},
                     "functional.kind: unknown kind 'tv'"),
}


class TestFrontDoor:
    def _run(self, tmp_path, capsys, **overrides):
        cfg = flow_config(tmp_path / "out", **overrides)
        cfg = {k: v for k, v in cfg.items() if v is not MISSING}
        rc = cli.main(["run", write_config(tmp_path / "c.yaml", cfg)])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_config_is_one_config_error(self, name, tmp_path,
                                                  monkeypatch, capsys):
        overrides, env, key = MALFORMED[name]
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        rc, err = self._run(tmp_path, capsys, **overrides)
        assert rc == 1
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert key in err and "Traceback" not in err

    def test_invalid_yaml_is_one_config_error_line(self, tmp_path, capsys):
        # the YAML parser's message spans three lines
        cfg = tmp_path / "c.yaml"
        cfg.write_text("functional: {kind: l1\n")
        rc = cli.main(["run", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("config error: config is not valid YAML")
        assert len(err.splitlines()) == 1 and "line 2" in err

    @pytest.mark.parametrize("overrides, words", [
        ({"domain": MISSING, "functional": {"kind": "l1", "n": -1}}, ""),
        ({"command": "power", "input": MISSING,
          "options": {"max_iter": 0, "restarts": 1}}, "max_iter"),
        ({"functional": {"kind": "dirichlet_p", "p": float("nan")}}, "p"),
        ({"domain": {"grid": {"width": 4, "height": 4}},
          "functional": {"kind": "quadratic_form",
                         "matrix": np.eye(3).tolist()}}, "3 rows, for 16 nodes"),
        ({"options": {"time_horizon": 0}}, "time horizon"),
        ({"domain": {"grid": {"width": 6, "boundary_mode": "dirichlet"}},
          "functional": {"kind": "l1"}}, "l1 has no Dirichlet nodes"),
        ({"domain": {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
                     "boundary": [0]},
          "functional": {"kind": "quadratic_form", "matrix": np.eye(3).tolist()},
          "input": {"values": [0.0, 1.0, 2.0]}}, "quadratic_form has no Dirichlet"),
        ({"command": "power", "input": MISSING,
          "options": {"tol": -1, "max_iter": 300}}, "tolerance"),
        ({"command": "power", "input": MISSING,
          "options": {"tol": float("nan"), "max_iter": 300}}, "tolerance"),
    ], ids=["negative_n", "power_max_iter_0", "dirichlet_p_nan",
            "quadratic_form_size", "time_horizon_0", "l1_dirichlet_grid",
            "quadratic_form_graph_boundary", "power_tol_negative", "power_tol_nan"])
    def test_library_rejection_is_one_error_line(self, overrides, words,
                                                 tmp_path, capsys):
        # a ValueError and a TypeError traceback before the library checked;
        # a matrix of the wrong size, a numpy ValueError without the check
        # in make_functional; a horizon of 0, one step; a power tol of -1 or
        # NaN, every iteration and exit 0 with a warning
        rc, err = self._run(tmp_path, capsys, **overrides)
        assert rc == 1 and err.startswith("error:") and words in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("functional, domain", [
        ({"kind": "dirichlet_p", "p": 1.5}, {"grid": {"width": 6}}),
        ({"kind": "l1", "n": 6}, MISSING),
        ({"kind": "linf", "node_measure": [1, 2, 3, 4, 5, 6]}, MISSING),
        ({"kind": "l1"}, {"grid": {"width": 6}}),
        ({"kind": "quadratic_form", "matrix": np.eye(6).tolist(),
          "node_measure": [1, 2, 3, 4, 5, 6]}, MISSING),
    ], ids=["dirichlet_p", "l1_n", "linf_node_measure", "l1_on_domain",
            "quadratic_form_node_measure"])
    def test_functional_keys_the_kind_reads(self, functional, domain,
                                            tmp_path, capsys):
        rc, err = self._run(tmp_path, capsys, functional=functional,
                            domain=domain, options={"max_steps": 3})
        assert rc == 0, err

    def test_store_iterates_is_not_an_option(self, tmp_path, capsys):
        # the flow always keeps its iterates
        rc, err = self._run(tmp_path, capsys, options={"store_iterates": True})
        assert rc == 1 and err.startswith("config error:")
        assert len(err.splitlines()) == 1 and "'store_iterates'" in err

    def test_scalar_node_measure_is_one_error_line(self, tmp_path, capsys):
        rc, err = self._run(tmp_path, capsys, domain=MISSING,
                            functional={"kind": "l1", "node_measure": 2})
        assert rc == 1 and len(err.splitlines()) == 1
        assert "node_measure" in err and "Traceback" not in err

    def test_single_indicator_node(self, tmp_path, capsys):
        gen = {"generator": {"name": "indicator", "nodes": 2}}
        assert self._run(tmp_path, capsys, input=gen)[0] == 0
        with open(tmp_path / "out" / "signals" / "input.txt") as fh:
            assert [float(line.split()[1]) for line in fh] == [0, 0, 1, 0, 0, 0]

    def test_null_reads_as_absent(self, tmp_path, capsys):
        rc, _ = self._run(tmp_path, capsys, options={"tau": None}, seed=None)
        assert rc == 0
        rc, err = self._run(tmp_path, capsys, functional={"kind": None})
        assert rc == 1 and "missing required key 'kind'" in err

    def test_flow_without_options_uses_library_defaults(self, tmp_path):
        out = tmp_path / "out"
        cfg = flow_config(out)
        del cfg["options"]
        assert cli.main(["run", write_config(tmp_path / "c.yaml", cfg)]) == 0
        F = nl.make_functional("graph_tv", nl.build_grid_graph(nl.GridSpec(width=6)))
        trace = nl.run_flow(F, np.random.default_rng(4).standard_normal(6))
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(trace.t)
        for col in ("t", "tau", "J", "dist", "Lambda", "zeta_norm",
                    "profile_residual"):
            got = np.array([float(r[col]) for r in rows])
            assert np.array_equal(got, getattr(trace, col), equal_nan=True), col


class TestFlowRun:
    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "out"
        p = write_config(tmp_path / "c.yaml", flow_config(out))
        assert cli.main(["run", p]) == 0
        assert (out / "manifest.yaml").exists()
        assert (out / "trace.csv").exists()
        assert (out / "signals" / "input.txt").exists()
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "t", "tau", "J", "dist", "Lambda",
                           "zeta_norm", "profile_residual"]
        assert len(rows) > 2

    def test_eigenvector_input_constant_lambda(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "functional": {"kind": "graph_tv"},
            "domain": {"n": 2, "edges": [[0, 1, 1.0]]},
            "input": {"values": [1.0, -1.0]},
            "command": "flow",
            "options": {"tau": 0.1, "prox_tol": 1e-13},
            "output_dir": str(out),
        }
        p = write_config(tmp_path / "c.yaml", cfg)
        assert cli.main(["run", p, "--profile"]) == 0
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        lams = [float(r["Lambda"]) for r in rows if r["Lambda"] != "nan"]
        assert max(lams) - min(lams) <= 1e-8

    def test_determinism_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        pa = write_config(tmp_path / "a.yaml", flow_config(out_a))
        pb = write_config(tmp_path / "b.yaml", flow_config(out_b))
        assert cli.main(["run", pa]) == 0
        assert cli.main(["run", pb]) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert (out_a / "signals" / "u_last.txt").read_bytes() == \
            (out_b / "signals" / "u_last.txt").read_bytes()

    def test_2d_grid_writes_pgm(self, tmp_path):
        out = tmp_path / "out"
        cfg = flow_config(out)
        cfg["domain"] = {"grid": {"width": 4, "height": 3}}
        cfg["input"] = {"generator": {"name": "indicator", "nodes": [5]}}
        p = write_config(tmp_path / "c.yaml", cfg)
        assert cli.main(["run", p]) == 0
        pgm = (out / "signals" / "input.pgm").read_text().splitlines()
        assert pgm[0] == "P2"
        assert pgm[1] == "4 3"
        assert pgm[2] == "65535"
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert "input.pgm" in manifest["signal_scaling"]

    def test_decompose_writes_bands(self, tmp_path):
        out = tmp_path / "out"
        cfg = flow_config(out, command="decompose")
        p = write_config(tmp_path / "c.yaml", cfg)
        assert cli.main(["run", p]) == 0
        bands = os.listdir(out / "bands")
        assert any(b.startswith("band_") for b in bands)
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["resolved"]["reconstruction_residual"] <= 1e-6

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        p = write_config(tmp_path / "c.yaml", flow_config(out))
        monkeypatch.setenv("NLSPEC_SEED", "99")
        assert cli.main(["run", p]) == 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["seed"] == 99
        assert manifest["seed_from_env"] is True


class TestInputs:
    def test_signal_file_round_trips(self, tmp_path):
        """A two-column `index value` file as `write_signal` writes it, here
        a run's own u_last, is a valid input file."""
        first = tmp_path / "first"
        assert cli.main(["run", write_config(tmp_path / "a.yaml",
                                             flow_config(first))]) == 0
        u_last = first / "signals" / "u_last.txt"
        second = tmp_path / "second"
        cfg = flow_config(second, input={"file": str(u_last)})
        assert cli.main(["run", write_config(tmp_path / "b.yaml", cfg)]) == 0
        assert (second / "signals" / "input.txt").read_bytes() == u_last.read_bytes()

    def test_oracle_eigenvector_generator(self, tmp_path):
        """The p = 2 flow of a Laplacian eigenvector keeps its Rayleigh
        quotient, the eigenvalue."""
        out = tmp_path / "out"
        cfg = flow_config(out, functional={"kind": "dirichlet_p", "p": 2.0},
                          input={"generator": {"name": "oracle_eigenvector",
                                               "index": 1}},
                          options={"tau": 0.2, "max_steps": 5, "prox_tol": 1e-12})
        assert cli.main(["run", write_config(tmp_path / "c.yaml", cfg)]) == 0
        g = nl.build_grid_graph(nl.GridSpec(width=6))
        spec = nl.dense_symmetric_eigs(nl.laplacian_matrix(g))
        f = np.loadtxt(out / "signals" / "input.txt")[:, 1]
        assert np.allclose(f, spec.eigenvectors[:, 1], atol=1e-15)
        with open(out / "trace.csv") as fh:
            lams = [float(r["Lambda"]) for r in csv.DictReader(fh)]
        assert np.allclose(lams, spec.eigenvalues[1], rtol=1e-8)


class TestStrict:
    """A step whose prox never converges is kept with a warning; --strict
    turns the warning into exit code 1."""

    @pytest.fixture
    def unconverged(self, monkeypatch):
        prox = flow_module.prox

        def never_converged(*args, **kwargs):
            return dataclasses.replace(prox(*args, **kwargs), converged=False)

        monkeypatch.setattr(flow_module, "prox", never_converged)

    @pytest.mark.parametrize("strict", [True, False])
    def test_unconverged_step(self, tmp_path, unconverged, strict):
        out = tmp_path / "out"
        cfg = flow_config(out, options={"tau": 0.05, "max_steps": 3})
        argv = ["run", write_config(tmp_path / "c.yaml", cfg)]
        assert cli.main(argv + ["--strict"] * strict) == int(strict)
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert len(manifest["warnings"]) == 3
        assert "prox not converged at tau=0.00625" in manifest["warnings"][0]
        assert manifest["resolved"]["tau"] == 0.00625

    def test_recovered_step_is_no_warning(self, tmp_path, monkeypatch):
        """A prox that fails at tau = 0.05 and converges at the halved step
        keeps a certified step: no warning, and --strict exits 0."""
        prox = flow_module.prox

        def fails_at_first_step(F, u, sigma, **kwargs):
            return dataclasses.replace(prox(F, u, sigma, **kwargs),
                                       converged=sigma != 0.05)

        monkeypatch.setattr(flow_module, "prox", fails_at_first_step)
        out = tmp_path / "out"
        cfg = flow_config(out, options={"tau": 0.05, "max_steps": 3})
        assert cli.main(["run", write_config(tmp_path / "c.yaml", cfg), "--strict"]) == 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["warnings"] == []
        assert manifest["resolved"]["tau"] == 0.025

    @pytest.mark.parametrize("strict", [True, False])
    def test_unconverged_eigenpairs(self, tmp_path, strict):
        """Two power iterations leave both pairs unconverged; each is one
        warning naming its row of eigen.csv."""
        out = tmp_path / "out"
        cfg = {"functional": {"kind": "graph_tv"},
               "domain": {"grid": {"width": 8}}, "command": "power",
               "options": {"restarts": 2, "max_iter": 2},
               "output_dir": str(out), "seed": 0}
        argv = ["run", write_config(tmp_path / "c.yaml", cfg)]
        assert cli.main(argv + ["--strict"] * strict) == int(strict)
        with open(out / "eigen.csv") as fh:
            assert [r["converged"] for r in csv.DictReader(fh)] == ["0", "0"]
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["warnings"] == [
            f"eigen.csv row {k}: eigenpair not converged" for k in (0, 1)]


class TestFailedRestarts:
    """A power start that raises a library error is a manifest warning
    naming its start index; when every start fails, the first start's error
    is the run's one error line."""

    def power_config(self, tmp_path):
        cfg = {"functional": {"kind": "graph_tv"},
               "domain": {"grid": {"width": 8}}, "command": "power",
               "options": {"restarts": 3},
               "output_dir": str(tmp_path / "out"), "seed": 0}
        return write_config(tmp_path / "c.yaml", cfg)

    def fail_starts(self, monkeypatch, failing):
        power_method, calls = cli.power.power_method, []

        def wrapped(*args, **kwargs):
            calls.append(None)
            if len(calls) - 1 in failing:
                raise nl.errors.DegenerateEnergy(f"start {len(calls) - 1} vanished")
            return power_method(*args, **kwargs)

        monkeypatch.setattr(cli.power, "power_method", wrapped)

    @pytest.mark.parametrize("strict", [True, False])
    def test_one_failed_restart_is_a_warning(self, tmp_path, monkeypatch,
                                             strict):
        self.fail_starts(monkeypatch, {1})
        argv = ["run", self.power_config(tmp_path)] + ["--strict"] * strict
        assert cli.main(argv) == int(strict)
        out = tmp_path / "out"
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["warnings"] == ["restart 1 failed: start 1 vanished"]
        with open(out / "eigen.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_every_restart_failed_is_one_error_line(self, tmp_path,
                                                    monkeypatch, capsys):
        self.fail_starts(monkeypatch, {0, 1, 2})
        assert cli.main(["run", self.power_config(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: start 0 vanished\n"


class TestFlagOrder:
    @pytest.mark.parametrize("after_run", [True, False])
    def test_run_flags_either_side_of_run(self, tmp_path, after_run):
        out = tmp_path / "out"
        p = write_config(tmp_path / "c.yaml", flow_config(tmp_path / "unused"))
        flags = ["--strict", "--output-dir", str(out)]
        argv = ["run", p] + flags if after_run else flags + ["run", p]
        assert cli.main(argv) == 0
        assert (out / "manifest.yaml").exists()
        assert not (tmp_path / "unused").exists()

    def test_usage_error_exits_1(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml", flow_config(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", p, "--no-such-flag"])
        assert exc.value.code == 1
        assert "--no-such-flag" in capsys.readouterr().err


class TestPowerRun:
    def test_eigen_csv_matches_oracle(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "functional": {"kind": "quadratic_form",
                           "matrix": nl.laplacian_matrix(
                               nl.build_grid_graph(nl.GridSpec(width=6))).tolist()},
            "command": "power",
            "options": {"restarts": 3, "tol": 1e-14, "max_iter": 5000},
            "output_dir": str(out),
            "seed": 5,
        }
        p = write_config(tmp_path / "c.yaml", cfg)
        assert cli.main(["run", p]) == 0
        with open(out / "eigen.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        L = np.asarray(cfg["functional"]["matrix"])
        lam1 = nl.dense_symmetric_eigs(L).eigenvalues[1]
        best = min(float(r["lambda"]) for r in rows)
        assert abs(best - lam1) / lam1 <= 1e-8


class TestOracleRun:
    def test_distance_and_spectrum(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "functional": {"kind": "lipschitz_sup"},
            "domain": {"grid": {"width": 3, "boundary_mode": "dirichlet"}},
            "command": "oracle",
            "output_dir": str(out),
        }
        p = write_config(tmp_path / "c.yaml", cfg)
        assert cli.main(["run", p]) == 0
        d = np.loadtxt(out / "signals" / "distance.txt")[:, 1]
        assert np.allclose(d, [0, 1, 2, 1, 0])
        assert (out / "oracle.csv").exists()


    def test_quadratic_form_spectrum(self, tmp_path):
        out = tmp_path / "out"
        A = [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
        p = write_config(tmp_path / "c.yaml", {
            "functional": {"kind": "quadratic_form", "matrix": A},
            "command": "oracle", "output_dir": str(out)})
        assert cli.main(["run", p]) == 0
        with open(out / "oracle.csv") as fh:
            lams = [float(r["eigenvalue"]) for r in csv.DictReader(fh)]
        assert np.allclose(lams, np.linalg.eigvalsh(A), atol=1e-12)
        v = np.loadtxt(out / "signals" / "eigenvector_0.txt")[:, 1]
        assert np.allclose(np.asarray(A) @ v, lams[0] * v, atol=1e-12)


    def test_quadratic_form_takes_the_domain_measure(self, tmp_path):
        """Without the domain's measure, J would be another problem: the
        spectrum of A itself, not of A v = lam M v."""
        out = tmp_path / "out"
        A = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
        p = write_config(tmp_path / "c.yaml", {
            "functional": {"kind": "quadratic_form", "matrix": A},
            "domain": {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
                       "node_measure": [1, 4, 9]},
            "command": "oracle", "output_dir": str(out)})
        assert cli.main(["run", p]) == 0
        with open(out / "oracle.csv") as fh:
            lams = [float(r["eigenvalue"]) for r in csv.DictReader(fh)]
        ref = nl.dense_symmetric_eigs(A, node_measure=[1, 4, 9]).eigenvalues
        assert np.array_equal(lams, ref)
        assert not np.allclose(lams, np.linalg.eigvalsh(A))


class TestArtifactFormats:
    """The exact text of the artifacts that other tools read."""

    def _run(self, tmp_path, cfg):
        out = tmp_path / "out"
        assert cli.main(["run", write_config(tmp_path / "c.yaml",
                                             dict(cfg, output_dir=str(out)))]) == 0
        return out

    def test_decompose_on_a_2d_grid(self, tmp_path):
        out = self._run(tmp_path, {
            "functional": {"kind": "graph_tv"},
            "domain": {"grid": {"width": 5, "height": 3}},
            "input": {"generator": {"name": "gaussian", "seed": 1}},
            "command": "decompose"})
        lines = (out / "trace.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"k,t,tau,J,dist,Lambda,zeta_norm,profile_residual"
        assert lines[-1] == b"" and not any(b"\n" in line for line in lines)
        # the last step is extinct: its Lambda lies below the floor
        assert lines[-2].split(b",")[5] == b"nan"
        pgm = (out / "bands" / "band_00001.pgm").read_text()
        assert pgm.startswith("P2\n5 3\n65535\n")
        assert [len(row.split()) for row in pgm.splitlines()[3:]] == [5, 5, 5]

    def test_power_on_a_path(self, tmp_path):
        out = self._run(tmp_path, {
            "functional": {"kind": "graph_tv"}, "domain": {"grid": {"width": 6}},
            "command": "power", "options": {"restarts": 1}})
        head = (out / "eigen.csv").read_bytes().split(b"\r\n")[0]
        assert head == (b"rank,lambda,mu,sigma,rayleigh,residual,euler_residual,"
                        b"subgradient_gap,converged")

    def test_oracle_on_a_path(self, tmp_path):
        out = self._run(tmp_path, {
            "functional": {"kind": "dirichlet_p", "p": 2.0},
            "domain": {"grid": {"width": 5}}, "command": "oracle"})
        assert (out / "oracle.csv").read_bytes().startswith(b"index,eigenvalue\r\n")
        g = nl.build_grid_graph(nl.GridSpec(width=5))
        v = nl.dense_symmetric_eigs(nl.laplacian_matrix(g)).eigenvectors[0, 1]
        line = (out / "signals" / "eigenvector_1.txt").read_bytes().split(b"\n")[0]
        assert line == b"0 %.17g" % v


class TestExplicitGraph:
    def test_readme_domain_runs_oracle(self, tmp_path):
        out = tmp_path / "out"
        p = write_config(tmp_path / "c.yaml", {
            "functional": {"kind": "lipschitz_sup"},
            "domain": {"n": 3, "edges": [[0, 1, 2.0], [1, 2, 0.5]],
                       "boundary": [0]},
            "command": "oracle",
            "output_dir": str(out),
        })
        assert cli.main(["run", p]) == 0
        d = np.loadtxt(out / "signals" / "distance.txt")[:, 1]
        assert np.array_equal(d, [0.0, 0.5, 2.5])

    def test_malformed_edges_exit_1_without_traceback(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.yaml", {
            "functional": {"kind": "graph_tv"},
            "domain": {"n": 3, "edges": [[0, 1], [1, 2, 1.0]]},
            "command": "oracle",
            "output_dir": str(tmp_path / "out"),
        })
        assert cli.main(["run", p]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_no_domain_is_a_none_pair(self):
        cfg = {"functional": {"kind": "l1", "n": 2}, "command": "flow"}
        assert cli.build_domain(cfg) == (None, None)

    def test_plain_dict_grid(self):
        graph, spec = cli.build_domain({"domain": {"grid": {"width": 4}}})
        assert graph.n == 4 and spec == nl.GridSpec(width=4)


class TestCompare:
    def _write_trace(self, tmp_path, name, lam_perturb=0.0):
        out = tmp_path / name
        cfg = flow_config(out)
        p = write_config(tmp_path / (name + ".yaml"), cfg)
        assert cli.main(["run", p]) == 0
        path = out / "trace.csv"
        if lam_perturb:
            with open(path) as fh:
                rows = list(csv.reader(fh))
            rows[2][5] = cli._fmt(float(rows[2][5]) + lam_perturb)
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        return str(path)

    def test_identical_pass(self, tmp_path):
        a = self._write_trace(tmp_path, "a")
        assert cli.main(["compare", a, a]) == 0

    def test_perturbed_fails_with_location(self, tmp_path, capsys):
        a = self._write_trace(tmp_path, "a")
        b = self._write_trace(tmp_path, "b", lam_perturb=1e-3)
        tol = tmp_path / "tol.yaml"
        tol.write_text("Lambda: 1.0e-6\n")
        rc = cli.main(["compare", a, b, "--tol-file", str(tol)])
        assert rc == 2
        text = capsys.readouterr().out
        assert "Lambda" in text and "row 1" in text

    def test_missing_file_is_one_error_line(self, tmp_path, capsys):
        a = self._write_trace(tmp_path, "a")
        rc = cli.main(["compare", a, str(tmp_path / "missing.csv")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and "missing.csv" in err
        assert len(err.splitlines()) == 1

    def test_non_numeric_tolerance_is_one_error_line(self, tmp_path, capsys):
        a = self._write_trace(tmp_path, "a")
        tol = tmp_path / "tol.yaml"
        tol.write_text("t: abc\n")
        rc = cli.main(["compare", a, a, "--tol-file", str(tol)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("config error: --tol-file: t")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("text, message", [
        ("Lambda: [1\n", "--tol-file: while parsing"),
        ("- 1.0e-6\n", "--tol-file: expected a mapping"),
    ], ids=["invalid_yaml", "list"])
    def test_bad_tolerance_file_is_one_config_error_line(self, text, message,
                                                         tmp_path, capsys):
        a = self._write_trace(tmp_path, "a")
        tol = tmp_path / "tol.yaml"
        tol.write_text(text)
        rc = cli.main(["compare", a, a, "--tol-file", str(tol)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("config error: " + message)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV"),
        ("x,y\n1,2\n3\n", "every row needs 2 numbers"),
        ("x,y\n1,2,3\n", "every row needs 2 numbers"),
    ], ids=["empty", "short_row", "long_row"])
    def test_unreadable_csv_is_one_error_line(self, text, message, tmp_path,
                                              capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        rc = cli.main(["compare", str(bad), str(bad)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("first", ["a", "b"])
    def test_nan_against_a_number_fails(self, first, tmp_path, capsys):
        files = {"a": tmp_path / "a.csv", "b": tmp_path / "b.csv"}
        files["a"].write_text("k,x\n0,nan\n")
        files["b"].write_text("k,x\n0,1\n")
        second = "b" if first == "a" else "a"
        assert cli.main(["compare", str(files[first]), str(files[second])]) == 2
        assert "mismatch at row 0 column 'x'" in capsys.readouterr().out

    def test_nan_against_nan_passes(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("k,x\n0,nan\n")
        assert cli.main(["compare", str(a), str(a)]) == 0

    def test_row_count_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("x,y\n1,2\n")
        b.write_text("x,y\n1,2\n1,2\n")
        assert cli.main(["compare", str(a), str(b)]) == 2
        assert "row count mismatch: 1 vs 2" in capsys.readouterr().out

    def test_schema_mismatch(self, tmp_path, capsys):
        a = self._write_trace(tmp_path, "a")
        other = tmp_path / "other.csv"
        other.write_text("x,y\n1,2\n")
        assert cli.main(["compare", a, str(other)]) == 2


class TestValidateCommand:
    def test_filter_runs_subset(self, capsys):
        rc = cli.main(["validate", "--filter", "oracles."])
        out = capsys.readouterr().out
        assert rc == 0
        assert "oracles.jacobi_reconstruction" in out
        assert "prox.nonexpansive" not in out

    def test_filter_skips_before_calling(self, monkeypatch, capsys):
        from nlspec import validation
        called = []

        def spy(name):
            return lambda: called.append(name) or (True, "ok")

        monkeypatch.setattr(validation, "CHECKS", [
            ("oracles.kept", spy("oracles.kept")),
            ("prox.skipped", spy("prox.skipped"))])
        assert cli.main(["validate", "--filter", "oracles."]) == 0
        assert called == ["oracles.kept"]
        assert "1/1 checks passed" in capsys.readouterr().out

    def test_filter_that_names_no_check_is_a_usage_error(self, capsys):
        """A misspelt filter runs no check; it must not pass as 0/0."""
        assert cli.main(["validate", "--filter", "no_such_check"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: --filter 'no_such_check': no check "
                                "name contains it\n")
        assert "checks passed" not in captured.out

    def test_run_config_is_not_an_entry_point(self, tmp_path, capsys):
        """The suite is reached by `nlspec validate` alone: `command: validate`
        in a run config is an unknown command."""
        p = write_config(tmp_path / "c.yaml", {
            "functional": {"kind": "l1", "n": 2}, "command": "validate"})
        assert cli.main(["run", p]) == 1
        assert "unknown command 'validate'" in capsys.readouterr().err

    def test_float_roundtrip_checks_the_cli_format(self, monkeypatch, capsys):
        """The check round-trips through the format the artifacts use: at 15
        significant digits it fails."""
        argv = ["validate", "--filter", "cli.float_roundtrip"]
        assert cli.main(argv) == 0
        monkeypatch.setattr(cli, "FMT", "%.15g")
        assert cli.main(argv) == 2
        assert "non-roundtrip values" in capsys.readouterr().out
