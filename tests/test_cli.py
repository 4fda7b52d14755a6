import copy
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegibbs import fixtures as fx
from treegibbs.cli import main, parse_config
from treegibbs.errors import ConfigError
from treegibbs.graph import graph_from_dict, graph_to_dict


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    return fx.write_all(str(d))


def _write_cfg(tmp_path, name, **kw):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(kw) + "\n")
    return str(path)


def test_parse_defaults(tmp_path, fixture_dir):
    cfg_path = _write_cfg(tmp_path, "c", graph=fixture_dir["single_edge_3"])
    cfg = parse_config(["analyze", "--config", cfg_path])
    assert cfg.n_max == 40
    assert cfg.tol == 1e-10
    assert cfg.potential_path is None
    assert len(cfg.input_hash) == 64


def test_parse_rejects_unknown_fields(tmp_path):
    cfg_path = _write_cfg(tmp_path, "c", graph="x.json", bogus=1)
    with pytest.raises(ConfigError) as exc:
        parse_config(["analyze", "--config", cfg_path])
    assert "bogus" in str(exc.value)


def test_bad_index_names_field(tmp_path):
    d = graph_to_dict(fx.single_edge(3, 3))
    d["edges"][1]["index"] = 0
    with pytest.raises(ConfigError) as exc:
        graph_from_dict(d)
    assert "edges[1].index" in str(exc.value)


def test_tail_spec_roundtrip():
    g = fx.thick_ray(5)
    d = graph_to_dict(g)
    assert graph_to_dict(graph_from_dict(d)) == d


def test_cli_commands_run(tmp_path, fixture_dir):
    cfg_path = _write_cfg(
        tmp_path, "single", graph=fixture_dir["single_edge_3"], out=str(tmp_path / "out")
    )
    for cmd in ("analyze", "chain", "wsg", "mix", "count"):
        out = str(tmp_path / f"out_{cmd}")
        assert main([cmd, "--config", cfg_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "summary.txt"))


def test_cli_probe(tmp_path):
    cfg_path = _write_cfg(tmp_path, "probe", truncations=[5, 10])
    out = str(tmp_path / "out_probe")
    assert main(["probe", "--config", cfg_path, "--out", out]) == 0
    lines = open(os.path.join(out, "probe.csv")).read().splitlines()
    assert lines[0] == "N,rho,feasible,gamma_bound"
    assert len(lines) == 3


def test_cli_reruns_are_byte_identical(tmp_path, fixture_dir):
    cfg_path = _write_cfg(tmp_path, "single", graph=fixture_dir["single_edge_3"])
    outs = []
    for tag in ("A", "B"):
        out = str(tmp_path / f"det_{tag}")
        assert main(["count", "--config", cfg_path, "--out", out]) == 0
        blobs = {}
        for fn in sorted(os.listdir(out)):
            blobs[fn] = open(os.path.join(out, fn), "rb").read()
        outs.append(blobs)
    assert outs[0] == outs[1]


def test_cli_exit_codes(tmp_path, fixture_dir):
    # missing config file
    assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2
    # schema-violating graph
    bad = graph_to_dict(fx.single_edge(3, 3))
    bad["edges"][0]["rev"] = "missing"
    bad_path = tmp_path / "bad_graph.json"
    bad_path.write_text(json.dumps(bad))
    cfg_path = _write_cfg(tmp_path, "bad", graph=str(bad_path))
    assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "o1")]) == 2
    # tail-dominated growth: numeric non-convergence
    cfg_crit = _write_cfg(tmp_path, "crit", graph=fixture_dir["critical_ray_5"])
    assert main(["analyze", "--config", cfg_crit, "--out", str(tmp_path / "o2")]) == 3


def test_cli_wsg_on_tailed_fixture(tmp_path, fixture_dir):
    cfg_path = _write_cfg(
        tmp_path, "cusp", graph=fixture_dir["cusp_22"], n_max=60, depth=90
    )
    out = str(tmp_path / "out_wsg_cusp")
    assert main(["wsg", "--config", cfg_path, "--out", out]) == 0
    cert = json.load(open(os.path.join(out, "certificate.json")))
    assert cert["rho"] < 1.0
    assert cert["lemma_violations"] == 0
    assert cert["t"]["tails"][0]["form"] == "qbd"


def test_cli_count_includes_normalization_record(tmp_path, fixture_dir):
    cfg_path = _write_cfg(tmp_path, "single", graph=fixture_dir["single_edge_3"])
    out = str(tmp_path / "out_norm")
    assert main(["count", "--config", cfg_path, "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "count.json")))
    assert payload["normalization"]["convention"].startswith("unit boundary mass")
    assert payload["meta"]["tool_version"]
    assert payload["cstar_exact"] == "6"


def test_cli_count_on_a_cover_that_is_not_biregular(tmp_path, fixture_dir):
    cfg_path = _write_cfg(tmp_path, "funnel", graph=fixture_dir["funnel_loop"])
    out = str(tmp_path / "out_funnel")
    assert main(["count", "--config", cfg_path, "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "count.json")))
    assert payload["cstar_exact"] == "2" and payload["cstar"] == 2.0
    assert abs(payload["full_constant"] / 2.0 - 1.0) <= 1e-12
    assert payload["biregular"] is None and payload["sphere_sizes"] is None
    assert payload["ball_measure_R3"] is None
    assert "not biregular" in open(os.path.join(out, "summary.txt")).read()


@pytest.mark.parametrize(
    "name, limit", [("cusp_22", 1.5), ("cusp_24", 1.25), ("cusp_44", 1.25), ("thick_ray_5", 0.9375)]
)
def test_cli_count_prints_the_tailed_limits(tmp_path, fixture_dir, name, limit):
    cfg_path = _write_cfg(tmp_path, name, graph=fixture_dir[name])
    out = str(tmp_path / f"out_{name}")
    assert main(["count", "--config", cfg_path, "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "count.json")))
    assert abs(payload["cstar"] / limit - 1.0) <= 1e-12
    assert payload["cstar_method"] == "main-term"
    # the cusp counts equal C* e^{2 delta n}: no error exponent to print
    assert (payload["kappa_hat"] is None) == (name != "thick_ray_5")


def test_emit_report_empty_results(tmp_path, fixture_dir):
    from treegibbs.cli import emit_report, parse_config

    cfg_path = _write_cfg(tmp_path, "single", graph=fixture_dir["single_edge_3"])
    cfg = parse_config(["analyze", "--config", cfg_path])
    written = emit_report({}, str(tmp_path / "empty_out"), cfg)
    assert len(written) == 1 and written[0].endswith("summary.txt")
    text = open(written[0]).read().splitlines()
    assert len(text) == 2  # header and hash only, zero sections


def test_cli_mix_on_tailed_fixture(tmp_path, fixture_dir):
    cfg_path = _write_cfg(tmp_path, "cuspmix", graph=fixture_dir["cusp_22"], n_max=30)
    out = str(tmp_path / "out_mix_cusp")
    assert main(["mix", "--config", cfg_path, "--out", out]) == 0
    tab = json.load(open(os.path.join(out, "taboo.json")))
    assert tab["horizon"] == 30 and tab["B"]


def test_cli_with_potential_file(tmp_path, fixture_dir):
    pot = {"edges": {"e": 0.2, "ebar": 0.2}}
    pot_path = tmp_path / "pot.json"
    pot_path.write_text(json.dumps(pot))
    cfg_path = _write_cfg(
        tmp_path, "withpot", graph=fixture_dir["single_edge_3"], potential=str(pot_path)
    )
    out = str(tmp_path / "out_pot")
    assert main(["analyze", "--config", cfg_path, "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "analyze.json")))
    # constant potential shifts the exponent but not its zero-potential twin
    assert abs(payload["delta"] - (payload["delta_zero"] + 0.2)) < 1e-10


def test_cli_rejects_bad_potential(tmp_path, fixture_dir):
    pot_path = tmp_path / "pot_bad.json"
    pot_path.write_text(json.dumps({"edges": {"nope": 1.0}}))
    cfg_path = _write_cfg(
        tmp_path, "badpot", graph=fixture_dir["single_edge_3"], potential=str(pot_path)
    )
    assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "ob")]) == 2


def _analyze_mutated_thick_ray(tmp_path, capsys, mutate):
    """Exit code and stderr of ``analyze`` on thick_ray_5 after ``mutate``."""
    d = graph_to_dict(fx.thick_ray(5))
    mutate(d)
    graph_path = tmp_path / "mutated_graph.json"
    graph_path.write_text(json.dumps(d))
    cfg_path = _write_cfg(tmp_path, "mutated", graph=str(graph_path))
    code = main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_tail_without_attach_exits_2(tmp_path, capsys):
    code, err = _analyze_mutated_thick_ray(tmp_path, capsys, lambda d: d["tails"][0].pop("attach"))
    assert code == 2 and "tails[0]: missing field 'attach'" in err


def test_one_element_period_pair_exits_2(tmp_path, capsys):
    code, err = _analyze_mutated_thick_ray(
        tmp_path, capsys, lambda d: d["tails"][0].update(period=[[4]])
    )
    assert code == 2 and "tails[0].period[0]" in err


def test_boolean_index_exits_2(tmp_path, capsys):
    code, err = _analyze_mutated_thick_ray(tmp_path, capsys, lambda d: d["edges"][0].update(index=True))
    assert code == 2 and "edges[0].index" in err


def _run(tmp_path, tag, graph, potential=None, command="analyze", **cfg):
    """(exit code, analyze.json payload or None) of one CLI run on written-out inputs."""
    if graph is not None:
        graph_path = tmp_path / f"graph_{tag}.json"
        graph_path.write_text(json.dumps(graph))
        cfg["graph"] = str(graph_path)
    if potential is not None:
        pot_path = tmp_path / f"pot_{tag}.json"
        pot_path.write_text(json.dumps(potential))
        cfg["potential"] = str(pot_path)
    out = tmp_path / f"out_{tag}"
    code = main([command, "--config", _write_cfg(tmp_path, tag, **cfg), "--out", str(out)])
    if command != "analyze" or code != 0:
        return code, None
    return code, json.loads((out / "analyze.json").read_text())


def _drop_funnel_entry(d):
    d["funnels"][0].pop("entry_edge")


def _bad_base_value(d):
    d["orders"]["base_value"] = "x"


def _tails_not_a_list(d):
    d["tails"] = 7


def _string_branching(d):
    d["funnels"][0]["branching"] = ["x"]


def _zero_base_value(d):
    d["orders"]["base_value"] = 0


def _tail_values(entry):
    return {"tail_values": [entry]}


@pytest.mark.parametrize(
    "name, mutate, potential, cfg, field_path",
    [
        ("funnel_loop", _drop_funnel_entry, None, {}, "funnels[0]: missing field 'entry_edge'"),
        ("thick_ray_5", _bad_base_value, None, {}, "orders.base_value"),
        ("thick_ray_5", None, _tail_values({"period": [[0.1, 0.1]]}), {},
         "tail_values[0]: missing field 'tail_index'"),
        ("thick_ray_5", None, _tail_values({"tail_index": [0]}), {}, "tail_values[0].tail_index"),
        ("thick_ray_5", None, _tail_values({"tail_index": 0.5}), {}, "tail_values[0].tail_index"),
        ("thick_ray_5", None, _tail_values({"tail_index": 0, "period": [[0.1]]}), {},
         "tail_values[0].period[0]"),
        ("single_edge_3", None, None, {"radius": "x"}, "radius"),
        ("single_edge_3", None, None, {"depth": 4.5}, "depth"),
        ("single_edge_3", None, None, {"n_max": "40"}, "n_max"),
        ("single_edge_3", None, None, {"depth": -1}, "depth"),
        (None, None, None, {"probe": 5}, "probe"),
        (None, None, None, {"truncations": [0, -3]}, "truncations[1]"),
        (None, None, None, {"probe": {"gamma": {"kind": "geometric"}}, "truncations": [2]},
         "probe.gamma: gamma(0) = 1.0 outside [0, 1)"),
        (None, None, None, {"probe": {"gamma": {"kind": "constant", "value": 1}}, "truncations": [2]},
         "probe.gamma: gamma(-2) = 1.0"),
        (None, None, None, {"probe": {"gamma": {"kind": "uniform"}}, "truncations": [1]},
         "probe.gamma: gamma(-1) = 1.0"),
        (None, None, None, {"probe": {"beta": {"kind": "constant", "value": -0.5}}, "truncations": [2]},
         "probe.beta: beta(-2) = -0.5"),
        (None, None, None, {"probe": {"beta": {"kind": "constant", "value": 0}}, "truncations": [2]},
         "probe.beta: beta(n) = 0 for every n in [-2, 2]"),
        # beta(0) = 0, so the smallest truncation has no positive beta
        (None, None, None, {"probe": {"beta": {"kind": "one_minus_inv"}}, "truncations": [3, 0]},
         "probe.beta: beta(n) = 0 for every n in [0, 0]"),
        (None, None, None, {"probe": {"beta": {"kind": "geometric", "value": 1e10}}, "truncations": [80]},
         "probe: profile value overflows"),
        (None, None, None, {"probe": {"gamma": {"kind": "cubic"}}}, "probe.gamma.kind"),
        (None, None, None, {"truncations": [2], "tol": 10**400}, "tol"),
        ("two_loops", None, {"edges": {"l1": 10**400}}, {}, "edges.l1"),
        ("thick_ray_5", None, _tail_values({"tail_index": 0, "period": [[10**400, 0.1]]}), {},
         "tail_values[0].period[0]"),
        ("single_edge_3", None, None, {"depth": 10**400}, "depth: outside the resource guard"),
        ("cusp_22", _tails_not_a_list, None, {}, "tails: must be a list"),
        ("funnel_loop", _string_branching, None, {}, "funnels[0].branching"),
        ("biregular_24", _zero_base_value, None, {}, "orders.base_value"),
    ],
    ids=[
        "funnel-without-entry-edge", "base-value-not-rational", "no-tail-index",
        "list-tail-index", "fractional-tail-index", "one-element-potential-pair",
        "string-radius", "fractional-depth", "string-n-max", "negative-depth",
        "probe-not-an-object", "negative-truncation", "geometric-gamma", "constant-gamma-one",
        "uniform-gamma", "negative-beta", "zero-beta", "zero-beta-on-the-smallest-truncation",
        "overflowing-beta", "unknown-profile-kind", "huge-integer-tol",
        "huge-integer-edge-value", "huge-integer-tail-value", "huge-depth",
        "tails-not-a-list", "string-branching", "zero-base-value",
    ],
)
def test_bad_inputs_exit_2_with_a_field_path(
    tmp_path, capsys, name, mutate, potential, cfg, field_path
):
    # a named graph runs analyze; without one, the config is for probe
    graph = None
    if name is not None:
        graph = graph_to_dict(fx.get(name))
        if mutate:
            mutate(graph)
    code, _ = _run(tmp_path, "bad", graph, potential, "analyze" if name else "probe", **cfg)
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert field_path in err


@pytest.mark.parametrize(
    "tail_values, written_out",
    [
        ({"period": [[0.1, -0.05], [0.02, 0.03]]}, {"period": [[2, 1], [2, 1]]}),
        ({"prefix": [[0.3, 0.1]], "period": [[0.1, 0.1]]}, {"prefix": [[2, 1]]}),
    ],
    ids=["longer-period", "longer-prefix"],
)
def test_mismatched_tail_potential_uses_the_joint_period(tmp_path, tail_values, written_out):
    # the cusp_22 tail has period [[2, 1]]; a potential of another prefix or
    # period length must give what the same tail written out over the joint
    # period gives
    potential = {"tail_values": [dict(tail_index=0, **tail_values)]}
    graph = graph_to_dict(fx.cusp_ray(2, 2))
    code, got = _run(tmp_path, "short", graph, potential)
    assert code == 0
    graph["tails"][0].update(written_out)
    code, want = _run(tmp_path, "long", graph, potential)
    assert code == 0
    assert got["delta"] == want["delta"] and got["delta_minus"] == want["delta_minus"]
    got.pop("meta"), want.pop("meta")
    assert got == want


def test_never_climbed_cusp_tail_exits_0(tmp_path, capsys):
    # I = 1 at every tail level: the up-shadow is zero, so the chain never
    # climbs the tail and the certificate cannot use a cusp profile there
    graph = graph_to_dict(fx.cusp_ray(2, 2))
    graph["tails"][0]["period"] = [[1, 1]]
    code, _ = _run(tmp_path, "flat", graph, command="wsg")
    assert code == 0, capsys.readouterr().err


def test_overflowing_potential_exits_3(tmp_path, capsys):
    # a finite potential can still overflow exp() in the transfer operator
    graph = graph_to_dict(fx.get("two_loops"))
    code, _ = _run(tmp_path, "huge", graph, {"edges": {"l1": 800.0}})
    err = capsys.readouterr().err
    assert code == 3, err
    assert "Traceback" not in err


def _artifacts(tmp_path, tag, graph, potential, command):
    """(exit code, {file name: content}) of one CLI run, without the run
    stamp: JSON artifacts lose ``meta`` and the summary its input-hash line."""
    code, _ = _run(tmp_path, tag, graph, potential, command)
    got = {}
    for path in sorted((tmp_path / f"out_{tag}").glob("*")):
        text = path.read_text()
        if path.suffix == ".json":
            got[path.name] = json.loads(text)
            got[path.name].pop("meta")
        elif path.name == "summary.txt":
            got[path.name] = [ln for ln in text.splitlines() if not ln.startswith("input hash:")]
        else:
            got[path.name] = text
    return code, got


@pytest.mark.parametrize("command", ["chain", "wsg"])
@pytest.mark.parametrize(
    "tail_values, written_out",
    [
        ({"period": [[0.1, -0.05], [-0.2, 0.03]]}, {"period": [[4, 2], [4, 2]]}),
        ({"prefix": [[0.3, 0.1]], "period": [[0.1, 0.1]]}, {"prefix": [[4, 2]]}),
    ],
    ids=["period-2", "one-level-prefix"],
)
def test_chain_tail_blocks_use_the_joint_period(tmp_path, tail_values, written_out, command):
    # the thick_ray_5 tail has period [[4, 2]]; chain and wsg must read its
    # transitions over the joint period, as for the tail written out over it
    potential = {"tail_values": [dict(tail_index=0, **tail_values)]}
    graph = graph_to_dict(fx.thick_ray(5))
    code, got = _artifacts(tmp_path, "short", graph, potential, command)
    assert code == 0
    graph["tails"][0].update(written_out)
    code, want = _artifacts(tmp_path, "long", graph, potential, command)
    assert code == 0
    assert got and got == want


_DELETE = object()
_REPLACEMENTS = (
    None, True, False, 0, -1, 2, 0.5, 1e308, "", "x", "a", [], ["x"], [0], [[1, 1]], {}, {"x": 1},
    _DELETE,
)


def _json_paths(value, path=()):
    """Paths to every node below the root of a parsed JSON value."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _mutate(d, path, new):
    for key in path[:-1]:
        d = d[key]
    if new is _DELETE:
        del d[path[-1]]
    else:
        d[path[-1]] = copy.deepcopy(new)


@st.composite
def _mutated_fixtures(draw):
    graph = graph_to_dict(fx.get(draw(st.sampled_from(sorted(fx.FIXTURES)))))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        paths = list(_json_paths(graph))
        _mutate(graph, draw(st.sampled_from(paths)), draw(st.sampled_from(_REPLACEMENTS)))
    return graph


@settings(deadline=None, derandomize=True, max_examples=60)
@given(_mutated_fixtures(), st.sampled_from(("analyze", "chain", "wsg", "mix", "count")))
def test_mutated_fixtures_never_crash(graph, command):
    # one or two fields of a shipped fixture set to a value of another JSON
    # type, or deleted: every command ends in a documented exit code
    with tempfile.TemporaryDirectory() as d:
        graph_path = os.path.join(d, "graph.json")
        with open(graph_path, "w", encoding="utf-8") as fh:
            json.dump(graph, fh)
        cfg_path = os.path.join(d, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"graph": graph_path, "n_max": 12, "depth": 40}, fh)
        code = main([command, "--config", cfg_path, "--out", os.path.join(d, "out")])
    assert code in (0, 2, 3, 4)
