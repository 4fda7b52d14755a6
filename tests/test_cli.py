import copy
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PIPELINE_FIXTURES, potential_runs, write_fixtures
from treegibbs import fixtures as fx
from treegibbs.cli import main, parse_config
from treegibbs.errors import ConfigError
from treegibbs.graph import graph_from_dict, graph_to_dict


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    return write_fixtures(str(d))


def _write_cfg(tmp_path, name, **kw):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(kw) + "\n")
    return str(path)


def test_the_truncation_guard_admits_2000(tmp_path):
    cfg = parse_config(["probe", "--config", _write_cfg(tmp_path, "c", truncations=[2000])])
    assert cfg.truncations == (2000,)


def test_parse_defaults(tmp_path, fixture_dir):
    cfg_path = _write_cfg(tmp_path, "c", graph=fixture_dir["single_edge_3"])
    cfg = parse_config(["analyze", "--config", cfg_path])
    assert cfg.n_max == 40
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


MIX_RUNS = [(name, None, None) for name in PIPELINE_FIXTURES] + list(potential_runs())
# the fixtures whose |p^(kn) - k pi| sits at the rounding floor, and the exact
# rates of the others' second eigenvalue
MIX_EXACT = ("biregular_24", "biregular_44", "single_edge_3", "cusp_22")
MIX_RATES = {"parallel_edges": 1.0 / 9.0, "two_loops": 1.0 / 3.0, "funnel_loop": 1.0 / 3.0}


@pytest.mark.parametrize(
    "name, pot, tail_values", MIX_RUNS, ids=[f"{n}+{p}" if p else n for n, p, _ in MIX_RUNS]
)
def test_cli_mix_rate_and_mean_return(tmp_path, fixture_dir, name, pot, tail_values):
    cfg = {"graph": fixture_dir[name]}
    if pot:
        pot_path = tmp_path / "pot.json"
        pot_path.write_text(json.dumps({"tail_values": [dict(tail_index=0, **tail_values)]}))
        cfg["potential"] = str(pot_path)
    out = tmp_path / "out"
    assert main(["mix", "--config", _write_cfg(tmp_path, "mix", **cfg), "--out", str(out)]) == 0
    mix = json.loads((out / "mixing.json").read_text())
    assert 0.0 <= mix["theta"] < 1.0
    if not pot and name in MIX_EXACT:
        assert mix["exact"] and mix["theta"] == 0.0
    if not pot and name in MIX_RATES:
        assert abs(mix["theta"] - MIX_RATES[name]) <= 1e-4
    # Kac: the mean return time is 1 / pi_j = k / pi_k, inside the tail bound
    # (plus rounding: a finite return series has bound 0)
    header, first = (out / "mixing.csv").read_text().splitlines()[:2]
    pi_k = float(first.split(",")[header.split(",").index("pi_k")])
    bound = mix["mean_return_tail_bound"]
    assert math.isfinite(bound)
    assert abs(mix["period"] / pi_k - mix["mean_return"]) <= bound + 1e-12


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


@pytest.mark.parametrize(
    "field, missing, message",
    [
        ("graph", "nope.json", "graph: file not found: "),
        ("potential", "nope.json", "potential: file not found: "),
        ("graph", "", "graph: is a directory: "),
        ("potential", "", "potential: is a directory: "),
    ],
    ids=["graph-missing", "potential-missing", "graph-directory", "potential-directory"],
)
def test_unreadable_input_file_exits_2(tmp_path, capsys, fixture_dir, field, missing, message):
    paths = {"graph": fixture_dir["single_edge_3"], field: str(tmp_path / missing)}
    cfg_path = _write_cfg(tmp_path, "unreadable", **paths)
    assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"config error: {message}{tmp_path / missing}" in err


def test_unreadable_config_or_non_utf8_graph_exits_2(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path)]) == 2
    assert f"config error: config: is a directory: {tmp_path}" in capsys.readouterr().err
    graph_path = tmp_path / "latin1_graph.json"
    graph_path.write_bytes(b'{"vertices": ["\xe9"]}')
    cfg_path = _write_cfg(tmp_path, "latin1", graph=str(graph_path))
    assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {graph_path}: invalid JSON" in capsys.readouterr().err


def test_critical_ray_names_the_missing_spectral_gap(tmp_path, capsys, fixture_dir):
    cfg_path = _write_cfg(tmp_path, "crit", graph=fixture_dir["critical_ray_5"])
    assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "no weighted spectral gap: delta <= s_tail = 1.609437912" in err
    assert not (tmp_path / "o").exists()


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


def _set(*path, value):
    """A mutation that sets the field at ``path`` of a graph dict to ``value``."""

    def mutate(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value

    return mutate


def _repeat_first(field):
    """A mutation that appends the first entry of the list ``field`` again."""

    def mutate(d):
        d[field].append(d[field][0])

    return mutate


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
        (None, None, None, {"truncations": []}, "truncations: must name at least one truncation"),
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
        ("thick_ray_5", _set("bogus", value=1), None, {}, "graph: unknown fields ['bogus']"),
        ("thick_ray_5", lambda d: d.pop("vertices"), None, {}, "graph: missing field 'vertices'"),
        ("thick_ray_5", _set("edges", 0, "bogus", value=1), None, {},
         "edges[0]: unknown fields ['bogus']"),
        ("thick_ray_5", _set("tails", 0, "bogus", value=1), None, {},
         "tails[0]: unknown fields ['bogus']"),
        ("funnel_loop", _set("funnels", 0, "bogus", value=1), None, {},
         "funnels[0]: unknown fields ['bogus']"),
        ("thick_ray_5", _set("orders", "bogus", value=1), None, {},
         "orders: unknown fields ['bogus']"),
        ("thick_ray_5", _set("orders", "base_vertex", value="z"), None, {},
         "orders.base_vertex: not a vertex, got 'z'"),
        ("thick_ray_5", _set("tails", 0, "period", value=5), None, {},
         "tails[0].period: must be a list of pairs"),
        ("parallel_edges", _repeat_first("vertices"), None, {}, "vertices[2]: duplicate of vertices[0]"),
        ("thick_ray_5", _set("vertices", value=[]), None, {}, "vertices: must name at least one vertex"),
        ("parallel_edges", _repeat_first("edges"), None, {}, "edges[4].id: duplicate of edges[0]"),
        ("thick_ray_5", lambda d: d["vertices"].append("~z"), None, {},
         "vertices[2]: '~z' uses the reserved prefix"),
        ("thick_ray_5", _set("tails", 0, "period", value=[[0, 1]]), None, {}, "tails[0].period[0]: must be a pair"),
        ("thick_ray_5", _set("tails", 0, "period", value=[]), None, {},
         "tails[0].period: must name at least one pair"),
        ("funnel_loop", _set("funnels", 0, "entry_edge", value="z"), None, {},
         "funnels[0].entry_edge: not an edge, got 'z'"),
        ("two_loops", _set("edges", 0, "id", value="~x"), None, {}, "edges[0].id: '~x' uses the reserved prefix"),
        ("thick_ray_5", _set("tails", 0, "prefix", value=[[2, 1], [1, 0]]), None, {},
         "tails[0].prefix[1]: must be a pair"),
        ("thick_ray_5", lambda d: d["tails"][0].pop("period"), None, {},
         "tails[0].period: must name at least one pair"),
        ("single_edge_3", _set("edges", 0, "index", value=10**400), None, {}, "edges[0].index: must be an integer"),
        ("single_edge_3", _set("edges", 1, "index", value=2**63), None, {}, "edges[1].index: must be an integer"),
        ("thick_ray_5", _set("tails", 0, "prefix", value=[[10**400, 1]]), None, {},
         "tails[0].prefix[0]: must be a pair"),
        ("thick_ray_5", _set("tails", 0, "period", value=[[4, 2], [2, 10**400]]), None, {},
         "tails[0].period[1]: must be a pair"),
        ("single_edge_3", _set("orders", "base_value", value="1e400"), None, {}, "orders.base_value"),
        ("single_edge_3", _set("orders", "base_value", value="1e-400"), None, {}, "orders.base_value"),
        ("single_edge_3", _set("orders", "base_value", value=10**400), None, {}, "orders.base_value"),
        ("two_loops", None, [0.5], {}, "potential: must be an object, got [0.5]"),
        ("two_loops", None, {"bogus": 1}, {}, "potential: unknown fields ['bogus']"),
        ("two_loops", None, {"edges": [0.5]}, {}, "edges: must be an object"),
        ("two_loops", None, {"edges": {"z": 0.5}}, {}, "edges.z: not an edge of the graph"),
        ("thick_ray_5", None, {"tail_values": {}}, {}, "tail_values: must be a list"),
        ("thick_ray_5", None, {"tail_values": [0]}, {}, "tail_values[0]: must be an object"),
        ("thick_ray_5", None, _tail_values({"tail_index": 0, "bogus": 1}), {},
         "tail_values[0]: unknown fields ['bogus']"),
        ("thick_ray_5", None, _tail_values({"tail_index": 1}), {}, "tail_values[0].tail_index out of range"),
        ("thick_ray_5", None, _tail_values({"tail_index": 0, "period": []}), {},
         "tail_values[0].period: must name at least one pair"),
        (None, None, {}, {}, "command 'analyze' requires a graph config"),
        (None, None, None, [2], "bad.json: must be an object, got [2]"),
        (None, None, None, {"probes": {}}, "bad.json: unknown fields ['probes']"),
        (None, None, None, {"n_max": 10_001}, "n_max: outside the resource guard"),
        (None, None, None, {"out": 5}, "out: must be a path"),
        (None, None, None, {"truncations": 5}, "truncations: must be a list"),
        (None, None, None, {"truncations": [4, 10_000_000]}, "truncations[1]: outside the resource guard"),
        (None, None, None, {"probe": {"gamma": 5}}, "probe.gamma: must be an object"),
        (None, None, None, {"probe": {"beta": {"value": "x"}}}, "probe.beta.value: must be a number"),
    ],
    ids=[
        "funnel-without-entry-edge", "base-value-not-rational", "no-tail-index",
        "list-tail-index", "fractional-tail-index", "one-element-potential-pair",
        "string-radius", "fractional-depth", "string-n-max", "negative-depth",
        "probe-not-an-object", "negative-truncation", "empty-truncations", "geometric-gamma",
        "constant-gamma-one",
        "uniform-gamma", "negative-beta", "zero-beta", "zero-beta-on-the-smallest-truncation",
        "overflowing-beta", "unknown-profile-kind", "huge-integer-tol",
        "huge-integer-edge-value", "huge-integer-tail-value", "huge-depth",
        "tails-not-a-list", "string-branching", "zero-base-value",
        "unknown-graph-field", "no-vertices", "unknown-edge-field", "unknown-tail-field",
        "unknown-funnel-field", "unknown-orders-field", "base-vertex-not-a-vertex",
        "tail-period-not-a-list", "repeated-vertex", "no-vertex", "repeated-edge-id", "reserved-id",
        "zero-tail-index", "empty-tail-period", "funnel-entry-not-an-edge", "reserved-edge-id",
        "zero-tail-prefix-index", "no-tail-period", "huge-edge-index", "edge-index-past-intp",
        "huge-tail-prefix-index", "huge-tail-period-index", "overflowing-base-value",
        "underflowing-base-value", "huge-integer-base-value",
        "potential-not-an-object", "unknown-potential-field", "potential-edges-not-an-object",
        "potential-on-an-unknown-edge", "tail-values-not-a-list", "tail-value-not-an-object",
        "unknown-tail-value-field", "tail-index-out-of-range", "empty-potential-period",
        "analyze-without-a-graph", "config-not-an-object", "unknown-config-field",
        "huge-n-max", "out-not-a-path", "truncations-not-a-list", "huge-truncation",
        "gamma-not-an-object", "string-beta-value",
    ],
)
def test_bad_inputs_exit_2_with_a_field_path(
    tmp_path, capsys, name, mutate, potential, cfg, field_path
):
    # a named graph or a potential runs analyze; without them, the config is
    # for probe
    graph = None
    if name is not None:
        graph = graph_to_dict(fx.get(name))
        if mutate:
            mutate(graph)
    if isinstance(cfg, dict):
        command = "analyze" if name or potential is not None else "probe"
        code, _ = _run(tmp_path, "bad", graph, potential, command, **cfg)
    else:  # a config that is not a JSON object
        (tmp_path / "bad.json").write_text(json.dumps(cfg))
        code = main(["probe", "--config", str(tmp_path / "bad.json")])
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


@pytest.mark.parametrize(
    "field, mutate, first",
    [
        ("base_value", lambda d: d["orders"].update(base_value="1e300"), 14),
        ("index", lambda d: [e.update(index=2**62) for e in d["edges"]], 10),
    ],
    ids=["base_value", "index"],
)
def test_count_names_the_orbit_count_that_overflows_a_float(tmp_path, capsys, field, mutate, first):
    # valid but large numbers: the exact counts N(2n), n = 10..25, are fine,
    # their floats are not from n = ``first`` on
    graph = graph_to_dict(fx.get("single_edge_3"))
    mutate(graph)
    assert _run(tmp_path, field, graph, command="analyze")[0] == 0
    code, _ = _run(tmp_path, field, graph, command="count")
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"orbit count N(2n) overflows a float from n = {first} on" in err, err
    assert "orders.base_value" in err and "edges[k].index" in err, err


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


def test_every_error_class_exits_with_its_documented_code(tmp_path, monkeypatch, capsys):
    import inspect

    from treegibbs import cli, errors

    documented = {
        errors.TreeGibbsError: 3,
        errors.ConfigError: 2,
        errors.GraphError: 2,
        errors.NonUnimodularError: 2,
        errors.NoClosedGeodesicError: 2,
        errors.DivergenceError: 3,
        errors.NoPositiveSolutionError: 3,
        errors.ZeroShadowError: 3,
        errors.ReducibleChainError: 3,
        errors.NoGeometricDriftError: 3,
        errors.ResourceLimitError: 4,
    }
    members = inspect.getmembers(errors, inspect.isclass)
    classes = {c for _, c in members if issubclass(c, errors.TreeGibbsError)}
    assert classes == set(documented)

    class AddedLater(errors.TreeGibbsError):
        pass

    cfg_path = _write_cfg(tmp_path, "stub")
    for cls, code in [*documented.items(), (AddedLater, 3)]:

        def stub(cfg, cls=cls):
            raise cls("stub failure")

        monkeypatch.setitem(cli._DISPATCH, "analyze", stub)
        assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "o")]) == code, cls
        err = capsys.readouterr().err
        assert "stub failure" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ("single_edge_3", "cusp_22"))
def test_count_with_n_max_0_exits_2(tmp_path, capsys, fixture_dir, name):
    cfg_path = _write_cfg(tmp_path, name, graph=fixture_dir[name], n_max=0)
    assert main(["count", "--config", cfg_path, "--out", str(tmp_path / "o1")]) == 2
    assert "n_max: count needs n_max >= 1" in capsys.readouterr().err
    cfg_path = _write_cfg(tmp_path, f"{name}_flag", graph=fixture_dir[name])
    assert main(["count", "--config", cfg_path, "--out", str(tmp_path / "o2"), "--nmax", "0"]) == 2
    assert "n_max: count needs n_max >= 1" in capsys.readouterr().err
    # the other commands keep accepting n_max = 0
    assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "o3"), "--nmax", "0"]) == 0


def test_duplicate_tail_index_exits_2(tmp_path, capsys):
    entry = {"tail_index": 0, "period": [[0.1, 0.1]]}
    potential = {"tail_values": [entry, dict(entry, period=[[0.2, 0.2]])]}
    code, _ = _run(tmp_path, "dup", graph_to_dict(fx.get("cusp_22")), potential)
    assert code == 2
    assert "tail_values[1].tail_index: duplicate of tail_values[0]" in capsys.readouterr().err


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("name", ("single_edge_3", "two_loops", "cusp_22"))
def test_artifacts_at_a_small_nmax_are_valid_json(tmp_path, fixture_dir, name):
    # a short horizon leaves the mean-return tail bound infinite: it is
    # written as null, the way count.json writes an unresolved kappa_hat
    cfg_path = _write_cfg(tmp_path, name, graph=fixture_dir[name])
    for cmd in ("analyze", "chain", "wsg", "mix", "count"):
        for n_max in range(1 if cmd == "count" else 0, 4):
            out = tmp_path / f"{cmd}_{n_max}"
            assert main([cmd, "--config", cfg_path, "--out", str(out), "--nmax", str(n_max)]) == 0
            for path in sorted(out.glob("*.json")):
                json.loads(path.read_text(), parse_constant=_no_constant)


def test_the_shipped_fixtures_are_the_builders_output(fixture_dir):
    shipped = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    assert sorted(os.listdir(shipped)) == sorted(os.path.basename(p) for p in fixture_dir.values())
    for path in fixture_dir.values():
        with open(path, "rb") as new, open(os.path.join(shipped, os.path.basename(path)), "rb") as old:
            assert new.read() == old.read(), path


# command -> {depth: unrolls} of materialize.  Every command unrolls one
# junction graph for all exponent solves (the bare core without tails, depth
# 1 with them), and with tails one shadow window (depth 80).  analyze adds the
# period horizon (depth 1 without tails; 3 on thick_ray_5 and cusp_22, 6 on
# critical_ray_5).  count adds nothing without tails (the renewal constant
# reads the shadow window's operator), and the DP window (depth 51) and the
# period horizon with them.
# critical_ray_5 stops at the exponent, after its junction graph.
FINITE_WINDOWS = {"analyze": {1: 1, 0: 1}, "chain": {0: 1}, "wsg": {0: 1}, "mix": {0: 1}, "count": {0: 1}}
TAILED_WINDOWS = {
    "analyze": {1: 1, 80: 1, 3: 1},
    "chain": {1: 1, 80: 1},
    "wsg": {1: 1, 80: 1},
    "mix": {1: 1, 80: 1},
    "count": {1: 1, 80: 1, 51: 1, 3: 1},
}
CRITICAL_WINDOWS = {"analyze": {1: 1, 6: 1}, "chain": {1: 1}, "wsg": {1: 1}, "mix": {1: 1}, "count": {1: 1}}


@pytest.mark.parametrize(
    "name, tail_values, budget",
    [
        ("single_edge_3", None, FINITE_WINDOWS),
        ("parallel_edges", None, FINITE_WINDOWS),
        ("thick_ray_5", None, TAILED_WINDOWS),
        ("critical_ray_5", None, CRITICAL_WINDOWS),
        ("cusp_22", {"period": [[0.1, -0.05], [0.02, 0.03]]}, TAILED_WINDOWS),
    ],
    ids=["single_edge_3", "parallel_edges", "thick_ray_5", "critical_ray_5", "cusp_22+period2"],
)
def test_each_command_unrolls_each_window_once(tmp_path, monkeypatch, name, tail_values, budget):
    # every module's binding of materialize is rebound, as the bench tracer does
    import sys
    from collections import Counter

    from treegibbs import graph

    orig = graph.materialize
    seen = Counter()

    def counted(g, depth):
        seen[depth] += 1
        return orig(g, depth)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "treegibbs" or mod_name.startswith("treegibbs.")):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    potential = None if tail_values is None else {"tail_values": [dict(tail_index=0, **tail_values)]}
    for command, depths in budget.items():
        seen.clear()
        code, _ = _run(tmp_path, command, graph_to_dict(fx.get(name)), potential, command)
        assert code == (3 if name == "critical_ray_5" else 0), command
        assert seen == Counter(depths), command


@pytest.mark.parametrize("name, searches, analytic", [("thick_ray_5", 0, 1), ("parallel_edges", 1, 0)])
def test_wsg_takes_one_certificate_route(tmp_path, monkeypatch, name, searches, analytic):
    # a tailed quotient takes the analytic tail certificate alone, a finite
    # one the search alone
    from collections import Counter

    from treegibbs import cli

    calls = Counter()

    def counting(f):
        def wrapped(*args, **kwargs):
            calls[f.__name__] += 1
            return f(*args, **kwargs)

        return wrapped

    for attr in ("search_certificate", "tail_certificate"):
        monkeypatch.setattr(cli, attr, counting(getattr(cli, attr)))
    code, _ = _run(tmp_path, name, graph_to_dict(fx.get(name)), command="wsg")
    assert code == 0
    assert calls == Counter({"search_certificate": searches, "tail_certificate": analytic})


def test_scale_peaks_runs_each_command_in_its_own_interpreter(capsys):
    """scripts/scale_peaks.py on a 3-vertex core: one line per graph
    command, each with exit 0, the chain's 4 V states and a peak."""
    from conftest import _load_by_path

    script = _load_by_path("scale_peaks", "scripts/scale_peaks.py")
    assert script.main(["3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(script.COMMANDS)
    for line in lines:
        fields = dict(field.split("=") for field in line.split()[1:])
        assert (fields["V"], fields["states"], fields["exit"]) == ("3", "12", "0"), line
        assert float(fields["wall_s"]) > 0 and float(fields["peak_mb"]) > 0, line


def _write_tree(work, files):
    """An ``out/`` tree under ``work``: {"<run>/<file>": text}."""
    for name, text in files.items():
        path = work / "out" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(work)


def test_artifact_changes_reports_fields_and_keeps_unchanged_nans(tmp_path):
    from conftest import _load_by_path

    script = _load_by_path("artifact_changes", "scripts/artifact_changes.py")
    parent = _write_tree(
        tmp_path / "parent",
        {
            "run_a/a.json": '{"x": NaN, "y": 1.0}',
            "run_a/b.csv": "n,w\n1,1.0\n2,nan\n",
            "run_a/summary.txt": "rate nan and 2.0\nsame\n",
            "run_b/c.json": "{}",
        },
    )
    change = _write_tree(
        tmp_path / "change",
        {
            "run_a/a.json": '{"x": NaN, "y": 1.5}',
            "run_a/b.csv": "n,w\n1,2.0\n2,nan\n",
            "run_a/summary.txt": "rate nan and 3.0\nsame\n",
            "run_c/d.json": "{}",
        },
    )
    assert list(script.changes(parent, change)) == [
        "run_a/a.json: 1 changed, max rel change 0.33 at y",
        "  y: 1.0 -> 1.5",
        "run_a/b.csv: 1 changed, max rel change 0.5 at row 1 w",
        "  row 1 w: 1.0 -> 2.0",
        "run_a/summary.txt: 1 changed, max rel change 0.33 at line 1",
        "  line 1: rate nan and 2.0 -> rate nan and 3.0",
        f"run_b/c.json: only in {parent}",
        f"run_c/d.json: only in {change}",
    ]
