"""Batch front-end: assemble a model from a JSON config, run the full
verification battery, and emit a deterministic report.

Subcommands:

* ``run`` / ``report``: run the battery, write JSON or text.
* ``check <name>``: run a single named check.
* ``ktheory <graph.json>``: K-theory of a discrete graph.
* ``snf <matrix.json>``: Smith normal form with transforms.
* ``converge <sequence.json>``: the boundary convergence oracle.

Exit status is non-zero exactly when a gating check fails.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .boundary import (
    ApproachPointRule,
    BasePointTail,
    ConstantPointRule,
    ConstantTail,
    EscapingTail,
    HeadOnlyTail,
    INFINITE,
    BoundaryError,
    EvPeriodic,
    SequenceDescription,
    _ev_periodic_from_token,
    converges,
    param_f,
    path_from_line,
    path_to_line,
)
from .graphs import (
    DiscreteGraph,
    GraphError,
    OneVertexLoopGraph,
    WitnessSearchError,
    build_model_graph,
    find_contracting_witness,
    orbit_dense,
    verify_contracting_witness,
)
from .groupoid import DRGroupoid, axiom_sample, isotropy_reduction
from .ktheory import (
    KTheoryError,
    dim_bound,
    graph_ktheory,
    model_ktheory,
    snf,
    validate_matrix,
    z_factor_ktheory,
)
from .reports import PLUMBING, CheckRecord, Report
from .spaces import (
    SYSTEM_BUILDERS,
    X_BACKEND_BUILDERS,
    box_contains,
    box_rep_point,
    dense_indices_hitting,
    factor_point,
)


class ConfigError(ValueError):
    pass


#: the battery enumerates every point and basic open of a finite factor
MAX_FINITE_SIZE = 4096

DEFAULT_BOUNDS = {"axiom_trials": 1000}

#: the density depth of the minimality check, raised to the size of a finite X
DENSITY_DEPTH = 64
#: the most translates the contracting witness search tries
WITNESS_CAP = 200


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file")
    except OSError as exc:  # a directory, no permission, a read error
        raise ConfigError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ConfigError(f"{path}: nested too deeply")
    except ValueError as exc:  # e.g. an integer past the digit limit on conversion
        raise ConfigError(f"{path}: {exc}")


_REQUIRED = object()
_JSON_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _is_int(value) -> bool:
    """A JSON integer: ``bool`` is an ``int`` in Python, but JSON ``true``
    is not a number."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field(obj: dict, key: str, where: str, kind: type, default=_REQUIRED):
    """``obj[key]`` checked to be of JSON type ``kind``; a missing key
    gives ``default``, or an error naming the field when it is required."""
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"{where}.{key}: missing")
        return default
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected {_JSON_TYPE_NAMES[kind]}")
    return value


def _known_fields(obj: dict, where: str, keys) -> None:
    """Refuse a key of ``obj`` outside ``keys``, so a misspelled field is
    an error naming it rather than a default silently used."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{where}.{key}: unknown field")


def _positive_int(value, where: str) -> int:
    if not _is_int(value) or value < 1:
        raise ConfigError(f"{where}: expected a positive integer")
    return value


def _parse_factor(obj: dict, key: str, default: str, builders: dict, where: str = "config"):
    """A name of ``builders`` taking no parameter, or ``{"kind": kind,
    <parameter>: n}`` for one that takes one, with no other key; errors
    name the field ``<where>.<key>``."""
    value = obj.get(key, default)
    kind = value.get("kind") if isinstance(value, dict) else value
    if isinstance(kind, str) and kind in builders:
        param = builders[kind][1]
        if isinstance(value, str) and param is None:
            return value
        if isinstance(value, dict) and param is not None:
            _known_fields(value, f"{where}.{key}", ("kind", param))
            n = _positive_int(value.get(param), f"{where}.{key}.{param}")
            if n > MAX_FINITE_SIZE:
                raise ConfigError(f"{where}.{key}.{param}: expected at most {MAX_FINITE_SIZE}")
            return {"kind": kind, param: n}
    forms = [
        repr(name) if param is None else f"{{'kind': {name!r}, {param!r}: n}}"
        for name, (_build, param) in builders.items()
    ]
    raise ConfigError(f"{where}.{key}: expected {', '.join(forms[:-1])} or {forms[-1]}")


def parse_config(obj: dict) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("config: expected a JSON object")
    _known_fields(obj, "config", ("z_backend", "x_backend", "seeds", "bounds"))
    cfg = {
        "z_backend": _parse_factor(obj, "z_backend", "odometer", SYSTEM_BUILDERS),
        "x_backend": _parse_factor(obj, "x_backend", "point", X_BACKEND_BUILDERS),
    }
    seeds = obj.get("seeds", [7])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("config.seeds: expected a non-empty list of integers")
    for i, seed in enumerate(seeds):
        if not _is_int(seed):
            raise ConfigError(f"config.seeds[{i}]: expected an integer")
    cfg["seeds"] = seeds
    bounds = dict(DEFAULT_BOUNDS)
    for key, value in _field(obj, "bounds", "config", dict, {}).items():
        if key not in DEFAULT_BOUNDS:
            raise ConfigError(f"config.bounds.{key}: unknown bound")
        bounds[key] = _positive_int(value, f"config.bounds.{key}")
    cfg["bounds"] = bounds
    return cfg


def _build(value, builders: dict):
    if isinstance(value, str):
        return builders[value][0]()
    build, param = builders[value["kind"]]
    return build(value[param])


def build_system(cfg):
    return _build(cfg["z_backend"], SYSTEM_BUILDERS)


def build_x_backend(cfg):
    return _build(cfg["x_backend"], X_BACKEND_BUILDERS)


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------


def check_backends(cfg, graph) -> CheckRecord:
    system = graph.z_system
    rng = random.Random(cfg["seeds"][0])
    samples = 50
    ok = True
    for _ in range(samples):
        p = system.backend.random_point(rng)
        if system.backward(system.forward(p)) != p or system.forward(system.backward(p)) != p:
            ok = False
    return CheckRecord(
        "backends",
        PLUMBING,
        {"samples": samples},
        ok,
        {"system": system.name},
        cfg["seeds"][0],
    )


def check_minimality(cfg, graph) -> CheckRecord:
    eps, depth = graph.x_backend.density_resolution(DENSITY_DEPTH)
    missed = []
    tried = 0
    for seed in cfg["seeds"]:
        rng = random.Random(seed)
        for _ in range(10):
            v = graph.vertex_backend.random_point(rng)
            tried += 1
            if not orbit_dense(graph, v, depth, eps):
                missed.append(v.token())
    return CheckRecord(
        "minimality",
        "forward orbits in the graph are eps-dense in the vertex space",
        {"eps": str(eps), "depth": depth, "base_points": tried},
        not missed,
        {"not_dense_from": missed[:4]} if missed else {},
        cfg["seeds"][0],
    )


def check_freeness(cfg, graph) -> CheckRecord:
    """Exact: a minimal system with a periodic point is that point's
    finite orbit, so the system's one declared period decides freeness."""
    period = graph.z_system.period
    return CheckRecord(
        "freeness",
        "the Z factor acts freely: the system has no period",
        {},
        period is None,
        {"period": period},
    )


def check_singular(cfg, graph) -> CheckRecord:
    """Every vertex is singular: each distinct basic open (boxes 0-3 when
    there are countably many) takes its first three hits from the closed
    form of ``dense_indices_hitting``, which has one for every k."""
    x = graph.x_backend
    witnesses = {}
    outside = []
    for b in range(x.basic_count or 4):
        hits = witnesses[f"box_{b}"] = dense_indices_hitting(x, b, 3)
        if not all(box_contains(x.basic_open(b), graph.x_point(m)) for m in hits):
            outside.append(f"box_{b}")
    return CheckRecord(
        "singular",
        "no vertex is regular: the dense sequence hits basic open b at index b + 1 + k*count "
        "(finite X) or pair_index(b, k) + 1 for every k, so edge indices into it are unbounded",
        {"boxes": len(witnesses)},
        not outside,
        {"index_witnesses": witnesses, "outside": outside},
    )


def check_axioms(cfg, graph) -> CheckRecord:
    trials = cfg["bounds"]["axiom_trials"]
    ok = True
    fails = []
    for seed in cfg["seeds"]:
        rep = axiom_sample(DRGroupoid(graph), trials, seed)
        if not rep.ok:
            ok = False
            fails.extend(rep.failures[:4])
    return CheckRecord(
        "axioms",
        "sampled composable triples satisfy the groupoid laws",
        {"trials": trials, "seeds": cfg["seeds"]},
        ok,
        {"failures": fails[:8]},
        cfg["seeds"][0],
    )


def check_contracting(cfg, graph) -> CheckRecord:
    ok = True
    ns = []
    details = []
    for seed in cfg["seeds"]:
        rng = random.Random(seed)
        for _ in range(3):
            u = graph.z_system.backend.random_box(rng)
            vx = graph.x_backend.random_box_around(graph.x_point(1), rng)
            try:
                witness = find_contracting_witness(graph, u, vx, WITNESS_CAP)
            except WitnessSearchError as exc:
                ok = False
                details.append(str(exc))
                continue
            ns.append(witness.n)
            verdict = verify_contracting_witness(witness)
            if not verdict.ok:
                ok = False
                details.extend(verdict.details)
    return CheckRecord(
        "contracting",
        "random vertex boxes admit verified contracting witnesses",
        {"pairs_per_seed": 3, "cap": WITNESS_CAP},
        ok,
        {"translate_counts": ns[:12], "details": details[:6]},
        cfg["seeds"][0],
    )


def check_principality(cfg, graph) -> CheckRecord:
    """Exact: a finite path never has isotropy, and an infinite model path
    has it exactly when the system has a period, so one infinite path
    decides every path; the evidence replays through ``path_from_line``."""
    z = box_rep_point(graph.z_system.backend.full_box())
    mu = param_f(graph, z, EvPeriodic((), (1,)))
    return CheckRecord(
        "principality",
        "no boundary path has nontrivial isotropy: finite paths never do, and "
        "infinite ones do exactly when the witness path has a shift period",
        {},
        isotropy_reduction(mu),
        {"path": path_to_line(mu), "shift_period": mu.shift_period()},
    )


def check_ktheory(cfg, graph) -> CheckRecord:
    try:
        zmeta = z_factor_ktheory(graph.z_system)
        k0, k1 = model_ktheory(graph.x_backend, zmeta)
        ok = True
        evidence = {"K0": str(k0), "K1": str(k1), "provenance": "declared backend metadata"}
    except KTheoryError as exc:
        ok = False
        evidence = {"error": str(exc)}
    return CheckRecord(
        "ktheory",
        "the algebra of the model graph has the declared K-theory of the X factor, "
        "unit class preserved for compact X",
        {},
        ok,
        evidence,
    )


def check_dimension(cfg, graph) -> CheckRecord:
    x_dim = graph.x_backend.dim
    x_is_point = graph.x_is_point()
    rows = {}
    for dz in (2, 3):
        bound, refined = dim_bound(dz, x_dim, x_is_point)
        rows[f"dim_z_{dz}"] = {"bound": bound, "refined": refined}
    return CheckRecord(
        "dimension",
        "the boundary-space dimension bound 2*dimZ + dimX + 1 (exact value dimZ "
        "over a one-point X)",
        {"dim_x": x_dim, "x_is_point": x_is_point},
        True,
        rows,
    )


# recorded after a full battery, not gating
CLASSIFICATION_NOTE = CheckRecord(
    "classification",
    "identifying the algebra from its K-theory uses the classification of "
    "simple purely infinite algebras: cited, not mechanized here",
    {},
    True,
    informational=True,
)


CHECKS = {
    "backends": check_backends,
    "minimality": check_minimality,
    "freeness": check_freeness,
    "singular": check_singular,
    "axioms": check_axioms,
    "contracting": check_contracting,
    "principality": check_principality,
    "ktheory": check_ktheory,
    "dimension": check_dimension,
}


def run_battery(cfg, only: str | None = None) -> Report:
    graph = build_model_graph(build_system(cfg), build_x_backend(cfg))
    report = Report(cfg)
    for name in [only] if only else CHECKS:
        report.add(CHECKS[name](cfg, graph))
    if only is None:
        report.add(CLASSIFICATION_NOTE)
    return report


# ---------------------------------------------------------------------------
# sequence descriptions from JSON
# ---------------------------------------------------------------------------


def _parsed(where: str, parse, text: str):
    """``parse(text)``, with bad content reported against the field."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{where}: nested too deeply") from None


def _factor_point(where: str, backend, factor: str, text: str):
    """A point token that must belong to ``backend``, the named factor."""
    return _parsed(where, lambda tok: factor_point(backend, tok, factor), text)


def _index_data(tok: str):
    """``<head>|<cycle>`` for infinite index data, else a finite tuple."""
    if "|" in tok:
        return _ev_periodic_from_token(tok)
    idx = tuple(int(v) for v in tok.split(",") if v)
    if any(v < 1 for v in idx):
        raise BoundaryError("edge indices must be >= 1")
    return idx


def _point_rule_from_obj(obj: dict, graph) -> ConstantPointRule | ApproachPointRule:
    rules = {"constant": ConstantPointRule, "approach": ApproachPointRule}
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in rules:
        raise ConfigError(f"sequence.tail.z_rule.kind: unknown kind {kind!r}")
    _known_fields(obj, "sequence.tail.z_rule", ("kind", "point"))
    token = _field(obj, "point", "sequence.tail.z_rule", str)
    where = "sequence.tail.z_rule.point"
    return rules[kind](_factor_point(where, graph.z_system.backend, "the Z factor", token))


#: the fields each tail kind reads, besides ``kind``
TAIL_FIELDS = {
    "constant": ("path",),
    "escaping": ("prefix", "x_last", "x_box", "rep_start"),
    "base-point": ("idx", "x_last", "z_rule"),
    "head-only": (),
}


def parse_sequence_doc(obj) -> tuple[SequenceDescription, object]:
    if not isinstance(obj, dict):
        raise ConfigError("sequence: expected a JSON object")
    _known_fields(obj, "sequence", ("model", "head", "tail", "limit"))
    model = _field(obj, "model", "sequence", dict, {})
    _known_fields(model, "sequence.model", ("z_backend", "x_backend"))
    z = _parse_factor(model, "z_backend", "odometer", SYSTEM_BUILDERS, "sequence.model")
    x = _parse_factor(model, "x_backend", "point", X_BACKEND_BUILDERS, "sequence.model")
    graph = build_model_graph(_build(z, SYSTEM_BUILDERS), _build(x, X_BACKEND_BUILDERS))

    def path_line(where: str, line: str):
        return _parsed(where, lambda text: path_from_line(text, graph), line)

    head_lines = _field(obj, "head", "sequence", list, [])
    if not all(isinstance(line, str) for line in head_lines):
        raise ConfigError("sequence.head: expected a list of path lines")
    head = tuple(path_line(f"sequence.head[{i}]", line) for i, line in enumerate(head_lines))
    tail_obj = obj.get("tail")
    if not isinstance(tail_obj, dict) or "kind" not in tail_obj:
        raise ConfigError("sequence.tail: expected an object with a 'kind'")
    kind = tail_obj["kind"]
    if not isinstance(kind, str) or kind not in TAIL_FIELDS:
        raise ConfigError(f"sequence.tail.kind: unknown kind {kind!r}")
    _known_fields(tail_obj, "sequence.tail", ("kind",) + TAIL_FIELDS[kind])

    def field(key: str, typ: type = str, default=_REQUIRED):
        return _field(tail_obj, key, "sequence.tail", typ, default)

    def x_last():
        where = "sequence.tail.x_last"
        return _factor_point(where, graph.x_backend, "the X factor", field("x_last"))

    def count(key: str):
        value = field(key, int, 0)
        if value < 0:
            raise ConfigError(f"sequence.tail.{key}: expected a non-negative integer")
        return value

    if kind == "constant":
        tail = ConstantTail(path_line("sequence.tail.path", field("path")))
    elif kind == "escaping":
        prefix = path_line("sequence.tail.prefix", field("prefix"))
        if prefix.length == INFINITE:
            raise ConfigError("sequence.tail.prefix: escaping tails extend a finite prefix")
        args = (prefix, x_last(), count("x_box"), count("rep_start"))
        try:
            tail = EscapingTail(*args)
        except BoundaryError as exc:
            raise ConfigError(f"sequence.tail.x_box: {exc}") from None
    elif kind == "base-point":
        idx = _parsed("sequence.tail.idx", _index_data, field("idx"))
        # finite index data ends in an edge with x coordinate x_last
        last = x_last() if isinstance(idx, tuple) or "x_last" in tail_obj else None
        tail = BasePointTail(graph, _point_rule_from_obj(field("z_rule", dict), graph), idx, last)
    else:
        tail = HeadOnlyTail()
    limit = path_line("sequence.limit", _field(obj, "limit", "sequence", str))
    return SequenceDescription(head, tail), limit


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"{out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _load_config(args) -> dict:
    obj = load_json(args.config) if args.config else {}
    cfg = parse_config(obj)
    if args.seed is not None:
        cfg["seeds"] = [args.seed]
    return cfg


#: the flags only run, report, check and a bare ``groupoidlab`` take, with their defaults
BATTERY_FLAGS = {"config": None, "seed": None, "format": "json"}


def main(argv=None) -> int:
    # A subparser sets only the options it was given (SUPPRESS), so an
    # option may go before or after the subcommand.
    out = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    out.add_argument("--out", help="write the output to a file")
    common = argparse.ArgumentParser(add_help=False, parents=[out], argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="path to a JSON config")
    common.add_argument("--seed", type=int, help="replace the config seed list")
    common.add_argument("--format", choices=["json", "text"], help="default: json")
    parser = argparse.ArgumentParser(
        prog="groupoidlab",
        description="exact verification battery for groupoid models of graph algebras",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("run", help="run the full battery (default)", parents=[common])
    sub.add_parser("report", help="alias for run", parents=[common])
    p_check = sub.add_parser("check", help="run a single check", parents=[common])
    p_check.add_argument("name")
    p_kt = sub.add_parser("ktheory", help="K-theory of a discrete graph from JSON", parents=[out])
    p_kt.add_argument("graph")
    p_snf = sub.add_parser("snf", help="Smith normal form of an integer matrix from JSON", parents=[out])
    p_snf.add_argument("matrix")
    p_conv = sub.add_parser(
        "converge", help="run the convergence oracle on a sequence document", parents=[out]
    )
    p_conv.add_argument("sequence")
    # argparse would read the value of an unknown option before the
    # subcommand as the subcommand; name the option instead, as it is
    # named after the subcommand
    lead = argparse.ArgumentParser(add_help=False, parents=[common], exit_on_error=False)
    lead.add_argument("-h", "--help", action="store_true")
    try:
        rest = lead.parse_known_args(argv)[1]
    except argparse.ArgumentError:
        rest = []  # the full parse below reports it
    before = rest[: next((i for i, t in enumerate(rest) if t in sub.choices), len(rest))]
    if before and before[0].startswith("-"):
        parser.error("unrecognized arguments: " + " ".join(before))
    args = parser.parse_args(argv)
    given = sorted(BATTERY_FLAGS.keys() & vars(args).keys())
    if given and args.command in ("ktheory", "snf", "converge"):
        sub.choices[args.command].error("unrecognized arguments: " + " ".join(f"--{k}" for k in given))
    args = argparse.Namespace(**{"out": None, **BATTERY_FLAGS, **vars(args)})

    try:
        if args.command in (None, "run", "report", "check"):
            only = getattr(args, "name", None)
            if only is not None and only not in CHECKS:
                available = ", ".join(sorted(CHECKS))
                sys.stderr.write(f"unknown check {only!r}; available: {available}\n")
                return 2
            report = run_battery(_load_config(args), only)
            _emit(report.to_json() if args.format == "json" else report.to_text(), args.out)
            return 0 if report.overall else 1
        if args.command == "ktheory":
            obj = load_json(args.graph)
            graph = discrete_graph_from_obj(obj)
            k0, k1 = graph_ktheory(graph)
            unit = None if k0.unit_class is None else list(k0.unit_class)
            order = None if unit is None else k0.unit_order() or "infinite"
            out = {
                "K0": {"rank": k0.rank, "torsion": list(k0.torsion),
                       "unit": unit, "unit_order": order},
                "K1": {"rank": k1.rank, "torsion": list(k1.torsion), "unit": None},
            }
            _emit(json.dumps(out, sort_keys=True, indent=2) + "\n", args.out)
            return 0
        if args.command == "snf":
            entries = load_json(args.matrix)
            if isinstance(entries, dict):
                entries = entries.get("entries")
            try:
                matrix = validate_matrix(entries)
            except KTheoryError as exc:
                raise ConfigError(f"{args.matrix}: {exc}")
            d, p, q = snf(matrix)
            _emit(json.dumps({"D": d, "P": p, "Q": q}, sort_keys=True, indent=2) + "\n", args.out)
            return 0
        if args.command == "converge":
            desc, limit = parse_sequence_doc(load_json(args.sequence))
            rep = converges(desc, limit)
            out = {
                "ranges": rep.ranges,
                "prefixes": rep.prefixes,
                "escape": rep.escape,
                "verdict": rep.verdict,
                "notes": list(rep.notes),
            }
            _emit(json.dumps(out, sort_keys=True, indent=2) + "\n", args.out)
            return 0
    except (ConfigError, KTheoryError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 2


def discrete_graph_from_obj(obj) -> DiscreteGraph | OneVertexLoopGraph:
    if not isinstance(obj, dict):
        raise ConfigError("graph: expected a JSON object")
    if obj.get("kind") == "one-vertex-loops":
        _known_fields(obj, "graph", ("kind",))
        return OneVertexLoopGraph()
    _known_fields(obj, "graph", ("vertices", "edges", "singular"))
    vertices = obj.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ConfigError("graph.vertices: expected a list of strings")
    edges = []
    for i, e in enumerate(_field(obj, "edges", "graph", list, [])):
        if not isinstance(e, list) or len(e) != 3:
            raise ConfigError(f"graph.edges[{i}]: expected [source, target, label]")
        if not (isinstance(e[0], str) and isinstance(e[1], str)):
            raise ConfigError(f"graph.edges[{i}]: source and target must be vertex names")
        if not isinstance(e[2], (str, int)) or isinstance(e[2], bool):
            raise ConfigError(f"graph.edges[{i}]: label must be a string or an integer")
        edges.append(tuple(e))
    singular = _field(obj, "singular", "graph", list, [])
    if not all(isinstance(v, str) for v in singular):
        raise ConfigError("graph.singular: expected a list of vertex names")
    try:
        return DiscreteGraph(vertices, edges, singular)
    except GraphError as exc:
        raise ConfigError(f"graph: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
