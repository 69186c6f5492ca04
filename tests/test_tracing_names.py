"""The benchmark's per-layer tracer looks program functions up by name;
a rename in the package must fail here, not as a KeyError in a traced run."""

import importlib
import random
import sys
from pathlib import Path

import groupoidlab.cli  # noqa: F401  (loads every module the spans name)
from groupoidlab.boundary import EvPeriodic, LoopPath, param_f
from groupoidlab.graphs import OneVertexLoopGraph, build_model_graph, param_f_k
from groupoidlab.groupoid import principality_sample
from groupoidlab.spaces import CircleBackend, golden_rotation

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.modules.pop("tracing", None)
        sys.modules.pop("checks", None)


def _load_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        return importlib.import_module("checks")
    finally:
        sys.modules.pop("checks", None)


def _load_spans(monkeypatch):
    return _load_tracing(monkeypatch).SPANS


def test_every_traced_name_resolves(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans
    missing = []
    for mod_name, cls_name, attrs, _key, _extra in spans:
        mod = sys.modules.get(f"groupoidlab.{mod_name}")
        if mod is None:
            missing.append(f"groupoidlab.{mod_name}")
            continue
        # the tracer patches a method in the class's own namespace and a
        # function in the module's
        owner = getattr(mod, cls_name, None) if cls_name else mod
        names = vars(owner) if owner is not None else {}
        where = f"{mod_name}.{cls_name}" if cls_name else mod_name
        missing += [f"{where}.{attr}" for attr in attrs if not callable(names.get(attr))]
    assert not missing, missing


def test_isotropy_keys_read_the_path_of_a_finite_model_path_only(monkeypatch):
    """The tracer counts a path's isotropy keys from ``getattr(mu, "path",
    None)``: None on an infinite model path, so the bound counts, and on a
    finite one, however it was reached, the path ``param_f_k`` builds, so
    its length caps the count."""
    graph = build_model_graph(golden_rotation(), CircleBackend())
    rng = random.Random(4)
    z, x = graph.z_system.backend.random_point(rng), graph.x_backend.random_point(rng)
    infinite = param_f(graph, z, EvPeriodic((2,), (1, 3)))
    assert getattr(infinite, "path", None) is None
    assert getattr(infinite.cons(4).drop(2), "path", None) is None
    for idx in ((), (2, 1, 3)):
        finite = param_f(graph, z, idx, x)
        assert getattr(finite, "path", None) == param_f_k(graph, z, x, idx)
        assert getattr(finite.cons(4).drop(1), "path", None) == param_f_k(graph, z, x, idx)
    keys = _load_tracing(monkeypatch)._isotropy_keys
    assert keys((infinite, 12), None) == 13 and keys((finite, 12), None) == 4


def test_principality_checker_reads_the_loop_word_labels(monkeypatch):
    """The benchmark's ``check_principality`` reads ``labels`` off each
    loop-control hit to re-derive its isotropy pairs, so a renamed
    attribute must fail here, not as an incorrect output in a benchmark
    run; it accepts the golden x circle samples too.  An infinite loop
    word has no ``path``, which the tracer's isotropy key count reads."""
    checks = _load_checks(monkeypatch)
    loop = OneVertexLoopGraph()
    rep = principality_sample(loop, 50, 320, 7)
    assert rep.isotropy
    assert checks.check_principality(rep, samples=50, bound=320, seed=7, control=True) == []
    golden = build_model_graph(golden_rotation(), CircleBackend())
    rep = principality_sample(golden, 50, 320, 7)
    assert checks.check_principality(rep, samples=50, bound=320, seed=7, control=False) == []
    word = LoopPath(loop, EvPeriodic((2,), (1, 3)))
    assert getattr(word, "path", None) is None
    assert getattr(word.cons(4).drop(2), "path", None) is None
    assert getattr(LoopPath(loop, (2, 1)), "path", None) == loop.path((2, 1))
