"""The benchmark's tracer still finds every name it wraps.

``bench/tracing.py`` looks each traced function up with ``vars(owner)[attr]``,
so renaming or moving one of them breaks ``bench/run.py --trace 1``.  The
benchmark directory's own tests (``bench/test_oracles.py``) check its
oracles, not the tracer, so this test runs the tracer once over a real
command.
"""

import sys
from pathlib import Path

from logmc import arrangement, cli, hirzebruch, kring

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402  (lives in bench/, put on the path above)


def _bindings():
    """Every binding the tracer may replace, by identity of the value."""
    out = {}
    for owner, attr in [*tracing.SPANS, *tracing.COUNTS, *tracing.LAYERED]:
        out[owner, attr] = vars(owner)[attr]
    out[tracing._linalg.IntEchelon, "__init__"] = vars(tracing._linalg.IntEchelon)["__init__"]
    for mod in tracing.MODULES:
        for name, value in vars(mod).items():
            if callable(value):
                out[mod, name] = value
    return out


def test_tracer_records_and_restores():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _ = cli.run(cli.RunConfig(command="csm", output_format="json",
                                        input_path=str(ROOT / "corpus" / "braid.arr")))
        # csm runs the stages fused, reads the Todd class from the GRR table
        # and divides its packed rows by 1+y without exact_div_one_plus_y;
        # call them through the module attributes the tracer replaces, so
        # their wrappers are exercised too
        hirzebruch.clear_denominator(hirzebruch.normalize(hirzebruch.grr_transform(
            kring.mc_free_exponents((1, 2, 3), 2))))
        hirzebruch.todd_class(2)
        one = kring.KClass.one(2)
        kring.exact_div_one_plus_y(kring.KPoly(2, (one, one)))
        # no command builds a Subspace or an IntEchelon of the lattice layer
        plane = arrangement.Subspace.ambient(3).intersect_form((1, 0, 0))
        plane.contains(plane.intersect_form((0, 1, 0)))
        ech = tracing._linalg.IntEchelon(3)
        ech.add((1, 2, 3))
        ech.contains((2, 4, 6))
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.run", "arrangement.build_lattice", "hirzebruch.csm",
            "hirzebruch.grr", "hirzebruch.clear_denominator"} <= names
    assert all(span[2] >= span[1] for span in tracer.spans)
    assert tracer.counts["kring.div_one_plus_y_calls"] > 0
    assert tracer.counts["hirzebruch.todd_calls"] > 0
    assert tracer.counts["arrangement.intersect_form_calls"] > 0
    assert tracer.counts["arrangement.contains_calls"] > 0
    assert tracer.counts["linalg.echelon_add_calls.none"] > 0
    assert tracer.counts["linalg.echelon_contains_calls.none"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed


def test_bench_tracer_on_curves():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _ = cli.run(cli.RunConfig(command="curve", output_format="json",
                                        input_path=str(ROOT / "corpus" / "cusp.json")))
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.run", "curves.singularity", "curves.local_invariants",
            "curves.parse", "curves.branch_count"} <= names
    assert all(span[2] >= span[1] for span in tracer.spans)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed
