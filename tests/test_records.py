"""The package's records, built on linalg.Frozen, against dataclass twins.

For each record this module makes a frozen dataclass with the fields
and defaults the record had as a dataclass, written out below, and
compares record and twin built from the same values: repr text, ==
against equal and changed values, hash, the TypeError of a call that
does not fit and the argument it names, assignment, and copy, deepcopy
and pickle round trips.
The twins live at module level, so pickle finds them by name.
"""

import copy
import dataclasses
import pickle
import re

import pytest

from cases import closure_example
from gnla import (
    ad_matrix,
    algebra,
    assemble_pencil,
    catalog,
    certifier,
    classify,
    classify_by_iteration,
    cli,
    constructions,
    decompose_special_extension,
    det_pencil,
    groebner,
    h0,
    linalg,
    minor_ideal,
    prolong_layer,
    prolongation,
    validate,
)

# each record's fields in order, a field with a default as (name, default);
# the records are named through their modules, their names are the twins'
FIELDS = {
    algebra.AdMatrix: ["element", "matrix"],
    algebra.ValidationReport: ["checks", "failures", "layer_dims", "depth"],
    certifier.TypeVerdict: [
        "kind", ("total_dim", None), ("layer_dims", None), ("witness", None),
        ("certificate", None), ("note", None), ("cap_exceeded", False),
        ("algebraic_witness", None)],
    certifier.DecompositionResult: [
        "quotient", "ideal_basis", "cocycle", "adapted", "witness",
        "transversal"],
    cli.Report: [
        "algebra", "dims", "depth", "kind", ("witness", None),
        ("total_dim", None), ("layers", None), ("note", None),
        ("version", cli.VERSION), ("elapsed", None)],
    constructions.Cochain2: ["s", "values"],
    constructions.ExtensionData: [
        "base", "covector_kernel", "transversal", "s", "cocycle"],
    constructions.PencilSpec: ["blocks"],
    constructions.PencilForm: [
        "side", "coefficients", "identically_zero", "rational_roots"],
    groebner.PolynomialIdeal: ["generators", ("degree_cap", 12)],
    linalg.MatrixSubspace: ["side", "basis", "span"],
    prolongation.ProlongationLayer: ["degree", "maps"],
    prolongation.IterationVerdict: [
        "kind", "layer_dims", "total_dim", "layers"],
}
UNCOMPARED = {algebra.ValidationReport: {"checks"}, cli.Report: {"elapsed"}}


def twin_of(cls):
    """The frozen dataclass with cls's fields and defaults."""
    spec = []
    for item in FIELDS[cls]:
        name, default = item if isinstance(item, tuple) else (item, None)
        options = {"compare": name not in UNCOMPARED.get(cls, ())}
        if isinstance(item, tuple):
            options["default"] = default
        spec.append((name, object, dataclasses.field(**options)))
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
    twin.__module__ = __name__
    return twin


TWINS = {cls: twin_of(cls) for cls in FIELDS}
globals().update({cls.__name__: twin for cls, twin in TWINS.items()})


def samples():
    """Records made by the package, two or more of some classes."""
    heis = catalog("heisenberg", dim=5)
    nontrivial = catalog("nontrivial6")
    closure = closure_example()
    verdicts = [classify(a) for a in (heis, closure, catalog("kgen", k=4))]
    d = decompose_special_extension(nontrivial, classify(nontrivial).witness)
    ideal = minor_ideal(closure)
    read = minor_ideal(closure)
    read.groebner()
    spec = constructions.PencilSpec.parse("M:1,E:1:a=2,F:2")
    (b1, b2), _ = assemble_pencil(spec)
    lay0 = prolong_layer(heis, 0, [])
    lay1 = prolong_layer(heis, 1, [lay0])
    lay1._columns
    return [
        ad_matrix(heis, verdicts[0].witness),
        validate(heis),
        validate(catalog("heisenberg", dim=3)),
        *verdicts,
        d,
        cli._report_from_verdict(heis, verdicts[0], elapsed=0.25),
        cli._report_from_verdict(closure, verdicts[1]),
        d.cocycle,
        constructions.ExtensionData.from_adapted_base(
            d.quotient, len(d.ideal_basis), d.cocycle),
        spec,
        det_pencil(b1, b2),
        ideal,
        read,
        h0(heis),
        lay0,
        lay1,
        classify_by_iteration(catalog("kgen", k=4)),
    ]


def values_of(record):
    return [getattr(record, name if isinstance(name, str) else name[0])
            for name in FIELDS[type(record)]]


def hashed(obj):
    """hash(obj), or the text of the TypeError it raises."""
    try:
        return hash(obj)
    except TypeError as e:
        return str(e)


def type_error(build, *args, **kwargs):
    with pytest.raises(TypeError) as info:
        build(*args, **kwargs)
    return str(info.value)


def test_every_record_is_sampled():
    """The samples hold each record, so the tests below cover all 13;
    test_imports requires them among Frozen's slotted subclasses."""
    assert {type(r) for r in samples()} == set(FIELDS)


def test_records_and_their_twins_agree():
    """repr, ==, hash and assignment agree on the package's records."""
    for record in samples():
        cls = type(record)
        values = values_of(record)
        twin = TWINS[cls](*values)
        assert repr(record) == repr(twin)
        assert record == cls(*values) and twin == TWINS[cls](*values)
        assert record == cls(**dict(zip(twin.__dataclass_fields__, values)))
        assert record != twin and twin != record
        assert hashed(record) == hashed(twin), cls.__name__
        for k in range(len(values)):
            changed = values[:k] + [object()] + values[k + 1:]
            other, twin_other = cls._trusted(*changed), TWINS[cls](*changed)
            assert (record == other) == (twin == twin_other)
            assert (record != other) == (twin != twin_other)
            if record == other:
                assert hashed(record) == hashed(other)
        name = next(iter(twin.__dataclass_fields__))
        with pytest.raises(AttributeError,
                           match="%s is immutable" % cls.__name__):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            setattr(twin, name, values[0])


def test_lazy_slots_take_no_part_in_equality_hash_or_repr():
    closure = closure_example()
    read, unread = minor_ideal(closure), minor_ideal(closure)
    read.groebner()
    a = catalog("heisenberg", dim=5)
    lay = prolong_layer(a, 1, [prolong_layer(a, 0, [])])
    built = prolong_layer(a, 1, [prolong_layer(a, 0, [])])
    built._columns
    for x, y in ((read, unread), (built, lay)):
        assert hasattr(x, x.__slots__[-1])
        assert not hasattr(y, y.__slots__[-1])
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)


def test_calls_that_do_not_fit_raise_the_twins_type_error():
    """Missing, unknown, repeated and surplus arguments raise TypeError,
    naming the argument the twin names first, if it names one."""
    for record in samples():
        cls = type(record)
        twin = TWINS[cls]
        values = values_of(record)
        names = list(twin.__dataclass_fields__)
        required = sum(1 for item in FIELDS[cls] if isinstance(item, str))
        calls = [((), {}),
                 (values[:required - 1], {}),
                 (values, {"unknown": 1}),
                 ((), {"unknown": 1, names[0]: values[0]}),
                 ((), dict(zip(names[1:], values[1:]))),
                 (values + [None], {}),
                 (values + [None], {"unknown": 1}),
                 (values[:1], {names[0]: values[0]}),
                 (values[:1], {"unknown": 1, names[0]: values[0]})]
        for args, kwargs in calls:
            named = [re.findall("'[^']*'", type_error(build, *args, **kwargs))
                     for build in (cls, twin)]
            assert named[0][:1] == named[1][:1], (cls, args, kwargs)


def test_records_and_their_twins_survive_copy_and_pickle():
    """Each round trip gives an equal value of the same class with the
    same hash and the same repr."""
    for record in samples():
        cls = type(record)
        twin = TWINS[cls](*values_of(record))
        for trip in (copy.copy, copy.deepcopy,
                     lambda x: pickle.loads(pickle.dumps(x))):
            back, twin_back = trip(record), trip(twin)
            assert type(back) is cls and type(twin_back) is type(twin)
            assert back == record and twin_back == twin
            assert hashed(back) == hashed(twin_back) == hashed(record)
            assert repr(back) == repr(twin_back) == repr(twin)
