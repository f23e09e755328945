"""The fifteen uniqueness cases and the verification pipeline.

Each case record carries the lattice, cycle shape(s), inner-automorphism
data and expected invariants; verify_case replays every computable step of
the construction/inner-automorphism/unique-class argument and records
pass/fail per step.  Facts imported from lattice computer-algebra computations
the toolkit cannot reproduce are carried with provenance "paper-asserted" and
never recomputed.  Step (a) reports the conjugacy class lengths, the coset
groups and the shifted twisted weights.  The Niemeier label and the fixed-
and orbit-lattice genera of each cycle shape are present in cases.json but
not read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from pathlib import Path

from .cartan import kind_name, validate_kind
from .kacaut import (
    _inner,
    admits_fixed_subalgebra,
    fixed_label,
    inner_from_coweight,
    witness_fault,
)
from .liealg import (
    AffineStructure,
    _coroot_order,
    _in_alcove_range,
    build_root_system,
    scale_vector,
    schellekens_constraint,
)
from .modcurve import GENUS_ZERO_LEVELS, divisors
from .orbifold import (
    CycleShape,
    DimProfile,
    _is_prime,
    alcove_representative,
    dim_orbifold,
    render_weight_tuple,
    screen_problematic_modules,
    twist_type,
    vacuum_anomaly,
)

PAPER_ASSERTED = "paper-asserted"
DATA = Path(__file__).parent / "data"


class DataLoadError(ValueError):
    pass


def _data_text(name: str) -> str:
    """The text of the shipped data file at name, a path below DATA."""
    return (DATA / name).read_text()


def _need(where, parent, name):
    """The field of parent whose key is the last dotted part of name; a
    missing field, or a parent that is not an object, is a DataLoadError
    naming the record (where) and field."""
    key = name.rpartition(".")[2]
    if type(parent) is not dict or key not in parent:
        raise DataLoadError(f"{where}: missing field {name}")
    return parent[key]


def _built(where, name, build, value):
    """build(value), with an error in it naming the record and field."""
    try:
        return build(value)
    except (ValueError, TypeError, AttributeError) as err:
        raise DataLoadError(f"{where}: {name}: {err}") from None


def _load_records(path, name, key):
    """The records under key in the JSON of the file at path, or of the
    shipped data file name when path is None.  Text that is not JSON, a top
    level or record that is not an object, a key that is missing or not a
    list and a key repeated in one object (which json.loads would let the
    last one win) are each a DataLoadError, found before any field of a
    record is read."""
    text = Path(path).read_text() if path else _data_text(name)

    def unique(pairs):
        out = dict(pairs)
        if len(out) < len(pairs):
            keys = [k for k, _ in pairs]
            repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise DataLoadError(f"{name}: repeated key {repeated!r}")
        return out

    try:
        raw = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as err:
        raise DataLoadError(f"{name}: {err}") from None
    _typed(name, "top level", raw, dict)
    records = _typed(name, key, _need(name, raw, key), list)
    for index, record in enumerate(records):
        _typed(name, f"{key}[{index}]", record, dict)
    return records


def _rational(where, name, value) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise DataLoadError(f"{where}: {name}: {value!r} is not a rational number") from None


def _typed(where, name, value, cls=int, least=None):
    """value, if its type is exactly cls and it is not below least; else a
    DataLoadError naming the record (where: "case 11", "entry 62") and field."""
    if type(value) is not cls or (least is not None and value < least):
        what = {int: "an integer", bool: "a boolean", list: "a list", dict: "an object"}[cls]
        what += "" if least is None else f" >= {least}"
        raise DataLoadError(f"{where}: {name}: {value!r} is not {what}")
    return value


def _decimal(key: str):
    """A JSON key read as a count: its int if it is decimal digits with no
    sign, space or leading zero, else None."""
    return int(key) if key.isdecimal() and str(int(key)) == key else None


def _cycle_length(key: str) -> int:
    if (length := _decimal(key)) is None:
        raise ValueError(f"cycle length {key!r} is not a decimal integer")
    return length


def _structure(node) -> AffineStructure:
    return AffineStructure(
        tuple(((letter, rank), level) for letter, rank, level in node["factors"]),
        node.get("abelianRank", 0),
    )


@dataclass(frozen=True)
class SchellekensEntry:
    no: int
    structure: AffineStructure
    dim: int
    transcription: str = "checked"

    def label(self) -> str:
        return self.structure.label()


def load_schellekens(path=None) -> list[SchellekensEntry]:
    """The 71 possible weight-one structures, invariants checked on load.
    The entries are listed in number order 0..70 and their dims never
    decrease along it; the file is the table's only copy."""
    entries = []
    for node in _load_records(path, "schellekens.json", "entries"):
        where = f"entry {node.get('no', '?')}"
        no, dim = (_typed(where, key, _need(where, node, key)) for key in ("no", "dim"))
        _typed(where, "abelianRank", node.get("abelianRank", 0), least=0)
        _need(where, node, "factors")
        structure = _built(where, "factors", _structure, node)
        transcription = node.get("transcription", "checked")
        if transcription not in ("checked", "uncertain-transcription"):
            raise DataLoadError(f"{where}: transcription: {transcription!r} is not "
                                "'checked' or 'uncertain-transcription'")
        if structure.dimension() != dim:
            raise DataLoadError(f"{where}: stored dim {dim} != computed {structure.dimension()}")
        if structure.components and not schellekens_constraint(structure)[0]:
            raise DataLoadError(f"{where} violates the dual-Coxeter/level constraint")
        if no != len(entries):
            raise DataLoadError(f"{where}: listed at position {len(entries)}, "
                                "not in number order 0..70")
        if entries and dim < entries[-1].dim:
            raise DataLoadError(f"{where}: dim {dim} is below the dim {entries[-1].dim} "
                                f"of entry {entries[-1].no}")
        entries.append(SchellekensEntry(no, structure, dim, transcription))
    if len(entries) != 71:
        raise DataLoadError(f"expected 71 entries, found {len(entries)}")
    zero = [e for e in entries if not e.structure.components and not e.structure.abelian_rank]
    abelian = [e for e in entries if not e.structure.components and e.structure.abelian_rank == 24]
    if len(zero) != 1 or len(abelian) != 1:
        raise DataLoadError("the trivial and abelian pseudo-entries must both be present once")
    return entries


@dataclass(frozen=True)
class ShapeRecord:
    shape: CycleShape
    class_length: int
    coset_group: str
    provenance: str
    variant: str = ""


@dataclass(frozen=True)
class OrbifoldCase:
    """One case record.  h and each ihReps entry are kept as the loader read
    them, per-factor Fraction tuples, for the report and the JSON.  Three
    fields are derived from them when the record is built, so
    dataclasses.replace builds them afresh.  scaled_h holds (c, d) per
    factor with h = c/d as scale_vector gives it; steps (c) and (d) read it.
    module_order is the lcm over the factors of the order of h in
    P^vee / Q^vee, the order bound of step (b).  powers[i], for i in
    1..n-1, holds the coset representative of i*h that step (g) checks and
    screens and `orbdim screen` screens, in both forms, and its verdict:
    (Fractions, (c, d) per factor, representative_fault or None).  It is
    the tuple recorded for i itself, h for i = 1 and ih_reps[i] for i in
    2..n-1, else the exact negation of the one recorded for n - i
    (i*h = -((n-i)*h) mod Q^vee), else the alcove reduction of i*h.  The
    loader and step (g) both read the verdict."""

    id: str
    n: int
    shapes: tuple[ShapeRecord, ...]
    source: AffineStructure
    h: tuple
    factor_orders: tuple[int, ...]
    h_norm_sq: Fraction
    fixed_components: tuple
    fixed_abelian: int
    expected_d: int
    target: AffineStructure
    schellekens_no: int
    rho_required: bool
    shifted_rho: tuple
    ih_reps: dict
    problematic_modules: int
    scaled_h: tuple = field(init=False, repr=False, compare=False)
    module_order: int = field(init=False, repr=False, compare=False)
    powers: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = self.source.components
        scaled_h = tuple(map(scale_vector, self.h))
        recorded = {i: (rep, tuple(map(scale_vector, rep))) for i, rep in self.ih_reps.items()}
        recorded[1] = self.h, scaled_h
        powers = {}
        for i in range(1, self.n):
            if i in recorded:
                rep, scaled = recorded[i]
            elif self.n - i in recorded:
                rep, scaled = recorded[self.n - i]
                rep, scaled = (tuple(tuple(-x for x in coords) for coords in rep),
                               tuple((tuple(-x for x in c), d) for c, d in scaled))
            else:
                rep = tuple(alcove_representative(build_root_system(kind), tuple(i * x for x in h))
                            for (kind, _), h in zip(comps, self.h))
                scaled = tuple(map(scale_vector, rep))
            powers[i] = rep, scaled, representative_fault(self.source, scaled, i, scaled_h)
        object.__setattr__(self, "scaled_h", scaled_h)
        object.__setattr__(self, "module_order", lcm(*(
            _coroot_order(kind, c, d) for (kind, _), (c, d) in zip(comps, scaled_h))))
        object.__setattr__(self, "powers", powers)


def _coweights(where, name, value, source):
    """Per-factor coweight coordinates: one list per source factor, of its rank."""
    out = tuple(tuple(_rational(where, name, v) for v in _typed(where, name, coords, list))
                for coords in _typed(where, name, value, list))
    if len(out) != len(source.components):
        raise DataLoadError(f"{where}: {name} must list one coweight per source factor")
    for coords, (kind, _) in zip(out, source.components):
        if len(coords) != kind[1]:
            raise DataLoadError(f"{where}: {name} coordinates do not match the rank of {kind}")
    return out


def representative_fault(source, rep, i, scaled_h):
    """Why rep breaks the representative contract of step (g) for i*h, or
    None: rep - i*h must lie in the coroot lattice and alpha(rep) >= -1 for
    every root.  Both checks read Cartan data alone, so a record computes
    each power's verdict when it is built, with no root system.
    rep and h come in the integer form of an OrbifoldCase, (a, p) and
    (b, q) per factor with rep = a / p and h = b / q; rep - i*h is taken on
    integers over the lcm of the two denominators, and alpha(rep) >= -1 is
    walked once, on (a, p)."""
    for f, ((kind, _), (a, p), (b, q)) in enumerate(zip(source.components, rep, scaled_h)):
        m = lcm(p, q)
        if _coroot_order(kind, [u * (m // p) - i * v * (m // q) for u, v in zip(a, b)], m) != 1:
            return (f"factor {f} ({kind_name(kind)}) differs from {i}*h "
                    "by a coweight outside the coroot lattice")
        if not _in_alcove_range(kind, a, p):
            return f"factor {f} ({kind_name(kind)}) has alpha < -1 for some root"
    return None


def load_cases(path=None) -> list[OrbifoldCase]:
    """The fifteen case records, schema-validated; errors name the field."""
    out = []
    for node in _load_records(path, "cases.json", "cases"):
        cid = node.get("id", "?")
        where = f"case {cid}"
        shapes = []
        for snode in _typed(where, "shapes", _need(where, node, "shapes"), list):
            factors, length, coset, provenance = (_need(where, snode, f"shapes[].{key}")
                for key in ("factors", "classLength", "cosetGroup", "provenance"))
            shape = _built(where, "shapes[].factors", lambda f: CycleShape(
                {_cycle_length(t): b for t, b in f.items()}),
                _typed(where, "shapes[].factors", factors, dict))
            if shape.degree() != 24:
                raise DataLoadError(f"{where}: shapes.factors has degree {shape.degree()}")
            shapes.append(ShapeRecord(shape, _typed(where, "shapes[].classLength", length),
                                      coset, provenance, snode.get("variant", "")))
        for key in ("source", "target"):
            _need(where, _need(where, node, key), f"{key}.factors")
        source = _built(where, "source", _structure, node["source"])
        target = _built(where, "target", _structure, node["target"])
        n = _typed(where, "n", _need(where, node, "n"))
        if n not in GENUS_ZERO_LEVELS - {1}:
            raise DataLoadError(f"{where}: n: {n} is not a genus-zero level >= 2")
        h = _coweights(where, "h", _need(where, node, "h"), source)
        ih_reps = {}
        for key, coords in _typed(where, "ihReps", node.get("ihReps", {}), dict).items():
            i = _decimal(key) or 0
            if not 2 <= i < n:
                raise DataLoadError(f"{where}: ihReps key {key!r} must lie in 2..{n - 1}")
            ih_reps[i] = _coweights(where, f"ihReps[{key!r}]", coords, source)
        fixed = _need(where, node, "fixed")
        case = OrbifoldCase(
            id=str(cid),
            n=n,
            shapes=tuple(shapes),
            source=source,
            h=h,
            factor_orders=tuple(_typed(where, "factorOrders", x) for x in _typed(
                where, "factorOrders", _need(where, node, "factorOrders"), list)),
            h_norm_sq=_rational(where, "hNormSq", _need(where, node, "hNormSq")),
            fixed_components=_built(where, "fixed.components", lambda comps: tuple(sorted(
                validate_kind(tuple(k)) for k in comps)), _need(where, fixed, "fixed.components")),
            fixed_abelian=_typed(where, "fixed.abelianRank",
                                 _need(where, fixed, "fixed.abelianRank"), least=0),
            expected_d=_typed(where, "expectedD", _need(where, node, "expectedD")),
            target=target,
            schellekens_no=_typed(where, "schellekensNo", _need(where, node, "schellekensNo")),
            rho_required=_typed(where, "rhoRequired", _need(where, node, "rhoRequired"), bool),
            shifted_rho=tuple(_rational(where, "shiftedRho", v) for v in
                              _typed(where, "shiftedRho", node.get("shiftedRho", []), list)),
            ih_reps=ih_reps,
            problematic_modules=_typed(where, "problematicModules",
                                       node.get("problematicModules", 0), least=0),
        )
        for name, rep_fault in [("h", case.powers[1][2])] + [
                (f"ihReps[{str(i)!r}]", case.powers[i][2]) for i in ih_reps]:
            if rep_fault:
                raise DataLoadError(f"{where}: {name}: {rep_fault}")
        if case.expected_d != target.dimension():
            raise DataLoadError(
                f"{where}: expectedD {case.expected_d} != dim of target {target.dimension()}")
        out.append(case)
    if [c.id for c in out] != [str(i) for i in range(1, 16)]:
        raise DataLoadError("cases must be exactly 1..15 in order")
    return out


@dataclass
class StepResult:
    name: str
    passed: bool
    expected: object = None
    actual: object = None
    provenance: str = "computed"
    details: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "expected": _jsonable(self.expected),
            "actual": _jsonable(self.actual),
            "provenance": self.provenance,
            "details": self.details,
        }


def json_number(value):
    """The one JSON spelling of a rational: a Fraction that is an integer
    becomes an int, any other a 'p/q' string; other values pass unchanged."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class CaseReport:
    case_id: str
    steps: list = field(default_factory=list)
    screening: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def add(self, *args, **kwargs):
        self.steps.append(StepResult(*args, **kwargs))

    def to_dict(self):
        return {
            "case": self.case_id,
            "passed": self.passed,
            "steps": [s.to_dict() for s in self.steps],
            "screening": _jsonable(self.screening),
        }


def fixed_dims_profile(case) -> DimProfile:
    """dim V_1^{sigma^d} for all d | n: the fixed dimension of d*h per factor,
    read from the memo kacaut._inner on the reduced d*h = (d/g) c / (e/g), h =
    c/e from case.scaled_h, g = gcd(d, e)."""
    dims = dict.fromkeys(divisors(case.n), 0)
    for d in dims:
        for (kind, _), (c, e) in zip(case.source.components, case.scaled_h):
            g = gcd(d, e)
            dims[d] += _inner(kind, tuple(d // g * x for x in c), e // g)[2]
    return DimProfile(case.n, dims)


def schellekens_survivors(table, dim, comps, abelian, order):
    """The entries of dimension `dim` admitting an order-`order` automorphism
    whose fixed subalgebra is `comps` plus an abelian part of rank `abelian`.

    Returns (survivors, faults).  Every survivor's witness is rebuilt as an
    automorphism and checked by kacaut.witness_fault; faults holds one line
    per witness that fails, and a fault is a verification failure."""
    survivors, faults = [], []
    for entry in table:
        if entry.dim != dim:
            continue
        kinds = entry.structure.kinds()
        found, witness = admits_fixed_subalgebra(kinds, comps, abelian, order)
        if found:
            survivors.append(entry)
            fault = witness_fault(kinds, witness, comps, abelian, order)
            if fault:
                faults.append(f"entry {entry.no} ({entry.label()}): {fault}")
    return survivors, faults


def verify_case(case: OrbifoldCase, schellekens) -> CaseReport:
    """Replay every computable step of the case's argument; never raises on
    a failed assertion, all failures are gathered in the report.  A power of
    sigma whose representative breaks the contract of step (g) fails its
    contract row and is not screened."""
    report = CaseReport(case.id)
    systems = [build_root_system(kind) for kind, _ in case.source.components]
    scaled_h = case.scaled_h

    # (a) cycle shapes: degree, vacuum weight, type n{0}
    for record in case.shapes:
        degree = record.shape.degree()
        tag = f"shape {record.shape.label()}"
        report.add(f"(a) {tag}: degree", degree == 24, 24, degree)
        rho = vacuum_anomaly(record.shape)
        ttype = twist_type(case.n, rho)
        report.add(f"(a) {tag}: type n{{0}}", ttype.t == 0, 0, ttype.t)
        if case.rho_required:
            report.add(f"(a) {tag}: twisted-sector weight 1", rho == 1, 1, rho)
        report.add(f"(a) {tag}: conjugacy class length", True, record.class_length,
                   record.class_length, provenance=PAPER_ASSERTED,
                   details="class lengths come from lattice computer algebra, not recomputed")
        report.add(f"(a) {tag}: coset group (Q^nu)'/(L^nu)'", True, record.coset_group,
                   record.coset_group, provenance=PAPER_ASSERTED)
    if case.shifted_rho:
        report.add("(a) shifted twisted weights of non-trivial lifts", True,
                   list(case.shifted_rho), list(case.shifted_rho), provenance=PAPER_ASSERTED,
                   details="would need explicit lattice models to recompute")

    # (b) inner automorphism: per-factor orders and fixed subalgebra
    inner = [inner_from_coweight(rs, h) for rs, h in zip(systems, case.h)]
    orders = [order for order, _, _ in inner]
    abelian = sum(ab for _, (_, ab), _ in inner)
    report.add("(b) per-factor orders on V1", tuple(orders) == case.factor_orders,
               list(case.factor_orders), orders)
    got_fixed = tuple(sorted(k for _, (comps, _), _ in inner for k in comps))
    report.add("(b) fixed subalgebra", got_fixed == case.fixed_components
               and abelian == case.fixed_abelian,
               {"components": list(case.fixed_components), "abelian": case.fixed_abelian},
               {"components": list(got_fixed), "abelian": abelian})
    algebra_order = lcm(*orders)
    report.add("(b) order bounds coincide",
               case.module_order == case.n and algebra_order == case.n,
               {"algebra": case.n, "module": case.n},
               {"algebra": algebra_order, "module": case.module_order})

    # (c) norm of h against the level-weighted form
    hh = sum(level * rs.coweight_norm(c, d)
             for rs, (c, d), (_, level) in zip(systems, scaled_h, case.source.components))
    report.add("(c) <h,h>", hh == case.h_norm_sq, case.h_norm_sq, hh)

    # (d) fixed-point dimensions for all powers
    profile = fixed_dims_profile(case)
    report.add("(d) dim V1^sigma^n equals dim V1",
               profile.dims[case.n] == case.source.dimension(),
               case.source.dimension(), profile.dims[case.n])
    chain_ok = all(profile.dims[d] <= profile.dims[e]
                   for d in divisors(case.n) for e in divisors(case.n)
                   if e % d == 0)
    report.add("(d) fixed dims increase along divisor chains", chain_ok, True, chain_ok,
               details=str(profile.dims))

    # (e) the dimension formula
    d_value = dim_orbifold(profile)
    report.add("(e) orbifold dimension", d_value == case.expected_d, case.expected_d, d_value)
    if _is_prime(case.n):               # c_1 = n + 1 and c_n = -1 at prime n
        lhs = case.source.dimension() + case.expected_d
        rhs = 24 + (case.n + 1) * profile.dims[1]
        report.add("(e) prime-order symmetry identity", lhs == rhs, rhs, lhs)

    # (f) Schellekens scan: unique survivor in dimension d; the entry
    # numbered schellekensNo must be the source
    survivors, faults = schellekens_survivors(schellekens, case.expected_d,
                                              case.fixed_components, case.fixed_abelian, case.n)
    if [e.structure for e in schellekens if e.no == case.schellekens_no] != [case.source]:
        faults.append(f"schellekensNo {case.schellekens_no} does not name the source "
                      f"{case.source.label()}")
    expected_label = case.target.label()
    got_labels = [e.label() for e in survivors]
    report.add("(f) unique Schellekens survivor",
               len(survivors) == 1 and survivors[0].structure == case.target and not faults,
               [expected_label], got_labels, details="; ".join(faults))

    # (g) conformal-weight screening for every power of sigma
    for i, (rep, _, fault) in case.powers.items():
        report.add(f"(g) i={i} representative contract", fault is None, True, fault is None,
                   details=fault or "")
        if fault:
            continue
        found = screen_problematic_modules(case.source, rep, floor=1)
        report.screening[i] = screening_rows(found)
        expected = case.problematic_modules
        if not expected:
            report.add(f"(g) i={i} problematic modules empty", not found, 0, len(found))
        elif i == 1:
            report.add("(g) i=1 problematic modules", len(found) == expected, expected, len(found))
        else:
            report.add(f"(g) i={i} problematic modules recorded", True, None, len(found),
                       details="excluded by the module-decomposition argument, outside "
                               "the screening's scope")
    return report


def screening_rows(found):
    """Screening hits as rows: the rendered weights, then rho(M) and the
    twisted weight rho(M^h), both Fractions."""
    return [{"weights": _rendered(lams), "rho": rho, "twisted": tw}
            for lams, rho, tw in found]


@lru_cache(maxsize=4096)
def _rendered(lams) -> str:
    """render_weight_tuple of a screen row's weights, memoized on the tuple
    of weight tuples that the screen returns."""
    return render_weight_tuple(lams)


def summary_row(case, d):
    """The case_summary.json row of a case whose orbifold dimension is d."""
    return {"case": case.id, "V1": case.source.label(), "n": case.n,
            "fixed": fixed_label(case.fixed_components, case.fixed_abelian),
            "hNormSq": json_number(case.h_norm_sq), "d": d, "orbifold": case.target.label()}


def verify_all(cases=None, schellekens=None):
    """Run the full pipeline; returns (reports, summary rows with "passed")."""
    cases = load_cases() if cases is None else cases
    schellekens = load_schellekens() if schellekens is None else schellekens
    reports = [verify_case(case, schellekens) for case in cases]
    rows = [{**summary_row(case, case.expected_d), "passed": report.passed}
            for case, report in zip(cases, reports)]
    return reports, rows

