"""Spans around the calls into each `cdrings` layer, installed from outside.

`Tracer.install()` wraps the public functions listed in `TARGETS` and
rebinds every site that names them: the defining module's attribute, every
`from .x import f` copy in other `cdrings.*` modules, and class attributes
for methods. `Tracer.uninstall()` puts the originals back.

Each wrapped call appends one span (group, start, end, parent) to in-memory
arrays. `Tracer.summary(wall)` turns the spans of one pass into per-layer
counts and self times; a layer's self time is its spans' durations minus the
parts covered by child spans. The two `modn` primitives run once per
elimination step, so they are only counted, never timed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np
from cdrings.errors import EnumerationBudgetExceeded

# (group, module, attribute path, kind). kind is "span" or "count".
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("modn.gcd_transform", "cdrings.modn", "gcd_transform", "count"),
    ("modn.normalizing_unit", "cdrings.modn", "normalizing_unit", "count"),
    ("residue.kernel", "cdrings.residue", "kernel", "span"),
    ("residue.span", "cdrings.residue", "Submodule.span", "span"),
    ("residue.intersect", "cdrings.residue", "intersect", "span"),
    ("residue.contains", "cdrings.residue", "Submodule.contains", "span"),
    ("residue.elements", "cdrings.residue", "Submodule.elements", "span"),
    ("algebra.mul", "cdrings.algebra", "FiniteAlgebra.mul", "span"),
    ("algebra.mul_matrix", "cdrings.algebra", "FiniteAlgebra.left_mul_matrix", "span"),
    ("algebra.mul_matrix", "cdrings.algebra", "FiniteAlgebra.right_mul_matrix", "span"),
    ("algebra.predicates", "cdrings.algebra", "is_associative", "span"),
    ("algebra.predicates", "cdrings.algebra", "is_commutative", "span"),
    ("algebra.predicates", "cdrings.algebra", "is_left_alternative", "span"),
    ("algebra.predicates", "cdrings.algebra", "is_right_alternative", "span"),
    ("algebra.predicates", "cdrings.algebra", "is_alternative", "span"),
    ("algebra.predicates", "cdrings.algebra", "is_central", "span"),
    ("algebra.certify", "cdrings.algebra", "certify_central_scalar", "span"),
    ("doubling.double", "cdrings.doubling", "double", "span"),
    ("analysis.associative_center", "cdrings.analysis", "associative_center", "span"),
    ("analysis.commutative_center", "cdrings.analysis", "commutative_center", "span"),
    ("analysis.center", "cdrings.analysis", "center", "span"),
    ("analysis.essentiality_data", "cdrings.analysis", "essentiality_data", "span"),
    ("analysis.identities", "cdrings.analysis", "n_membership_by_identities", "span"),
    ("essentiality.definitional", "cdrings.essentiality", "is_essential_submodule", "span"),
    ("essentiality.definitional", "cdrings.essentiality", "is_essential_ideal", "span"),
    ("essentiality.definitional", "cdrings.essentiality", "is_centrally_essential", "span"),
    ("essentiality.definitional", "cdrings.essentiality", "is_left_n_essential", "span"),
    ("essentiality.definitional", "cdrings.essentiality", "is_right_n_essential", "span"),
    (
        "essentiality.definitional",
        "cdrings.essentiality",
        "noncommutative_centrally_essential_definitional",
        "span",
    ),
    ("essentiality.criterion", "cdrings.essentiality", "n_essential_criterion", "span"),
    ("essentiality.criterion", "cdrings.essentiality", "centrally_essential_criterion", "span"),
    ("essentiality.criterion", "cdrings.essentiality", "quaternion_criterion", "span"),
    ("essentiality.criterion", "cdrings.essentiality", "octonion_criterion", "span"),
    ("suites", "cdrings.suites", "run_suite", "span"),
    ("cli", "cdrings.cli", "main", "span"),
)

GROUPS: tuple[str, ...] = tuple(dict.fromkeys(group for group, _, _, _ in TARGETS))
SPAN_GROUPS: tuple[str, ...] = tuple(
    dict.fromkeys(group for group, _, _, kind in TARGETS if kind == "span")
)
COUNT_GROUPS: tuple[str, ...] = tuple(
    dict.fromkeys(group for group, _, _, kind in TARGETS if kind == "count")
)
ESSENTIALITY_GROUPS = ("essentiality.definitional", "essentiality.criterion")
# Groups whose results feed a work counter in `Tracer._after`.
AFTER_GROUPS = ESSENTIALITY_GROUPS + (
    "residue.kernel",
    "residue.elements",
    "analysis.associative_center",
)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute) for a dotted path in a module."""
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


def _cdrings_modules():
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "cdrings" or key.startswith("cdrings."))
    ]


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Create one per process, `install()` it around the traced passes, call
    `reset()` at the start of each pass and `summary()` at its end.
    """

    def __init__(self):
        self.group_ids = {group: i for i, group in enumerate(GROUPS)}
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.group = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counts = [0] * len(GROUPS)
        self.products = {group: 0 for group in ESSENTIALITY_GROUPS}
        self.budget_skips = 0
        self.cond_bytes = 0
        self.element_rows = 0
        self.associative_center_algebras: set[bytes] = set()

    def _outermost_in(self, groups) -> bool:
        """True when the innermost open span's parent is in none of `groups`."""
        parent = self.parent[self.current]
        return parent < 0 or GROUPS[self.group[parent]] not in groups

    def _after(self, group: str, args, result) -> None:
        """Per-group work counters, taken where the work happens."""
        if group in ESSENTIALITY_GROUPS:
            if self._outermost_in((group,)):
                self.products[group] += int(result.cost)
        elif group == "residue.kernel":
            matrix = args[0].array
            self.cond_bytes += matrix.shape[0] * matrix.shape[1] * matrix.itemsize
        elif group == "residue.elements":
            self.element_rows += len(result)
        elif group == "analysis.associative_center":
            algebra = args[0]
            self.associative_center_algebras.add(
                hashlib.blake2b(
                    np.int64(algebra.modulus).tobytes() + algebra.structure.tobytes(),
                    digest_size=16,
                ).digest()
            )

    def _span_wrapper(self, fn, group: str):
        gid = self.group_ids[group]
        needs_after = group in AFTER_GROUPS

        def wrapper(*args, **kwargs):
            parent = self.current
            idx = len(self.start)
            self.group.append(gid)
            self.parent.append(parent)
            self.end.append(0.0)
            self.start.append(perf_counter())
            self.current = idx
            try:
                result = fn(*args, **kwargs)
                if needs_after:
                    self._after(group, args, result)
                return result
            except EnumerationBudgetExceeded:
                if group in ESSENTIALITY_GROUPS and self._outermost_in(ESSENTIALITY_GROUPS):
                    self.budget_skips += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self.current = parent

        return functools.wraps(fn)(wrapper)

    def _count_wrapper(self, fn, group: str):
        gid = self.group_ids[group]

        def wrapper(*args, **kwargs):
            self.counts[gid] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind each `cdrings.*` name that points at it."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        # Import every target module first: a module imported mid-install
        # would copy wrappers that uninstall() does not know to restore.
        for _, module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        for group, module_name, path, kind in TARGETS:
            owner, name, raw = _resolve(module_name, path)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapped = make(fn, group)
            replacement = classmethod(wrapped) if is_classmethod else wrapped
            sites = [(owner, name)]
            if not isinstance(owner, type):
                sites += [
                    (mod, attr)
                    for mod in _cdrings_modules()
                    for attr, value in vars(mod).items()
                    if value is raw and (mod, attr) != (owner, name)
                ]
            for site, attr in sites:
                self._saved.append((site, attr, vars(site)[attr]))
                setattr(site, attr, replacement)

    def uninstall(self) -> None:
        """Restore every rebound site, newest first."""
        while self._saved:
            site, attr, original = self._saved.pop()
            setattr(site, attr, original)

    # -- per-pass summary ------------------------------------------------------

    def summary(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since `reset()`."""
        spans = self.spans()
        group, parent = spans["group"], spans["parent"]
        duration = spans["end"] - spans["start"]
        self_time = duration.copy()
        nested = parent >= 0
        np.subtract.at(self_time, parent[nested], duration[nested])
        calls = np.bincount(group, minlength=len(GROUPS))
        self_s = np.bincount(group, weights=self_time, minlength=len(GROUPS))
        out: dict[str, float] = {}
        for name in SPAN_GROUPS:
            gid = self.group_ids[name]
            if name == "residue.elements":
                out["residue.elements.rows"] = self.element_rows
            elif name not in ("suites", "cli"):
                out[f"{name}.calls"] = int(calls[gid])
            out[f"{name}.self_s"] = float(self_s[gid])
        for name in COUNT_GROUPS:
            out[f"{name}.calls"] = self.counts[self.group_ids[name]]
        for name in ESSENTIALITY_GROUPS:
            out[f"{name}.products"] = self.products[name]
        out["essentiality.budget_skips"] = self.budget_skips
        out["residue.kernel.cond_bytes"] = self.cond_bytes
        ac_calls = int(calls[self.group_ids["analysis.associative_center"]])
        out["analysis.associative_center.distinct_share"] = (
            len(self.associative_center_algebras) / ac_calls if ac_calls else 1.0
        )
        out["trace.unattributed_s"] = float(wall - duration[~nested].sum())
        return out

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, for writing out after the run."""
        return {
            "groups": np.array(GROUPS),
            "group": np.array(self.group, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }


def unwrapped_sites() -> list[str]:
    """Names in `cdrings.*` modules or their classes that still reach an original.

    Also looks one level into module-level dicts, lists and tuples, where a
    stored function reference would bypass a rebound module attribute.
    """
    originals = {}
    for group, module_name, path, _ in TARGETS:
        _, _, raw = _resolve(module_name, path)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        while hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__
        originals[id(fn)] = f"{module_name}.{path}"
    found = []

    def check(value, where):
        fn = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
        if id(fn) in originals:
            found.append(f"{where} -> {originals[id(fn)]}")

    for mod in _cdrings_modules():
        for attr, value in vars(mod).items():
            where = f"{mod.__name__}.{attr}"
            check(value, where)
            if isinstance(value, dict):
                for key, item in value.items():
                    check(item, f"{where}[{key!r}]")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    check(item, f"{where}[{i}]")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    check(cvalue, f"{where}.{cattr}")
    return found
