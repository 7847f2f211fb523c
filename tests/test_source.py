"""Source-level checks on the simulator package."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from chasesim import Component, cache, core, messages, prefetcher
from chasesim.core import Compute, Read, ReadCP, Write
from chasesim.messages import MemRequest, MemResponse, MsgKind
from chasesim.workloads import WORKLOADS
from mutants import MUTANTS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chasesim"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so invariants must be explicit raises
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


# every FSM state and message kind is the string its trace shows
LETTERS = {
    cache: {"IDLE": "I", "TAG_CHECK": "TC", "READ_DATA": "RD", "WRITE_DATA": "WD",
            "EVICT_REQ": "ER", "EVICT_WAIT": "EW", "REFILL_REQ": "RR",
            "REFILL_WAIT": "RW", "REFILL_UPDATE": "RU"},
    prefetcher: {"IDLE": "I", "TAG_CHECK": "TC", "INIT": "IN", "PUSH_NEXT": "PN",
                 "BUFFER_TO_MEM": "BM", "WAIT_MEM": "WM", "STALL_MEM": "SM",
                 "WAIT_DATA_INVALID": "DI"},
    core: {"REQUEST": "RQ", "WAIT": "WT", "COMPUTE": "CP", "DONE": "."},
    messages: {"INIT": "in", "READ": "rd", "WRITE": "wr", "READCP": "cp"},
}


@pytest.mark.parametrize("module", list(LETTERS), ids=lambda m: m.__name__.split(".")[-1])
def test_bound_constants_are_the_members_of_their_name(module):
    # the names are bound by tuple unpacking, so a reordered line would give
    # a name another letter; the trace lock never shows STALL_MEM or INIT
    assert {name: getattr(module, name) for name in LETTERS[module]} == LETTERS[module]
    if module is messages:
        assert {k: getattr(MsgKind, k) for k in LETTERS[module]} == LETTERS[module]


def test_prefetcher_init_kind_is_the_init_message():
    assert prefetcher.INIT_KIND == messages.INIT == MsgKind.INIT == "in"


@pytest.mark.parametrize("cls", [MemRequest, MemResponse, Read, Write, ReadCP, Compute],
                         ids=lambda cls: cls.__name__)
def test_per_transfer_records_are_slotted_and_not_frozen(cls):
    # a frozen dataclass sets each field through object.__setattr__: ~1 us per transfer
    assert not cls.__dataclass_params__.frozen
    assert "__slots__" in vars(cls)


RECORDS = {"MemRequest", "MemResponse", "CacheLine", "PrefetchEntry"}


def test_per_transfer_records_are_built_from_positional_arguments():
    # a keyword argument roughly doubles what a dataclass costs to build, and
    # these are built on every transfer, refill and prefetch claim
    calls = []
    for name in ("core.py", "cache.py", "prefetcher.py", "memory.py"):
        tree = ast.parse((PACKAGE / name).read_text(), filename=name)
        lines = sorted(node.lineno for node in ast.walk(tree)
                       if isinstance(node, ast.Call) and node.keywords
                       and getattr(node.func, "id", getattr(node.func, "attr", None)) in RECORDS)
        calls += [f"{name}:{line}" for line in lines]
    assert calls == [], f"record built with keyword arguments at {', '.join(calls)}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_builder_takes_the_seed_and_its_default_keys(name):
    # make_workload calls builder(seed, **defaults-filled params): a builder
    # of another shape needs an adapter, a default key with no parameter of
    # its name (or a parameter with no default key) would drift apart, and a
    # parameter with a default of its own is a knob only tests could set
    build, defaults, _ = WORKLOADS[name]
    params = list(inspect.signature(build).parameters.values())
    assert build.__name__ == f"_{name}"
    assert params[0].name == "seed"
    assert sorted(p.name for p in params[1:]) == sorted(defaults)
    assert all(p.default is inspect.Parameter.empty for p in params)


def self_attributes_set(function):
    """(line, name) of each ``self.<name>`` a function assigns."""
    return [(node.lineno, node.attr) for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"]


def test_no_constructor_assigns_a_port():
    # a port is declared once, by a signal in the class's blocks; a
    # constructor that set one too would be a second declaration to drift
    assert "__init__" not in vars(Component)
    checked, found = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "chasesim" if path.stem == "__init__" else f"chasesim.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
            if not (isinstance(cls, type) and issubclass(cls, Component)):
                continue
            checked.add(node.name)
            for init in (f for f in node.body
                         if isinstance(f, ast.FunctionDef) and f.name == "__init__"):
                found += [f"{path.name}:{line} {node.name}.{name}"
                          for line, name in self_attributes_set(init) if name in cls.ports]
    assert checked >= {"CoreModel", "BlockingCache", "PointerChasePrefetcher",
                       "PipelinedMemory", "LoggingMemory", "TestSource", "TestSink"}
    assert found == [], f"constructors assign ports: {', '.join(found)}"


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_every_mutant_patch_matches_its_file_once(mutant):
    # tests/mutants.py refuses a patch that does not match exactly once, but
    # it takes minutes to run: an edit that orphans a mutant shows here. The
    # script leaves this test out, since no mutated tree passes it.
    text = (PACKAGE / mutant.path).read_text()
    assert [text.count(old) for old, _ in mutant.patches] == [1] * len(mutant.patches)
