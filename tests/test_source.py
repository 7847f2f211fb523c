"""Source-level checks on the simulator package."""

import ast
import inspect
from pathlib import Path

import pytest

from chasesim import cache, core, messages, prefetcher
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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_builder_takes_the_seed_and_its_default_keys(name):
    # make_workload calls builder(seed, **defaults-filled params): a builder
    # of another shape needs an adapter, and a default key with no parameter
    # of its name (or a parameter with no default key) would drift apart
    build, defaults, _ = WORKLOADS[name]
    required = [p.name for p in inspect.signature(build).parameters.values()
                if p.default is inspect.Parameter.empty]
    assert build.__name__ == f"_{name}"
    assert required[0] == "seed"
    assert sorted(required[1:]) == sorted(defaults)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_every_mutant_patch_matches_its_file_once(mutant):
    # tests/mutants.py refuses a patch that does not match exactly once, but
    # it takes minutes to run: an edit that orphans a mutant shows here. The
    # script leaves this test out, since no mutated tree passes it.
    assert (PACKAGE / mutant.path).read_text().count(mutant.old) == 1
