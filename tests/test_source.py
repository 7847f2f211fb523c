"""Source-level checks on the simulator package."""

import ast
import inspect
from pathlib import Path

import pytest

from chasesim import cache, messages, prefetcher
from chasesim.cache import CacheFsm
from chasesim.core import Compute, Read, ReadCP, Write
from chasesim.messages import MemRequest, MemResponse, MsgKind
from chasesim.prefetcher import PrefetchFsm
from chasesim.workloads import WORKLOADS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chasesim"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so invariants must be explicit raises
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


ENUMS = {"MsgKind", "CacheFsm", "PrefetchFsm"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_enum_member_lookup_through_its_class(path):
    # on Python 3.11 EnumType.__getattr__ makes a lookup such as CacheFsm.IDLE
    # about 12x slower than a module global: use the bound constants instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in ENUMS]
    assert lines == [], f"{path.name}: Enum member lookups at lines {lines}"


@pytest.mark.parametrize("module, kind", [(cache, CacheFsm), (prefetcher, PrefetchFsm),
                                          (messages, MsgKind)],
                         ids=["cache", "prefetcher", "messages"])
def test_bound_constants_are_the_members_of_their_name(module, kind):
    # the constants are bound by unpacking in definition order: a reordered
    # Enum or unpacking would give a name another member
    for member in kind:
        assert getattr(module, member.name) is member, member.name


def test_prefetcher_init_kind_is_the_init_message():
    assert prefetcher.INIT_KIND is MsgKind.INIT


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
