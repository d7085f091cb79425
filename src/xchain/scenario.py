"""Declarative scenario files: world construction, timed actions, fault
injection, retry loops and embedded assertions.

Scenario files are YAML (documented in docs/scenario-format.md).
Contract storage and assertion values may reference deployed artifacts
with "@contract:NAME", "@account:LABEL" and "@sidechain:ID" strings,
resolved after deployment.
"""

import time
from typing import Dict, List, Optional, Tuple

import yaml

from .accounts import AccountKey
from .coordination import DEFAULT_BLOCK_INTERVAL, UnknownEntryError
from .engine import (
    CallSpec,
    ORIGINATING_STEPS,
    SUBORDINATE_STEPS,
    TxHandle,
    VIEW_STEPS,
    World,
    WorldConfig,
    expected_crash_outcome,
)
from .sidechain import LockedViewPolicy
from .simnet import FaultSpec
from .wire import SidechainId, TxType, encode_call, sign_tx


class ScenarioError(ValueError):
    pass


class AssertionFailure(Exception):
    pass


# libyaml's parser where the installed PyYAML was built with it. Both
# loaders share the safe constructor and resolver, so they build equal
# documents and refuse the same tags.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _as_int(value, what: str) -> int:
    """value as an int; a ScenarioError naming what it is otherwise."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{what} must be an integer, got {value!r}") from None


def _int(spec: dict, key: str, default=None) -> int:
    """spec[key], or default when the key is absent, as an int."""
    return _as_int(spec.get(key, default), key)


def parse_sidechain_id(raw) -> SidechainId:
    if isinstance(raw, SidechainId):
        return raw
    if isinstance(raw, int):
        return SidechainId(raw)
    if isinstance(raw, str):
        text = raw.strip().lower()
        try:
            if text.startswith("private:"):
                return SidechainId.private(int(text.split(":", 1)[1], 0))
            return SidechainId(int(text, 0))
        except ValueError:
            pass
    raise ScenarioError(f"cannot parse sidechain id from {raw!r}")


def parse_policy(raw) -> LockedViewPolicy:
    """The policy spelled raw: fail, assume-ignored or assume-committed,
    the choices of the CLI's --locked-view-policy."""
    try:
        return LockedViewPolicy(raw)
    except ValueError:
        raise ScenarioError(f"unknown locked-view policy {raw!r}") from None


class AssertionResult:
    __slots__ = ("kind", "ok", "detail")

    def __init__(self, kind: str, ok: bool, detail: str):
        self.kind = kind
        self.ok = ok
        self.detail = detail

    def line(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.kind}: {self.detail}"


class ScenarioResult:
    __slots__ = ("name", "world", "handles", "view_results", "assertions", "elapsed")

    def __init__(self, name: str, world: World, handles: Dict[str, List[TxHandle]],
                 view_results: Dict[str, bytes], assertions: List[AssertionResult],
                 elapsed: float):
        self.name = name
        self.world = world
        self.handles = handles
        self.view_results = view_results
        self.assertions = assertions
        self.elapsed = elapsed

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.assertions)


class Scenario:
    """Parsed scenario document, runnable any number of times."""

    def __init__(self, name: str, description: str, seed: int, doc: dict,
                 path: Optional[str] = None):
        self.name = name
        self.description = description
        self.seed = seed
        self.doc = doc
        self.path = path

    @classmethod
    def load(cls, path: str) -> "Scenario":
        try:
            with open(path) as fh:
                doc = yaml.load(fh, Loader=_YAML_LOADER)
        except (OSError, yaml.YAMLError) as exc:
            raise ScenarioError(f"cannot parse {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ScenarioError(f"{path}: scenario must be a mapping")
        return cls(name=doc.get("name", path), description=doc.get("description", ""),
                   seed=_int(doc, "seed", 0), doc=doc, path=path)

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        return cls(name=doc.get("name", "inline"),
                   description=doc.get("description", ""),
                   seed=_int(doc, "seed", 0), doc=doc)

    # -- execution ------------------------------------------------------------

    def run(self, seed: Optional[int] = None,
            extra_faults: Optional[List[FaultSpec]] = None,
            locked_view_policy: Optional[str] = None,
            max_ticks: Optional[int] = None) -> ScenarioResult:
        started = time.perf_counter()
        runner = _Runner(self.doc, seed if seed is not None else self.seed,
                         extra_faults or [], locked_view_policy)
        runner.build()
        runner.execute(max_ticks or _int(self.doc, "max_ticks", 100_000))
        assertions = runner.evaluate_assertions()
        return ScenarioResult(
            name=self.name, world=runner.world, handles=runner.handles,
            view_results=runner.view_results, assertions=assertions,
            elapsed=time.perf_counter() - started)


class _Runner:
    def __init__(self, doc: dict, seed: int, extra_faults: List[FaultSpec],
                 locked_view_policy: Optional[str]):
        self.doc = doc
        self.seed = seed
        self.extra_faults = extra_faults
        self.world: Optional[World] = None
        self.accounts: Dict[str, AccountKey] = {}
        self.contracts: Dict[str, Tuple[SidechainId, bytes]] = {}
        self.handles: Dict[str, List[TxHandle]] = {}
        self.view_results: Dict[str, bytes] = {}
        self.initial_totals: Dict[SidechainId, int] = {}
        self.coordination_refs: Dict[int, tuple] = {}
        self._policy_override = locked_view_policy

    # -- construction ------------------------------------------------------------

    def build(self) -> None:
        doc = self.doc
        cfg_doc = dict(doc.get("config", {}))
        if self._policy_override:
            cfg_doc["locked_view_policy"] = self._policy_override
        config = WorldConfig()
        for key, value in cfg_doc.items():
            if key not in WorldConfig.__slots__:
                raise ScenarioError(f"unknown config key {key!r}")
            if key == "locked_view_policy":
                value = parse_policy(value)
            setattr(config, key, value)
        self.world = World(seed=self.seed, config=config)

        for spec in doc.get("coordination_chains", [{"id": 1}]):
            chain_id = parse_sidechain_id(spec["id"])
            chain = self.world.add_coordination_chain(
                chain_id,
                max_timeout_blocks=_int(spec, "max_timeout_blocks", 1000),
                block_interval=_int(spec, "block_interval", DEFAULT_BLOCK_INTERVAL),
                grace_window=_int(spec, "grace_window", 16))
            self.coordination_refs[chain_id.value] = (chain_id, chain.contract_address)

        for spec in doc.get("accounts", []):
            label = spec["label"]
            self.accounts[label] = AccountKey.from_label(label)

        for spec in doc.get("sidechains", []):
            chain_id = parse_sidechain_id(spec["id"])
            self.world.add_sidechain(
                chain_id,
                validators=_int(spec, "validators", 4),
                fault_tolerance=_int(spec, "fault_tolerance", 1),
                threshold=spec.get("threshold"),
                tx_allowed=self._allow_set(spec.get("allow_tx")),
                view_allowed=self._allow_set(spec.get("allow_view")),
                trusted_coordination=self._trust_set(spec.get("trusted")),
                max_lock_horizon=spec.get("max_lock_horizon"),
                block_interval=_int(spec, "block_interval", DEFAULT_BLOCK_INTERVAL))
            for label, amount in (spec.get("balances") or {}).items():
                account = self._account(label)
                self.world.sidechains[chain_id].state.set_balance(
                    account.address, _as_int(amount, f"balance of {label}"))

        for spec in doc.get("multichain_nodes", []):
            members = [self._sidechain(m).sidechain_id for m in spec["members"]]
            indices = {parse_sidechain_id(k): self._validator(k, v).index
                       for k, v in (spec.get("member_indices") or {}).items()}
            account = self._account(spec["account"]) if spec.get("account") else None
            self.world.add_multichain_node(
                spec["name"], members, account=account,
                members=indices or None,
                trusted=self._trust_set(spec.get("trusted")))

        # two passes: deploy everything, then fill storage so contracts
        # can reference each other's addresses
        deploy_specs = doc.get("contracts", [])
        for spec in deploy_specs:
            sidechain = self._sidechain(spec["sidechain"])
            chain_id, state = sidechain.sidechain_id, sidechain.state
            if spec["handler"] not in state.handlers:
                raise ScenarioError(
                    f"contract {spec['name']!r} names unknown handler {spec['handler']!r}")
            address = state.deploy(spec["handler"],
                                   lockable=bool(spec.get("lockable", False)),
                                   balance=_int(spec, "balance", 0))
            self.contracts[spec["name"]] = (chain_id, address)
        for spec in deploy_specs:
            chain_id, address = self.contracts[spec["name"]]
            state = self.world.sidechains[chain_id].state
            contract = state.contract_at(address)
            for key, value in (spec.get("storage") or {}).items():
                contract.storage[_as_int(key, "storage key")] = self._resolve_value(value)

        for chain_id, sidechain in self.world.sidechains.items():
            self.initial_totals[chain_id] = sidechain.state.total_value()

        for spec in doc.get("faults", []):
            self.world.net.inject(self._fault(spec))
        for fault in self.extra_faults:
            self.world.net.inject(fault)

        for spec in doc.get("actions", []):
            self._schedule_action(spec)

    def _account(self, label: str) -> AccountKey:
        if label not in self.accounts:
            self.accounts[label] = AccountKey.from_label(label)
        return self.accounts[label]

    def _allow_set(self, raw):
        if raw in (None, "all"):
            return None
        return {self._account(label).address for label in raw}

    def _trust_set(self, raw):
        if raw in (None, "all"):
            return None
        refs = set()
        for item in raw:
            chain_id = parse_sidechain_id(item)
            ref = self.coordination_refs.get(chain_id.value)
            if ref is None:
                raise ScenarioError(f"trusted chain {item!r} is not declared")
            refs.add(ref)
        return refs

    def _resolve_value(self, value) -> int:
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            text = value.strip()
            if text.startswith("@contract:"):
                _, address = self.contracts[text.split(":", 1)[1]]
                return int.from_bytes(address, "big")
            if text.startswith("@account:"):
                return int.from_bytes(
                    self._account(text.split(":", 1)[1]).address, "big")
            if text.startswith("@sidechain:"):
                return parse_sidechain_id(text.split(":", 1)[1]).value
            try:
                return int(text, 0)
            except ValueError:
                pass
        raise ScenarioError(f"cannot resolve storage value {value!r}")

    def _resolve_address(self, raw) -> bytes:
        if isinstance(raw, str) and raw.startswith("@contract:"):
            return self.contracts[raw.split(":", 1)[1]][1]
        if isinstance(raw, str) and raw.startswith("@account:"):
            return self._account(raw.split(":", 1)[1]).address
        if isinstance(raw, str):
            return bytes.fromhex(raw.removeprefix("0x"))
        raise ScenarioError(f"cannot resolve address {raw!r}")

    def _sidechain(self, chain_raw):
        sidechain = self.world.sidechains.get(parse_sidechain_id(chain_raw))
        if sidechain is None:
            raise ScenarioError(f"sidechain {chain_raw!r} is not declared")
        return sidechain

    def _validator(self, chain_raw, index):
        """The validator at a 1-based index of a declared sidechain."""
        sidechain = self._sidechain(chain_raw)
        try:
            return sidechain.validator(_as_int(index, "index"))
        except ValueError as exc:
            raise ScenarioError(f"sidechain {chain_raw!r}: {exc}") from None

    def _node_id(self, raw) -> str:
        if isinstance(raw, str):
            return raw
        if "validator" in raw:
            spec = raw["validator"]
            return self._validator(spec["sidechain"], spec["index"]).node_id
        if "multichain" in raw:
            mn = self.world.multichain_nodes.get(raw["multichain"])
            member = mn and mn.members.get(parse_sidechain_id(raw["sidechain"]))
            if member is None:
                raise ScenarioError(f"node {raw!r} names no multichain member")
            return member.node_id
        if "coordination" in raw:
            ref = self._coordination_ref(raw["coordination"])
            return self.world._coordination_nodes[ref]
        raise ScenarioError(f"cannot resolve node {raw!r}")

    def _fault(self, spec: dict) -> FaultSpec:
        groups = None
        if spec.get("groups"):
            groups = tuple(
                frozenset(self._node_id(n) for n in side)
                for side in spec["groups"])
            if len(groups) != 2:
                raise ScenarioError("partition needs exactly two groups")
        link = None
        if spec.get("link"):
            link = tuple(self._node_id(n) for n in spec["link"])
        return FaultSpec(
            kind=spec["kind"],
            node=self._node_id(spec["node"]) if spec.get("node") else None,
            at_step=spec.get("at_step"),
            at_tick=spec.get("at_tick"),
            mtype=spec.get("mtype"),
            link=link,
            groups=groups,
            duration=spec.get("duration"),
            extra_delay=_int(spec, "extra_delay", 0),
            count=spec.get("count"))

    # -- actions ---------------------------------------------------------------

    def _call_target(self, spec: dict) -> Tuple[SidechainId, bytes]:
        chain_id, address = self.contracts[spec["contract"]]
        if "sidechain" in spec:
            chain_id = parse_sidechain_id(spec["sidechain"])
        return chain_id, address

    def _call_spec(self, spec: dict) -> CallSpec:
        chain_id, address = self._call_target(spec)
        args = [self._resolve_value(a) if not isinstance(a, bytes) else a
                for a in spec.get("args", [])]
        data = encode_call(spec["function"], *args)
        return CallSpec(sidechain_id=chain_id, to=address, data=data,
                        value=_int(spec, "value", 0))

    def _coordination_ref(self, spec) -> tuple:
        if spec is None:
            if len(self.coordination_refs) != 1:
                raise ScenarioError("action must name its coordination chain")
            return next(iter(self.coordination_refs.values()))
        ref = self.coordination_refs.get(parse_sidechain_id(spec).value)
        if ref is None:
            raise ScenarioError(f"coordination chain {spec!r} is not declared")
        return ref

    def _check_names(self, spec: dict) -> None:
        """An action's contract, node and coordination chain must exist
        before it runs."""
        kind = spec["kind"]
        contract = (spec.get("call") or {}).get("contract")
        if contract not in self.contracts:
            raise ScenarioError(f"{kind} action calls unknown contract {contract!r}")
        if kind == "local_tx":
            return
        if spec.get("node") not in self.world.multichain_nodes:
            raise ScenarioError(f"{kind} action names unknown node {spec.get('node')!r}")
        self._coordination_ref(spec.get("coordination"))

    def _schedule_action(self, spec: dict) -> None:
        kind = spec.get("kind")
        at = _int(spec, "at", 0)
        if kind in ("crosschain_tx", "crosschain_view", "local_tx"):
            self._check_names(spec)
        if kind == "crosschain_tx":
            self.world.net.call_soon(lambda: self._run_crosschain_tx(spec), delay=at)
        elif kind == "crosschain_view":
            policy = parse_policy(spec["policy"]) if "policy" in spec else None
            self.world.net.call_soon(
                lambda: self._run_crosschain_view(spec, policy), delay=at)
        elif kind == "local_tx":
            self.world.net.call_soon(lambda: self._run_local_tx(spec), delay=at)
        elif kind == "rekey":
            chain_id = parse_sidechain_id(spec["sidechain"])
            rekey_seed = _int(spec, "rekey_seed", self.seed + 1)
            self.world.net.call_soon(
                lambda: self.world.rekey_sidechain(chain_id, rekey_seed), delay=at)
        else:
            raise ScenarioError(f"unknown action kind {kind!r}")

    def _build_tx(self, spec: dict, ref: tuple):
        """The signing account and the unsigned tree of a crosschain_tx
        action, built against the current state."""
        account = (self._account(spec["account"]) if spec.get("account")
                   else self.world.multichain_nodes[spec["node"]].account)
        tx = self.world.build_crosschain_tx(
            spec["node"], self._call_spec(spec["call"]),
            timeout_blocks=_int(spec, "timeout_blocks", 30),
            coordination_ref=ref, account=account)
        return account, tx

    def _run_crosschain_tx(self, spec: dict, round_index: int = 0) -> None:
        alias = spec.get("alias", f"tx{len(self.handles)}")
        ref = self._coordination_ref(spec.get("coordination"))
        try:
            account, tx = self._build_tx(spec, ref)
        except Exception as exc:
            handle = TxHandle(
                crosschain_tx_id=self.world.new_tx_id(),
                originating_sidechain_id=self._call_target(spec["call"])[0],
                coordination_ref=ref, alias=alias,
                outcome=("failed", f"build:{exc}"))
            self.handles.setdefault(alias, []).append(handle)
            return
        signed = sign_tx(tx, account)
        handle = self.world.submit_crosschain_tx(spec["node"], signed, alias=alias)
        self.handles.setdefault(alias, []).append(handle)
        retry = spec.get("retry")
        if retry:
            self._watch_retry(spec, handle, round_index, retry)

    def _watch_retry(self, spec: dict, handle: TxHandle, round_index: int,
                     retry: dict) -> None:
        """Poll the handle; on failure rebuild with a fresh id and
        corrected nonces and resubmit, up to the round budget. An
        optional seeded backoff jitter desynchronizes competing
        submitters."""
        delay = _int(retry, "delay", 40)
        rounds = _int(retry, "rounds", 10)
        backoff_jitter = _int(retry, "jitter", 0)

        def check():
            if handle.outcome is None:
                self.world.net.call_soon(check, delay=delay)
                return
            if handle.outcome[0] == "failed" and round_index + 1 < rounds:
                pause = delay
                if backoff_jitter:
                    pause += self.world.net.rng.randrange(backoff_jitter + 1)
                self.world.net.call_soon(
                    lambda: self._run_crosschain_tx(spec, round_index=round_index + 1),
                    delay=pause)
        self.world.net.call_soon(check, delay=delay)

    def _run_crosschain_view(self, spec: dict,
                             policy: Optional[LockedViewPolicy]) -> None:
        alias = spec.get("alias", f"view{len(self.view_results)}")
        ref = self._coordination_ref(spec.get("coordination"))
        try:
            tree = self.world.build_crosschain_view(
                spec["node"], self._call_spec(spec["call"]), coordination_ref=ref)
            result = self.world.submit_crosschain_view(spec["node"], tree,
                                                       policy=policy)
            self.view_results[alias] = result
        except Exception as exc:
            self.view_results[alias] = f"error:{exc}".encode()

    def _run_local_tx(self, spec: dict) -> None:
        chain_id, address = self.contracts[spec["call"]["contract"]]
        account = self._account(spec["account"])
        state = self.world.sidechains[chain_id].state
        call = self._call_spec(spec["call"])
        alias = spec.get("alias")
        try:
            state.apply_local_tx(address, call.data, account.address,
                                 nonce=state.expected_nonce(account.address),
                                 value=call.value)
            if alias:
                self.view_results[alias] = b"ok"
        except Exception as exc:
            if alias:
                self.view_results[alias] = f"error:{exc}".encode()

    # -- run & assert --------------------------------------------------------------

    def execute(self, max_ticks: int) -> None:
        self.world.run(max_ticks=max_ticks)
        self.world.dump_state_to_trace()

    def evaluate_assertions(self) -> List[AssertionResult]:
        results = []
        for spec in self.doc.get("assertions", []):
            results.append(self._assert_one(spec))
        return results

    def _assert_one(self, spec: dict) -> AssertionResult:
        kind = spec["kind"]
        try:
            checker = getattr(self, f"_check_{kind}")
        except AttributeError:
            return AssertionResult(kind, False, f"unknown assertion kind {kind!r}")
        try:
            ok, detail = checker(spec)
        except ScenarioError:
            raise  # the document is malformed, not the run
        except Exception as exc:
            ok, detail = False, f"assertion error: {exc}"
        return AssertionResult(kind, ok, detail)

    def _handle(self, alias: str, which: str = "last") -> TxHandle:
        handles = self.handles.get(alias)
        if not handles:
            raise AssertionFailure(f"no transaction with alias {alias!r}")
        return handles[-1] if which == "last" else handles[0]

    def _check_tx_outcome(self, spec) -> Tuple[bool, str]:
        handle = self._handle(spec["tx"], spec.get("which", "last"))
        expect = spec["expect"]
        if handle.outcome is None:
            got = "unresolved"
        else:
            got = handle.outcome[0]
        ok = got == expect
        if ok and spec.get("reason") and handle.failure_reason != spec["reason"]:
            return False, (f"{spec['tx']}: failed with {handle.failure_reason!r}, "
                           f"wanted {spec['reason']!r}")
        return ok, f"{spec['tx']}: outcome {got} (wanted {expect})"

    def _check_storage_equals(self, spec) -> Tuple[bool, str]:
        chain_id, address = self.contracts[spec["contract"]]
        state = self.world.sidechains[chain_id].state
        got = state.contract_at(address).storage.get(_int(spec, "key"), 0)
        want = self._resolve_value(spec["value"])
        return got == want, (f"{spec['contract']}[{spec['key']}] = {got} "
                             f"(wanted {want})")

    def _check_balance_equals(self, spec) -> Tuple[bool, str]:
        chain_id = parse_sidechain_id(spec["sidechain"]) if spec.get("sidechain") \
            else self.contracts[spec["address"].split(":", 1)[1]][0]
        address = self._resolve_address(spec["address"])
        state = self.world.sidechains[chain_id].state
        got = state.balances.get(address, 0)
        want = _int(spec, "value")
        return got == want, (f"balance[{spec['address']}] = {got} (wanted {want})")

    def _check_atomicity(self, spec) -> Tuple[bool, str]:
        aliases = [spec["tx"]] if "tx" in spec else list(self.handles)
        for alias in aliases:
            for handle in self.handles.get(alias, []):
                problem = _atomicity_problem(self.world, handle.crosschain_tx_id)
                if problem is not None:
                    return False, f"{alias}: {problem}"
        return True, "all-or-nothing commit held for " + ", ".join(aliases)

    def _check_coordination_state(self, spec) -> Tuple[bool, str]:
        handle = self._handle(spec["tx"], spec.get("which", "last"))
        chain = self.world.coordination[handle.coordination_ref]
        try:
            status = chain.status_of(handle.crosschain_tx_id,
                                     handle.originating_sidechain_id)
            got = status.value
        except UnknownEntryError:
            got = "absent"
        return got == spec["expect"], (f"{spec['tx']}: coordination {got} "
                                       f"(wanted {spec['expect']})")

    def _check_trace_contains_reason(self, spec) -> Tuple[bool, str]:
        needle = spec["reason"]
        count = sum(1 for rec in self.world.net.trace if rec.reason == needle)
        want = _int(spec, "count_at_least", 1)
        return count >= want, f"reason {needle!r} seen {count} times (wanted >= {want})"

    def _check_balance_conservation(self, spec) -> Tuple[bool, str]:
        chain_id = parse_sidechain_id(spec["sidechain"])
        got = self.world.sidechains[chain_id].state.total_value()
        want = self.initial_totals[chain_id]
        return got == want, (f"{chain_id.short()}: total value {got} "
                             f"(initially {want})")

    def _check_view_result(self, spec) -> Tuple[bool, str]:
        got = self.view_results.get(spec["view"])
        raw = spec["expect"]
        if isinstance(raw, int):
            want = raw.to_bytes((raw.bit_length() + 7) // 8, "big") if raw else b""
        elif isinstance(raw, str) and raw.startswith("@"):
            want = self._resolve_address(raw)
        else:
            want = bytes.fromhex(str(raw).removeprefix("0x"))
        return got == want, f"{spec['view']}: result {got!r} (wanted {want!r})"

    def _check_any_round_committed(self, spec) -> Tuple[bool, str]:
        handles = self.handles.get(spec["tx"], [])
        committed = [i for i, h in enumerate(handles) if h.committed]
        expect = bool(spec.get("expect", True))
        got = bool(committed)
        rounds = len(handles)
        return got == expect, (f"{spec['tx']}: {rounds} rounds, committed in "
                               f"rounds {committed or 'none'}")

    def _check_all_rounds_failed(self, spec) -> Tuple[bool, str]:
        handles = self.handles.get(spec["tx"], [])
        want_rounds = _int(spec, "rounds", len(handles) or 1)
        failed = [h for h in handles if h.outcome is not None
                  and h.outcome[0] == "failed"]
        ok = len(handles) == want_rounds and len(failed) == want_rounds
        return ok, (f"{spec['tx']}: {len(failed)}/{len(handles)} rounds failed "
                    f"(wanted {want_rounds}/{want_rounds})")


def _atomicity_problem(world: World, tx_id) -> Optional[str]:
    """None when every participating contract of the transaction
    finalized the same way and none is still locked, else what broke."""
    if not world.atomicity_ok(tx_id):
        return "mixed finalize decisions"
    for chain_id, contract in world.participating_contracts(tx_id):
        if world.sidechains[chain_id].state.locked_by(contract) is not None:
            return "contract still locked at quiescence"
    return None


# ---------------------------------------------------------------------------
# Fault sweeps: one run per (protocol step, fault) cell
# ---------------------------------------------------------------------------

class SweepCell:
    __slots__ = ("name", "faults", "expected")

    def __init__(self, name: str, faults: List[FaultSpec], expected: str):
        self.name = name
        self.faults = faults
        self.expected = expected  # committed | not_committed


class SweepReport:
    __slots__ = ("cells",)

    def __init__(self):
        self.cells: List[tuple] = []  # (cell, got, atomic, ok)

    @property
    def ok(self) -> bool:
        return all(entry[3] for entry in self.cells)

    def lines(self) -> List[str]:
        out = []
        for cell, got, atomic, ok in self.cells:
            out.append(f"[{'PASS' if ok else 'FAIL'}] {cell.name}: "
                       f"expected {cell.expected}, got {got}, "
                       f"atomic={'yes' if atomic else 'NO'}")
        return out


def _swept_action(doc: dict) -> dict:
    """The first crosschain_tx action: the one a sweep faults and judges."""
    for action in doc.get("actions", []):
        if action.get("kind") == "crosschain_tx":
            if "alias" not in action:
                raise ScenarioError("the swept crosschain_tx action needs an alias")
            return action
    raise ScenarioError("sweep needs a crosschain_tx action")


def _asserts_failure(doc: dict, alias: str) -> bool:
    """The scenario asserts that the transaction under alias fails."""
    return any(spec.get("tx") == alias
               and (spec["kind"] == "all_rounds_failed"
                    or spec["kind"] == "tx_outcome" and spec.get("expect") == "failed")
               for spec in doc.get("assertions", []))


def build_sweep_cells(scenario: Scenario, fault_kinds: List[str]) -> List[SweepCell]:
    """Enumerate sweep cells against the scenario's first crosschain
    transaction: coordinator crash points for every protocol step on the
    originating, subordinate and view sidechains, validator crashes, and
    message drops. A drop of subtx_ready or view_reply is swept only when
    the transaction has a subordinate transaction or view to send it.
    Every cell expects a transaction the scenario asserts fails not to
    commit."""
    probe = _Runner(scenario.doc, scenario.seed, [], None)
    probe.build()
    world = probe.world
    action = _swept_action(scenario.doc)
    mn = world.multichain_nodes[action["node"]]
    _, tx = probe._build_tx(action, probe._coordination_ref(action.get("coordination")))

    orig_chain = tx.originating_sidechain_id
    sub_chains = sorted({n.target_sidechain_id.value for n in tx.walk()
                         if n.tx_type is TxType.SUBORDINATE_TX})
    view_chains = sorted({n.target_sidechain_id.value for n in tx.walk()
                          if n.tx_type is TxType.SUBORDINATE_VIEW})

    sidechain = world.sidechains[orig_chain]
    coordinator_index = mn.members[orig_chain].index
    spare = [v for v in sidechain.validators if v.index != coordinator_index]
    needed = sidechain.threshold_config.m

    cells: List[SweepCell] = []
    if "crash_node" in fault_kinds:
        orig_node = mn.members[orig_chain].node_id
        for step in ORIGINATING_STEPS:
            cells.append(SweepCell(
                name=f"crash:{orig_node}@{step}",
                faults=[FaultSpec(kind="crash_node", node=orig_node, at_step=step)],
                expected=expected_crash_outcome(step)))
        if sub_chains:
            sub_node = mn.members[SidechainId(sub_chains[0])].node_id
            for step in SUBORDINATE_STEPS:
                cells.append(SweepCell(
                    name=f"crash:{sub_node}@{step}",
                    faults=[FaultSpec(kind="crash_node", node=sub_node, at_step=step)],
                    expected=expected_crash_outcome(step)))
        if view_chains:
            view_node = mn.members[SidechainId(view_chains[0])].node_id
            for step in VIEW_STEPS:
                cells.append(SweepCell(
                    name=f"crash:{view_node}@{step}",
                    faults=[FaultSpec(kind="crash_node", node=view_node, at_step=step)],
                    expected="not_committed"))
        # one non-coordinator validator crash is tolerated (m = f + 1)
        cells.append(SweepCell(
            name=f"crash:validator:{spare[0].node_id}",
            faults=[FaultSpec(kind="crash_node", node=spare[0].node_id, at_tick=0)],
            expected="committed"))
    if "remove_validator" in fault_kinds:
        tolerated = spare[:len(sidechain.validators) - needed]
        if tolerated:
            cells.append(SweepCell(
                name=f"remove:tolerated:{len(tolerated)}-validators",
                faults=[FaultSpec(kind="remove_validator", node=v.node_id, at_tick=0)
                        for v in tolerated],
                expected="committed"))
        below = spare[:len(sidechain.validators) - needed + 1]
        cells.append(SweepCell(
            name=f"remove:below-threshold:{len(below)}-validators",
            faults=[FaultSpec(kind="remove_validator", node=v.node_id, at_tick=0)
                    for v in below],
            expected="not_committed"))
    if "drop_message" in fault_kinds:
        cells.append(SweepCell(
            name="drop:check_coordination",
            faults=[FaultSpec(kind="drop_message", mtype="check_coordination")],
            expected="committed"))
        if sub_chains:
            cells.append(SweepCell(
                name="drop:subtx_ready",
                faults=[FaultSpec(kind="drop_message", mtype="subtx_ready")],
                expected="not_committed"))
        if view_chains:
            cells.append(SweepCell(
                name="drop:view_reply",
                faults=[FaultSpec(kind="drop_message", mtype="view_reply")],
                expected="not_committed"))
        cells.append(SweepCell(
            name="drop:submit_reply",
            faults=[FaultSpec(kind="drop_message", mtype="submit_reply")],
            expected="not_committed"))
    if _asserts_failure(scenario.doc, action["alias"]):
        for cell in cells:
            cell.expected = "not_committed"
    return cells


def run_sweep(scenario: Scenario, fault_kinds: Optional[List[str]] = None,
              seed: Optional[int] = None) -> SweepReport:
    """Run every cell; a cell passes when every transaction of the run
    is atomic and the swept transaction's outcome is the expected one."""
    kinds = fault_kinds or ["crash_node", "remove_validator", "drop_message"]
    cells = build_sweep_cells(scenario, kinds)
    alias = _swept_action(scenario.doc)["alias"]
    report = SweepReport()
    for cell in cells:
        result = scenario.run(seed=seed, extra_faults=cell.faults)
        world = result.world
        atomic = all(_atomicity_problem(world, handle.crosschain_tx_id) is None
                     for handles in result.handles.values() for handle in handles)
        committed = any(world.committed_contracts(handle.crosschain_tx_id)
                        for handle in result.handles.get(alias, []))
        got = "committed" if committed else "not_committed"
        ok = atomic and got == cell.expected
        report.cells.append((cell, got, atomic, ok))
    return report
