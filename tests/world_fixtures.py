"""Shared world builders for engine and acceptance tests."""

from xchain.engine import CallSpec, World
from xchain.handlers import handler
from xchain.wire import SidechainId, encode_call, sign_tx

COORD_ID = SidechainId(1)
SC1 = SidechainId.private(0x11)
SC2 = SidechainId.private(0x22)
SC3 = SidechainId.private(0x33)


def conditional_buy_world(seed=7, rate=50, validators=4, fault_tolerance=1,
                          config=None, **sidechain_kwargs):
    """Three sidechains: control on SC1 reads an oracle on SC2 and buys
    on SC3 when the rate is under 100."""
    world = World(seed=seed, config=config)
    coord = world.add_coordination_chain(COORD_ID)
    ref = (COORD_ID, coord.contract_address)
    for sc in (SC1, SC2, SC3):
        world.add_sidechain(sc, validators=validators,
                            fault_tolerance=fault_tolerance, **sidechain_kwargs)
    mn = world.add_multichain_node("nodeA", [SC1, SC2, SC3])
    oracle = world.sidechains[SC2].state.deploy("oracle", lockable=True,
                                                storage={0: rate})
    commodity = world.sidechains[SC3].state.deploy("commodity", lockable=True,
                                                   storage={0: 100})
    control = world.sidechains[SC1].state.deploy("control", lockable=True, storage={
        0: SC2.value, 1: int.from_bytes(oracle, "big"),
        2: SC3.value, 3: int.from_bytes(commodity, "big")})
    contracts = {"oracle": oracle, "commodity": commodity, "control": control}
    return world, mn, ref, contracts


def build_purchase(world, mn, ref, contracts, amount=5, timeout_blocks=30,
                   account=None):
    tx = world.build_crosschain_tx(
        "nodeA", CallSpec(SC1, contracts["control"],
                          encode_call("condBuy", amount)),
        timeout_blocks=timeout_blocks, coordination_ref=ref, account=account)
    return sign_tx(tx, account or mn.account)


@handler("hop", "add")
def hop_add(host, args):
    """Forwards add to the target in slots 0 (sidechain id) and 1
    (address): the middle node of a nested leg."""
    host.emit_subordinate_tx(SidechainId(host.storage_get(0)),
                             host.storage_get(1).to_bytes(20, "big"),
                             encode_call("add", *args))


def nested_leg_world(seed=3, middle_tx_allowed=None):
    """SC1's proxy relays add to a hop on SC2, which forwards it to a
    cell on SC3: one leg of two nested subordinate transactions. The
    signed transaction is submitted; returns (world, handle, contracts)."""
    world = World(seed=seed)
    coord = world.add_coordination_chain(COORD_ID)
    ref = (COORD_ID, coord.contract_address)
    for sc in (SC1, SC2, SC3):
        world.add_sidechain(sc, validators=4, fault_tolerance=1,
                            tx_allowed=middle_tx_allowed if sc == SC2 else None)
    mn = world.add_multichain_node("nodeA", [SC1, SC2, SC3])
    cell = world.sidechains[SC3].state.deploy("cell", lockable=True)
    hop = world.sidechains[SC2].state.deploy("hop", lockable=True, storage={
        0: SC3.value, 1: int.from_bytes(cell, "big")})
    proxy = world.sidechains[SC1].state.deploy("proxy", lockable=True, storage={
        0: SC2.value, 1: int.from_bytes(hop, "big")})
    tx = world.build_crosschain_tx(
        "nodeA", CallSpec(SC1, proxy, encode_call("relay", 1, 5)),
        timeout_blocks=30, coordination_ref=ref)
    handle = world.submit_crosschain_tx("nodeA", sign_tx(tx, mn.account))
    return world, handle, {"proxy": proxy, "hop": hop, "cell": cell}
