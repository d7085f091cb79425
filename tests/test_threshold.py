import dataclasses
import itertools

import pytest

from xchain.threshold import (
    DuplicateShareIndex,
    InsufficientShares,
    InvalidConfig,
    ThresholdConfig,
    get_scheme,
)

SCHEMES = ["modp", "bn254"]
# the fast test double carries the bulk of the trial load; the real
# curve runs the same assertions at reduced scale
TRIALS = {"modp": 40, "bn254": 3}


@pytest.fixture(params=SCHEMES)
def scheme(request):
    return get_scheme(request.param)


def test_config_validation():
    assert ThresholdConfig.from_fault_tolerance(5, 1).m == 2  # m = f + 1
    assert ThresholdConfig.from_fault_tolerance(1, 0).m == 1
    with pytest.raises(InvalidConfig):
        ThresholdConfig(n=3, f=0, m=4)
    with pytest.raises(InvalidConfig):
        ThresholdConfig(n=3, f=0, m=0)
    with pytest.raises(InvalidConfig):
        get_scheme("nonsense")


def test_single_signer_degenerate(scheme):
    config = ThresholdConfig(n=1, f=0, m=1)
    shares, pk = scheme.keygen_dealer(config, 9)
    sig = scheme.combine([scheme.sign_share(shares[0], b"solo")], config)
    assert scheme.verify(pk, b"solo", sig)


def test_keygen_deterministic(scheme):
    config = ThresholdConfig(n=4, f=2, m=3)
    a_shares, a_pk = scheme.keygen_dealer(config, 1234)
    b_shares, b_pk = scheme.keygen_dealer(config, 1234)
    assert a_pk == b_pk
    assert a_shares == b_shares
    c_shares, c_pk = scheme.keygen_dealer(config, 1235)
    assert c_pk != a_pk


def test_sign_share_determinism_and_distinctness(scheme):
    config = ThresholdConfig(n=3, f=1, m=2)
    shares, _ = scheme.keygen_dealer(config, 5)
    one = scheme.sign_share(shares[0], b"m")
    again = scheme.sign_share(shares[0], b"m")
    other = scheme.sign_share(shares[1], b"m")
    assert one == again
    assert one.point != other.point
    assert scheme.sign_share(shares[0], b"").point is not None  # empty message ok


def test_subset_invariance(scheme):
    config = ThresholdConfig(n=5, f=1, m=2)
    shares, pk = scheme.keygen_dealer(config, 77)
    partials = [scheme.sign_share(s, b"the message") for s in shares]
    points = set()
    for subset in itertools.combinations(partials, 2):
        sig = scheme.combine(list(subset), config)
        points.add(str(sig.point))
        assert scheme.verify(pk, b"the message", sig)
    assert len(points) == 1


def test_combine_errors(scheme):
    config = ThresholdConfig(n=4, f=1, m=2)
    shares, _ = scheme.keygen_dealer(config, 3)
    partials = [scheme.sign_share(s, b"x") for s in shares]
    with pytest.raises(InsufficientShares):
        scheme.combine(partials[:1], config)
    with pytest.raises(DuplicateShareIndex):
        scheme.combine([partials[0], partials[0]], config)


def test_verify_rejects_wrong_message_and_forgery(scheme):
    config = ThresholdConfig(n=4, f=1, m=2)
    shares, pk = scheme.keygen_dealer(config, 8)
    partials = [scheme.sign_share(s, b"A") for s in shares]
    sig = scheme.combine(partials[:2], config)
    assert scheme.verify(pk, b"A", sig)
    assert not scheme.verify(pk, b"B", sig)
    # m-1 honest shares plus a forged one
    forged = dataclasses.replace(partials[2], point=scheme.sign_share(
        dataclasses.replace(shares[2], scalar=shares[2].scalar + 12345), b"A").point)
    bad = scheme.combine([partials[0], forged], config)
    assert not scheme.verify(pk, b"A", bad)


def test_threshold_soundness_trials(scheme):
    """Every m-subset verifies, every (m-1)+forged subset fails, over
    seeded trials (the heavy loop runs on the fast scheme)."""
    trials = TRIALS[scheme.name]
    config = ThresholdConfig(n=4, f=1, m=2)
    failures = 0
    for seed in range(trials):
        shares, pk = scheme.keygen_dealer(config, 1000 + seed)
        message = f"trial {seed}".encode()
        partials = [scheme.sign_share(s, message) for s in shares]
        combined = {str(scheme.combine(list(sub), config).point)
                    for sub in itertools.combinations(partials, 2)}
        if len(combined) != 1:
            failures += 1
        sig = scheme.combine(partials[:2], config)
        if not scheme.verify(pk, message, sig):
            failures += 1
        forged = dataclasses.replace(
            partials[1],
            point=scheme.sign_share(
                dataclasses.replace(shares[1], scalar=shares[1].scalar ^ 0xFFFF),
                message).point)
        if scheme.verify(pk, message, scheme.combine([partials[0], forged], config)):
            failures += 1
    assert failures == 0


def test_verify_share_against_public_share(scheme):
    config = ThresholdConfig(n=3, f=1, m=2)
    shares, _ = scheme.keygen_dealer(config, 21)
    publics = {s.index: scheme.public_share(s) for s in shares}
    good = scheme.sign_share(shares[0], b"partial")
    assert scheme.verify_share(publics[1], b"partial", good)
    corrupt = dataclasses.replace(good, point=scheme.sign_share(shares[1], b"partial").point)
    assert not scheme.verify_share(publics[1], b"partial", corrupt)


def test_message_hashed_to_base_once_per_backend(monkeypatch):
    from xchain.threshold import bn254, scheme as scheme_module

    calls = []

    def counting_hash_to_g1(message):
        calls.append(message)
        return original(message)

    original = bn254.hash_to_g1
    monkeypatch.setattr(bn254, "hash_to_g1", counting_hash_to_g1)
    scheme = scheme_module.ThresholdScheme(scheme_module._Bn254Backend())
    config = ThresholdConfig(n=3, f=1, m=2)
    shares, pk = scheme.keygen_dealer(config, 5)
    sig_shares = [scheme.sign_share(s, b"once") for s in shares]
    for s, sig_share in zip(shares, sig_shares):
        assert scheme.verify_share(scheme.public_share(s), b"once", sig_share)
    assert scheme.verify(pk, b"once", scheme.combine(sig_shares[:2], config))
    assert calls == [b"once"]


def test_order_is_the_bn254_group_order():
    from xchain.threshold import bn254, scheme as scheme_module
    assert scheme_module.ORDER == bn254.N


def test_modp_run_never_imports_bn254():
    """A modp scenario run from the CLI never loads the curve module."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import xchain

    root = Path(__file__).parent.parent
    src = str(Path(xchain.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "xchain.cli", "run",
         "scenarios/conditional_buy.scn"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "xchain.scenario" in imported
    assert "xchain.threshold.bn254" not in imported
