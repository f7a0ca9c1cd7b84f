"""Each internal check of the ring invariants, shown to fire on a planted fault.

A fault is planted with monkeypatch on one quantity of Ring.  The check it
breaks must raise InvariantViolation with its own message when the ring
quantity is read, and `sgblow verify` must record that failure on the pair
that met it and exit 3.
"""

import json
import re

import pytest

from sgblow.cli import main
from sgblow.core import NumericalSemigroup, ValueIdeal
from sgblow.errors import InvariantViolation
from sgblow.invariants import Ring, TypeSequence, classify, ring, type_sequence

HONEST_K = Ring.__dict__["k"].func
HONEST_TS = Ring.__dict__["ts"].func


class _KEqualToR(ValueIdeal):
    """K with an equality test that answers yes to every comparison."""

    __slots__ = ()

    def __eq__(self, other):
        return True

    __hash__ = ValueIdeal.__hash__


def _k_is_r(self):
    # the canonical ideal taken to be R itself
    return self.s_ideal


def _small_elements_without_zero(self):
    # the filtration walk stops at R_1 = M instead of R_0 = S
    return self.s.small_elements[1:]


def _ts_reversed(self):
    return TypeSequence(HONEST_TS(self).entries[::-1])


def _k_equal_to_r(self):
    return _KEqualToR._of(self.s, 0, HONEST_K(self).bits, self.s.conductor)


# (Ring attribute, fault, the public read that runs the check, a semigroup
# that meets it, the message, the verify genus bound, the semigroups whose m
# verify records as failed)
FAULTS = [
    ("k", _k_is_r, type_sequence, (3, 4, 5), "type sequence routes disagree: [2] vs [1]",
     "2", ["{0,3->}"]),
    ("small_elements", _small_elements_without_zero, type_sequence, (3, 5, 7),
     "type sequence routes must end at S:S = S and K + S = K",
     "2", ["{0,2->}", "{0,3->}", "{0,2,4->}"]),
    ("ts", _ts_reversed, classify, (3, 5, 7),
     "almost Gorenstein criteria disagree: True/False/False", "3", ["{0,3,5->}"]),
    ("k", _k_equal_to_r, classify, (3, 7, 8), "Gorenstein must imply almost Gorenstein",
     "4", ["{0,3,6->}"]),
]
IDS = ["routes-disagree", "routes-end", "almost-gorenstein-criteria", "gorenstein-implies-almost"]


def _plant(monkeypatch, attr, fault):
    monkeypatch.setattr(Ring, attr, property(fault))


@pytest.mark.parametrize("attr,fault,read,gens,message,genus,failed", FAULTS, ids=IDS)
def test_a_planted_fault_fires_its_ring_check(fresh_rings, monkeypatch, attr, fault, read,
                                              gens, message, genus, failed):
    s = NumericalSemigroup.from_generators(gens)
    read(s)
    ring.cache_clear()
    _plant(monkeypatch, attr, fault)
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        read(s)


@pytest.mark.parametrize("attr,fault,read,gens,message,genus,failed", FAULTS, ids=IDS)
def test_verify_records_a_ring_check_on_its_pair(fresh_rings, monkeypatch, capsys, attr,
                                                 fault, read, gens, message, genus, failed):
    # Cor5.2's hypothesis reads the ring class; every pair reads the type sequence
    argv = ["verify", "--max-genus", genus, "--statements", "Cor5.2", "--jobs", "1",
            "--format", "json"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)["totals"]
    ring.cache_clear()
    _plant(monkeypatch, attr, fault)
    assert main(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == [
        {"semigroup": text, "ideal": "m", "statement_id": "InvariantViolation",
         "lhs": None, "rhs": None, "witness": None, "notes": message}
        for text in failed]
    assert doc["totals"]["failed"] == len(failed)
    assert doc["totals"]["pairs"] == clean["pairs"] - len(failed)
