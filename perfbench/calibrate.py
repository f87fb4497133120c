"""A fixed pure-Python workload that gauges how fast the machine runs now.

On a shared virtual machine the speed available to one process switches
between a fast state and one about twice as slow, for spells of seconds
to minutes, as neighbours come and go. The benchmark times this workload
between passes and divides its mean times by the run's slowdown, the mean
calibration time over REFERENCE_S, so that two runs of the same program
report about the same figure although the machine spent different shares
of them in the slow state. The workload never changes with the program
under test: it mixes the interpreter work exbt does (character scanning,
small objects, dict and list churn, a list-based dynamic program), and
its result is checked so that it cannot be skipped.
"""

from __future__ import annotations

import time

# calibration time in the fast state of the VM the reference figures come
# from (2 vCPUs of an Intel Xeon at 2.0 GHz); a fixed constant, so that
# every run divides by the same value
REFERENCE_S = 0.0025

_SOURCE = """\
package bench.calibration;

public class Ledger {
    private final java.util.Map<String, Integer> totals = new java.util.HashMap<>();
    private int entries;

    public void post(String account, int value) {
        if (value == 0) {
            throw new IllegalArgumentException("zero entry for " + account);
        }
        int next = totals.getOrDefault(account, 0) + value;
        if (next > 1_000_000 || next < -1_000_000) {
            throw new IllegalStateException("over limit");
        }
        totals.put(account, next);
        entries++;
    }

    public int size() {
        return entries;
    }
}
"""
_A = "acct.withdraw(amount - fee); ledger.post(account, -amount); assertEquals(25, acct.balance());"
_B = "Account acct = open(); acct.deposit(40); acct.withdraw(15); assertEquals(25, acct.balance());"


def _scan(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, line, n = 0, 1, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c.isspace():
            i += 1
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line))
            i = j
        elif c.isdigit():
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "_"):
                j += 1
            tokens.append(("number", text[i:j], line))
            i = j
        elif c == '"':
            j = text.index('"', i + 1) + 1
            tokens.append(("string", text[i:j], line))
            i = j
        else:
            tokens.append(("op", c, line))
            i += 1
    return tokens


def _distance(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def _work() -> int:
    total = 0
    for _ in range(3):
        tokens = _scan(_SOURCE)
        counts: dict[str, int] = {}
        for _, text, _ in tokens:
            counts[text] = counts.get(text, 0) + 1
        total += len(tokens) + len(counts)
    return total + _distance(_A, _B)


_EXPECTED = _work()


def sample() -> float:
    """Seconds one run of the calibration workload takes now."""
    t0 = time.perf_counter()
    result = _work()
    elapsed = time.perf_counter() - t0
    if result != _EXPECTED:
        raise RuntimeError("calibration workload returned a different result")
    return elapsed
