"""Dynamic branch prediction for the complex core.

Paper §3.2: a 2^16-entry *gshare* predictor [McFarling 93] predicts
conditional branches; a separate 2^16-entry table indexed the same way
predicts indirect branch targets.  Direct jump targets are computable from
the instruction word at fetch (the BTB is merged with the I-cache, as in
the VISA), so direct jumps never mispredict.

In simple mode both predictors are disabled and the core falls back to the
VISA's static backward-taken/forward-not-taken heuristic — that fallback
lives in the in-order engine, not here.
"""

from __future__ import annotations

#: 2-bit counter value <-> its snapshot digit, as byte translation tables.
_TO_DIGIT = bytes.maketrans(bytes(range(4)), b"0123")
_FROM_DIGIT = bytes.maketrans(b"0123", bytes(range(4)))


class GsharePredictor:
    """gshare: global history XOR PC indexes a table of 2-bit counters."""

    def __init__(self, bits: int = 16):
        self.bits = bits
        self.size = 1 << bits
        self.mask = self.size - 1
        self.table = [1] * self.size  # weakly not-taken
        self.history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self.mask

    def predict(self, pc: int) -> bool:
        """Predicted direction for the conditional branch at ``pc``."""
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        """Train the counter and shift the global history."""
        index = self._index(pc)
        counter = self.table[index]
        if taken:
            if counter < 3:
                self.table[index] = counter + 1
        else:
            if counter > 0:
                self.table[index] = counter - 1
        self.history = ((self.history << 1) | (1 if taken else 0)) & self.mask

    def flush(self) -> None:
        """Reset all state (used to induce mispredictions, §6.2/Figure 4)."""
        self.table = [1] * self.size
        self.history = 0

    # -- snapshot subsystem ------------------------------------------------------

    def dump_state(self) -> dict:
        """JSON-able state; the 2-bit counters pack into one digit string.

        65536 counters in ``[0, 3]`` serialize as a 64 KB character string
        instead of a JSON list one order of magnitude larger.
        """
        return {
            "bits": self.bits,
            "table": bytes(self.table).translate(_TO_DIGIT).decode("ascii"),
            "history": self.history,
        }

    def load_state(self, payload: dict) -> None:
        digits = payload["table"].encode("ascii")
        if len(digits) != self.size:
            raise ValueError(
                f"gshare table length {len(digits)} != {self.size}"
            )
        if digits.translate(None, b"0123"):
            raise ValueError("gshare table holds a digit outside 0-3")
        self.table = list(digits.translate(_FROM_DIGIT))
        self.history = int(payload["history"])


class IndirectPredictor:
    """Indirect-target table indexed like the gshare predictor (§3.2)."""

    def __init__(self, bits: int = 16):
        self.bits = bits
        self.size = 1 << bits
        self.mask = self.size - 1
        self.table: dict[int, int] = {}
        self.history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self.mask

    def predict(self, pc: int) -> int | None:
        """Predicted target address, or None when the entry is empty."""
        return self.table.get(self._index(pc))

    def update(self, pc: int, target: int, taken_history_bit: bool = True) -> None:
        self.table[self._index(pc)] = target
        self.history = (
            (self.history << 1) | (1 if taken_history_bit else 0)
        ) & self.mask

    def flush(self) -> None:
        self.table.clear()
        self.history = 0

    # -- snapshot subsystem ------------------------------------------------------

    def dump_state(self) -> dict:
        """JSON-able state: sorted ``[index, target]`` pairs + history."""
        return {
            "table": [[i, self.table[i]] for i in sorted(self.table)],
            "history": self.history,
        }

    def load_state(self, payload: dict) -> None:
        self.table = {int(i): int(t) for i, t in payload["table"]}
        self.history = int(payload["history"])
