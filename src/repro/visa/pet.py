"""Predicted execution time (PET) selection from AET histories (paper §4.3).

Each sub-task records its actual execution time (AET) per task instance
via the cycle-counter snippets.  PETs are re-evaluated every
``reeval_period`` (default 10) task executions:

* **last-N** (used in all the paper's experiments): PET = max of the last
  N recorded AETs.
* **histogram**: PET chosen so that a target fraction of recorded AETs
  exceed it (probabilistic misprediction-rate targeting).

AETs of mispredicted sub-tasks are partially executed in simple mode,
inflating the measurement; the simple-mode portion is scaled down by the
relative performance of the two modes before recording (§4.3).

PETs are kept in *cycles* of the complex core.  Converting to time at a
candidate frequency as ``cycles / f`` is slightly conservative at lower
frequencies (memory stalls take fewer cycles there), which only makes
speculation safer.
"""

from __future__ import annotations

from collections import deque


class LastNPET:
    """PET = maximum of the last N AETs (the paper's default policy)."""

    def __init__(self, num_subtasks: int, window: int = 10):
        self.window = window
        self._history: list[deque[int]] = [
            deque(maxlen=window) for _ in range(num_subtasks)
        ]

    def record(self, subtask: int, aet_cycles: int) -> None:
        self._history[subtask].append(aet_cycles)

    def ready(self) -> bool:
        """True once every sub-task has at least one AET."""
        return all(history for history in self._history)

    def predict(self) -> list[int]:
        """Current PET (cycles) per sub-task."""
        return [max(history) for history in self._history]

    # -- snapshot subsystem ------------------------------------------------------

    def dump_state(self) -> dict:
        """JSON-able history (policy tag guards against cross-policy loads)."""
        return {
            "policy": "lastn",
            "window": self.window,
            "history": [list(history) for history in self._history],
        }

    def load_state(self, payload: dict) -> None:
        if payload.get("policy") != "lastn":
            raise ValueError(f"not a last-N PET payload: {payload.get('policy')!r}")
        self.window = int(payload["window"])
        self._history = [
            deque((int(v) for v in history), maxlen=self.window)
            for history in payload["history"]
        ]


class HistogramPET:
    """PET targeting a misprediction probability from an AET histogram.

    ``target_rate`` = 0.0 selects the maximum recorded AET (zero expected
    mispredictions); 0.10 allows ~10 % of recorded AETs to exceed the PET,
    trading a lower speculative frequency against more recovery-mode time
    (the trade-off §4.3 discusses).
    """

    def __init__(
        self,
        num_subtasks: int,
        target_rate: float = 0.0,
        capacity: int = 200,
    ):
        if not 0.0 <= target_rate < 1.0:
            raise ValueError(f"target_rate must be in [0, 1), got {target_rate}")
        self.target_rate = target_rate
        self._history: list[deque[int]] = [
            deque(maxlen=capacity) for _ in range(num_subtasks)
        ]

    def record(self, subtask: int, aet_cycles: int) -> None:
        self._history[subtask].append(aet_cycles)

    def ready(self) -> bool:
        return all(history for history in self._history)

    def predict(self) -> list[int]:
        pets = []
        for history in self._history:
            ordered = sorted(history)
            # Index such that ~target_rate of samples are strictly higher.
            index = min(
                len(ordered) - 1,
                int((1.0 - self.target_rate) * (len(ordered) - 1) + 0.9999),
            )
            pets.append(ordered[index])
        return pets

    # -- snapshot subsystem ------------------------------------------------------

    def dump_state(self) -> dict:
        return {
            "policy": "histogram",
            "target_rate": self.target_rate,
            "capacity": self._history[0].maxlen if self._history else 0,
            "history": [list(history) for history in self._history],
        }

    def load_state(self, payload: dict) -> None:
        if payload.get("policy") != "histogram":
            raise ValueError(
                f"not a histogram PET payload: {payload.get('policy')!r}"
            )
        self.target_rate = float(payload["target_rate"])
        capacity = int(payload["capacity"])
        self._history = [
            deque((int(v) for v in history), maxlen=capacity)
            for history in payload["history"]
        ]
