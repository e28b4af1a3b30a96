"""Memory-mapped device registers (paper §2.2, §4.3, §5.1).

The devices are timing-aware but not cycle-driven: the watchdog stores its
*expiry cycle* instead of being decremented every simulated cycle, which is
exactly equivalent and lets the event-driven cores skip idle cycles.

Devices:

* **Watchdog counter** — set or atomically advanced by sub-task snippets;
  expires when the current cycle reaches the programmed deadline.  A missed
  checkpoint is only *raised* when exceptions are unmasked (they are masked
  for non-real-time execution and while already in simple mode, §2.2).
* **Cycle counter** — free running; writes reset it (§4.3 uses it to measure
  per-sub-task actual execution times).
* **Frequency registers** — current and recovery frequency, set by the
  run-time system (§5.1).
* **Console** — a debug output port used by tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MemoryError_
from repro.isa import layout


@dataclass
class MMIODevices:
    """State of the memory-mapped device page.

    All methods take ``now``, the core's current cycle, because device
    semantics (counter values, expiry) are defined in cycles.
    """

    #: When True (default), watchdog expiry never raises an exception.
    #: The VISA runtime unmasks it while a hard real-time task runs in
    #: complex mode.
    exceptions_masked: bool = True

    _cycle_base: int = 0
    _wd_enabled: bool = False
    _wd_expiry: int = 0  # absolute cycle at which the counter hits zero
    _wd_remaining_when_disabled: int = 0
    #: Sub-task marks passed since the watchdog was armed: the initial SET
    #: counts one (sub-task 0's prologue), each ADD one more.  Lets the
    #: runtime attribute a missed checkpoint to its sub-task (§4.3 AET
    #: scaling needs to know which AETs are simple-mode contaminated).
    wd_marks: int = 0
    freq_cur: int = 0
    freq_rec: int = 0
    console: list[tuple[int, int]] = field(default_factory=list)

    # -- watchdog -------------------------------------------------------------

    def watchdog_value(self, now: int) -> int:
        """Current counter value (clamped at zero once expired)."""
        if not self._wd_enabled:
            return self._wd_remaining_when_disabled
        return max(0, self._wd_expiry - now)

    def watchdog_expired(self, now: int) -> bool:
        """True when the watchdog is enabled and has reached zero."""
        return self._wd_enabled and now >= self._wd_expiry

    def watchdog_set(self, value: int, now: int) -> None:
        self.wd_marks = 1
        if self._wd_enabled:
            self._wd_expiry = now + value
        else:
            self._wd_remaining_when_disabled = value

    def watchdog_add(self, value: int, now: int) -> None:
        self.wd_marks += 1
        if self._wd_enabled:
            self._wd_expiry += value
        else:
            self._wd_remaining_when_disabled += value

    def watchdog_ctrl(self, value: int, now: int) -> None:
        enable = bool(value & 1)
        if enable and not self._wd_enabled:
            self._wd_expiry = now + self._wd_remaining_when_disabled
        elif not enable and self._wd_enabled:
            self._wd_remaining_when_disabled = max(0, self._wd_expiry - now)
        self._wd_enabled = enable

    # -- cycle counter ----------------------------------------------------------

    def cycle_count(self, now: int) -> int:
        return now - self._cycle_base

    def cycle_reset(self, value: int, now: int) -> None:
        self._cycle_base = now - value

    # -- snapshot subsystem ------------------------------------------------------

    def dump_state(self) -> dict:
        """JSON-able device state (all fields, including the console log)."""
        return {
            "exceptions_masked": self.exceptions_masked,
            "cycle_base": self._cycle_base,
            "wd_enabled": self._wd_enabled,
            "wd_expiry": self._wd_expiry,
            "wd_remaining_when_disabled": self._wd_remaining_when_disabled,
            "wd_marks": self.wd_marks,
            "freq_cur": self.freq_cur,
            "freq_rec": self.freq_rec,
            "console": [[cycle, value] for cycle, value in self.console],
        }

    def load_state(self, payload: dict) -> None:
        """Restore every device register from a :meth:`dump_state` payload."""
        self.exceptions_masked = bool(payload["exceptions_masked"])
        self._cycle_base = int(payload["cycle_base"])
        self._wd_enabled = bool(payload["wd_enabled"])
        self._wd_expiry = int(payload["wd_expiry"])
        self._wd_remaining_when_disabled = int(
            payload["wd_remaining_when_disabled"]
        )
        self.wd_marks = int(payload["wd_marks"])
        self.freq_cur = int(payload["freq_cur"])
        self.freq_rec = int(payload["freq_rec"])
        self.console = [(int(c), int(v)) for c, v in payload["console"]]

    # -- generic load/store interface -------------------------------------------

    def read(self, addr: int, now: int) -> int:
        """Handle a load from the device page."""
        if addr == layout.WATCHDOG_COUNT:
            return self.watchdog_value(now)
        if addr == layout.WATCHDOG_CTRL:
            return 1 if self._wd_enabled else 0
        if addr == layout.CYCLE_COUNT:
            return self.cycle_count(now)
        if addr == layout.FREQ_CUR:
            return self.freq_cur
        if addr == layout.FREQ_REC:
            return self.freq_rec
        raise MemoryError_(f"read from unmapped device register {addr:#x}")

    def write(self, addr: int, value: object, now: int) -> None:
        """Handle a store to the device page."""
        if not isinstance(value, int):
            raise MemoryError_(f"device registers take integers, got {value!r}")
        if addr == layout.WATCHDOG_COUNT:
            self.watchdog_set(value, now)
        elif addr == layout.WATCHDOG_ADD:
            self.watchdog_add(value, now)
        elif addr == layout.WATCHDOG_CTRL:
            self.watchdog_ctrl(value, now)
        elif addr == layout.CYCLE_COUNT:
            self.cycle_reset(value, now)
        elif addr == layout.CONSOLE_OUT:
            self.console.append((now, value))
        elif addr == layout.FREQ_CUR:
            self.freq_cur = value
        elif addr == layout.FREQ_REC:
            self.freq_rec = value
        else:
            raise MemoryError_(f"write to unmapped device register {addr:#x}")
