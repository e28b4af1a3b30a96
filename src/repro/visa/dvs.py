"""Dynamic voltage/frequency scaling table (paper §5.2).

The paper extrapolates 37 settings from Intel Xscale's published range:
100 MHz / 0.70 V up to 1 GHz / 1.8 V in 25 MHz / 0.03 V increments.
(0.70 V + 36 x 0.03 V = 1.78 V; the paper rounds to 1.8 V.)

For the Figure 3 experiment, the explicitly-safe processor may enjoy a
clock-frequency advantage at equal voltage; :meth:`DVSTable.scaled`
produces that table (each setting's frequency multiplied, voltage kept).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InfeasibleError


@dataclass(frozen=True)
class Setting:
    """One DVS operating point."""

    freq_hz: float
    volts: float

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.freq_hz / 1e6:.0f}MHz/{self.volts:.2f}V"


class DVSTable:
    """An ordered table of frequency/voltage operating points."""

    def __init__(self, settings: list[Setting]):
        if not settings:
            raise ValueError("empty DVS table")
        self.settings = sorted(settings, key=lambda s: s.freq_hz)

    @classmethod
    def xscale(cls) -> "DVSTable":
        """The paper's 37-point Xscale-derived table."""
        settings = [
            Setting(freq_hz=(100 + 25 * i) * 1e6, volts=0.70 + 0.03 * i)
            for i in range(37)
        ]
        return cls(settings)

    def scaled(self, freq_factor: float) -> "DVSTable":
        """Same voltages, frequencies multiplied by ``freq_factor``.

        Models the potential cycle-time advantage of the simple processor
        (paper §5.2 / Figure 3).
        """
        return DVSTable(
            [Setting(s.freq_hz * freq_factor, s.volts) for s in self.settings]
        )

    @property
    def lowest(self) -> Setting:
        return self.settings[0]

    @property
    def highest(self) -> Setting:
        return self.settings[-1]

    def at_least(self, freq_hz: float) -> Setting:
        """The slowest setting with frequency >= ``freq_hz``.

        Raises:
            InfeasibleError: if even the highest setting is too slow.
        """
        for setting in self.settings:
            if setting.freq_hz >= freq_hz - 1e-6:
                return setting
        raise InfeasibleError(
            f"no DVS setting reaches {freq_hz / 1e6:.0f} MHz "
            f"(max {self.highest.freq_hz / 1e6:.0f} MHz)"
        )

    def __iter__(self):
        return iter(self.settings)

    def __len__(self) -> int:
        return len(self.settings)
