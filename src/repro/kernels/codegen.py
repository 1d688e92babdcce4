"""Small assembly-emission helper used by the kernel generators, and
the RAM layout their harnesses share."""

from __future__ import annotations

# RAM layout for kernel harnesses (RAM_BASE-relative byte offsets).
DST_OFF = 0x400   # result area (also reduction scratch at +256)
A_OFF = 0x800
B_OFF = 0x900
TABLE_OFF = 0xA00  # comb table (<= 2 KB) or squaring table (512 B)


class Asm:
    """Accumulates assembly source lines with light formatting."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def label(self, name: str) -> None:
        self.lines.append(f"{name}:")

    def emit(self, text: str, comment: str = "") -> None:
        line = f"    {text}"
        if comment:
            line = f"{line:<40}# {comment}"
        self.lines.append(line)

    def ds(self, text: str) -> None:
        """Place an instruction in the preceding branch's delay slot."""
        self.lines.append(f"    .ds {text}")

    def comment(self, text: str) -> None:
        self.lines.append(f"    # {text}")

    def blank(self) -> None:
        self.lines.append("")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    def extend(self, other: "Asm") -> None:
        self.lines.extend(other.lines)
