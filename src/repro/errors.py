"""Exception types shared across layers."""


class RegistryLookupError(KeyError):
    """No platform, workload, scenario, benchmark or ledger run has that name."""

    def __str__(self) -> str:
        # KeyError quotes its message; a lookup failure reads as plain text.
        return str(self.args[0]) if self.args else ""
