"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Raised when a configuration is inconsistent or contains unknown fields."""


class SynthesisError(RuntimeError):
    """Raised when a covariance or shadowing field cannot be made positive semidefinite."""


class NumericalError(RuntimeError):
    """Raised when a linear solve that must succeed (e.g. a Cholesky of a PD matrix) fails."""


class StatsError(ValueError):
    """Raised when accumulated statistics are inconsistent (e.g. empty sample sets)."""


class CampaignError(RuntimeError):
    """Raised when a campaign aborts; carries partial results for post-mortem.

    Attributes
    ----------
    partial : list
        Per-snapshot summaries completed before the failure.  A campaign of
        several configs (``run_campaigns``) lists them snapshot by snapshot,
        and within a snapshot in the order of its configs.
    failed_snapshot : int
        Index of the snapshot whose execution raised.
    """

    def __init__(self, message, partial, failed_snapshot):
        super().__init__(message)
        self.partial = partial
        self.failed_snapshot = failed_snapshot
