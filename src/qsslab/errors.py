"""Exception types shared across the package."""


class QsslabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QsslabError):
    """Malformed or non-physical input: bad shapes, states, unitaries, files or plans."""


class UnsupportedCaseError(QsslabError):
    """A deliberately unimplemented case (e.g. fidelity of two mixed two-qubit states)."""


class CertificationError(QsslabError):
    """A nonce set failed a certification the operation needs (e.g. attack synthesis)."""


class ProtocolError(QsslabError):
    """An adversary strategy violated the protocol engine's contract."""


class PlanIncompleteError(ValidationError):
    """An attack plan is missing a unitary for a (nonce, secret) pair."""
