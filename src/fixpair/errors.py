"""Exception hierarchy shared across the pipeline stages."""


class FixpairError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FixpairError):
    """Invalid configuration (bad flag value, unwritable output dir, ...)."""


class SnapshotFormatError(FixpairError):
    """Snapshot file could not be parsed.

    Carries enough context (file, field, record id) to locate the offending
    part of the document.
    """

    def __init__(self, message, *, path=None, field=None):
        self.path = path
        self.field = field
        detail = message
        if field is not None:
            detail = f"{detail} (field: {field})"
        if path is not None:
            detail = f"{path}: {detail}"
        super().__init__(detail)


class SnapshotInvariantError(FixpairError):
    """A structurally valid snapshot violates a consistency invariant."""

    def __init__(self, message, *, offenders=()):
        self.offenders = list(offenders)
        if self.offenders:
            message = f"{message}: {', '.join(str(o) for o in self.offenders)}"
        super().__init__(message)


class AuthenticationError(FixpairError):
    """The hosting service rejected the supplied credentials."""


class RateLimitExhausted(FixpairError):
    """Hosting-service rate limit not lifted within the retry budget."""


class DiffParseError(FixpairError):
    """Unified diff text could not be parsed."""

    def __init__(self, message, *, line_no=None, offset=None):
        self.line_no = line_no
        self.offset = offset
        loc = []
        if line_no is not None:
            loc.append(f"line {line_no}")
        if offset is not None:
            loc.append(f"byte {offset}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)


class AnalysisMissingError(FixpairError):
    """A required per-commit analysis result is absent."""

    def __init__(self, commit_hash, detail=""):
        self.commit_hash = commit_hash
        message = f"missing analysis for commit {commit_hash}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class CheckoutError(FixpairError):
    """Commit tree could not be read. ``kind`` is 'unknown' or 'unreachable'."""

    def __init__(self, commit_hash, kind, detail=""):
        self.commit_hash = commit_hash
        self.kind = kind
        message = f"cannot check out {commit_hash}: {kind}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class StageError(FixpairError):
    """A pipeline stage failed; earlier stage outputs are kept for resume."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
