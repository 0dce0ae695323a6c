"""Shared exception hierarchy.

Every error raised by this package derives from PaylensError so the CLI
can catch one type and exit nonzero with a module-prefixed message.
"""


class PaylensError(Exception):
    """Base class for all package errors."""

    module = "paylens"

    def __str__(self) -> str:
        return f"{self.module}: {super().__str__()}"


class ParseError(PaylensError):
    """A transaction record could not be parsed (strict mode)."""

    module = "corpus"


class EmptyProfile(PaylensError):
    module = "features"


class EmptyCorpus(PaylensError):
    module = "vectorize"


class DimensionMismatch(PaylensError):
    module = "vectorize"


class UnknownRegion(PaylensError):
    module = "label"


class LabelFileError(PaylensError):
    module = "label"


class SingleClass(PaylensError):
    module = "model"


class NonFiniteError(PaylensError):
    module = "model"


class VersionError(PaylensError):
    module = "model"


class CorruptError(PaylensError):
    module = "model"


class TooFewSamples(PaylensError):
    module = "eval"


class WorkerDied(PaylensError):
    module = "eval"


class HarvestError(PaylensError):
    module = "harvest"


class UserNotFound(HarvestError):
    pass


class UnknownUsername(HarvestError):
    pass


class PatternNotFound(HarvestError):
    pass


class MalformedPage(HarvestError):
    pass


class SynthSpecError(PaylensError):
    module = "synth"
