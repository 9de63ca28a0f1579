"""The errors gaitview raises.

Every failure of the pipeline is a GaitViewError whose message says what
went wrong; a stage that adds context (the feature and side, the subject,
trial and view, the input file) raises a new GaitViewError with that
context in front and the original failure as its __cause__. The one
subclass, ParseError, formats the line, column and file of a malformed
input. Invalid arguments raise ValueError, and file-system failures
OSError; read_text names the file whose bytes are not UTF-8, which
UnicodeDecodeError does not.
"""


class GaitViewError(Exception):
    """Base class for all gaitview errors."""


class ParseError(GaitViewError):
    def __init__(self, line: int, column: int, reason: str, path=None):
        self.line = line
        self.column = column
        self.reason = reason
        self.path = path
        where = f"line {line}, column {column}"
        super().__init__(f"{path}: {where}: {reason}" if path else f"{where}: {reason}")


def read_text(path) -> str:
    """The text of a UTF-8 file, line endings as written; bytes that are not
    UTF-8 raise GaitViewError naming the file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise GaitViewError(f"{path}: {exc}") from None
