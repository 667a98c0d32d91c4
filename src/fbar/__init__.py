"""fbar: a fixed-codebook bit-pair codec with honest information accounting.

The library compresses byte streams through a static 65,536-row
translation table addressed by 4D bit-pair flags, writes grid-file
artifacts in a nominal and a self-contained format, and ships a
metrics/audit layer that reports both the scheme's fixed 2:1 / 8:1
accounting and the true per-channel cost of decoding.
"""

import sys

# Each public name and the submodule that defines it.  The package imports
# none of them itself: __getattr__ (PEP 562) imports a submodule on the
# first read of it or of one of its names, so a process loads only the
# modules it runs.
_EXPORTS = {
    **dict.fromkeys(("FORMAT_HONEST", "FORMAT_PAPER", "MODE_1TT", "MODE_4TT"), "addressing"),
    **dict.fromkeys(
        ("CompressJob", "CompressResult", "DecompressJob", "ModeMismatchError", "compress",
         "decompress", "roundtrip"),
        "codec",
    ),
    "GridFormatError": "gridfile",
    **dict.fromkeys(("MetricsReport", "paper_size", "pigeonhole_audit"), "metrics"),
    **dict.fromkeys(
        ("TranslationTable", "TtError", "TtFormatError", "TtSet4", "generate_tt",
         "load_binary", "serialize_binary", "serialize_text", "verify_tt"),
        "transtable",
    ),
}
_SUBMODULES = ("addressing", "cli", "codec", "gridfile", "metrics", "pairops", "transtable")

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """A submodule, or a public name from the submodule that defines it,
    imported on first read."""
    module = name if name in _SUBMODULES else _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the submodule here
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = globals()[name] = getattr(value, name)  # later reads skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
