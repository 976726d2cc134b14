"""dialogforge: multi-turn multimodal dialogue synthesis and stream serialization.

The package root re-exports nothing, so importing one layer does not load the
others: import from the submodules (``dialogforge.dialogue``,
``dialogforge.stream``, ``dialogforge.cli``, ...).
"""

__version__ = "0.1.0"
