"""``python -m necsurf``: the ``necsurf`` command."""
import sys

from .cli import main

sys.exit(main())
