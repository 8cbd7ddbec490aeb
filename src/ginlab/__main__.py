"""``python -m ginlab <campaign> ...``: the ``ginlab`` command without the console script."""

from .cli import main

raise SystemExit(main())
