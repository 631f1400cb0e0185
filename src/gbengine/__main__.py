"""Run the gbengine command line: python -m gbengine ..."""

import sys

from .cli import main

sys.exit(main())
