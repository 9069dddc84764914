"""``python -m weakroman``: the command-line front end."""

from .cli import main

main()
