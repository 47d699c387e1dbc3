from .cli import script

script()
