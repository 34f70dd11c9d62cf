"""Wall-clock serving benchmark (see README.md)."""
