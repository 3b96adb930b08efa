"""The repo benchmark: see NOTES.md and run.py."""
