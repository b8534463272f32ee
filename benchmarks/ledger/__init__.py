"""The WALRUS ledger: the repository's benchmark (see README.md)."""
