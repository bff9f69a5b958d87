"""Secret sharing on qudit graph states over prime fields.

Rank algebra decides which player sets can read a classical or quantum
secret encoded in a graph state; a dense state-vector simulator provides
the independent ground truth at small sizes.
"""

__version__ = "0.1.0"
