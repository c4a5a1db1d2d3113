"""Design-space exploration: design points and the allocation search."""

from .search import GradientDescentSearch, SearchResult
from .space import DesignPoint, DesignSpace

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "GradientDescentSearch",
    "SearchResult",
]
