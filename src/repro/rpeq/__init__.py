"""Regular path expressions with qualifiers (rpeq): AST, parsing, analysis.

The query language of the paper's Sec. II.2, with an XPath forward-fragment
front-end and tooling for analysis and random generation.
"""

from ..analysis.metrics import QueryProfile, analyze, labels_used, uses_wildcard
from .ast import (
    WILDCARD,
    Concat,
    Empty,
    Following,
    Label,
    OptionalExpr,
    Plus,
    Preceding,
    Qualifier,
    Rpeq,
    Star,
    Union,
    concat_all,
    descendant_or_self,
)
from .generate import GeneratorConfig, query_family, random_rpeq
from .lexer import Token, tokenize
from .parser import parse
from .unparse import unparse
from .xpath import xpath_to_rpeq

__all__ = [
    "Concat",
    "Empty",
    "Following",
    "GeneratorConfig",
    "Label",
    "OptionalExpr",
    "Plus",
    "Preceding",
    "Qualifier",
    "QueryProfile",
    "Rpeq",
    "Star",
    "Token",
    "Union",
    "WILDCARD",
    "analyze",
    "concat_all",
    "descendant_or_self",
    "labels_used",
    "parse",
    "query_family",
    "random_rpeq",
    "tokenize",
    "unparse",
    "uses_wildcard",
    "xpath_to_rpeq",
]
