"""Conversion-function pairs (§2.2.2) and their algebraic properties.

A :class:`ConversionPair` describes the two UDFs ``toUniversal(x, t)`` and
``fromUniversal(x, t)`` registered in the underlying DBMS, plus the algebraic
properties the MTSQL optimizer exploits:

* every valid pair is *equality preserving* (Corollary 1),
* ``order_preserving`` pairs additionally preserve ``<``/``>``,
* ``linear`` pairs have the form ``to(x, t) = a_t * x + b_t``,
* ``constant_factor`` pairs are the ``b_t = 0`` special case.

:func:`distributes_over` encodes Table 2 of the paper: which SQL aggregation
functions can be computed per tenant first (aggregation distribution, §4.2.2)
for a given category of conversion functions.

For the function-inlining optimization (§4.2.3) a pair can carry *inline
builders*: callables producing the AST expression that replaces a UDF call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..errors import ConversionError
from ..sql import ast

InlineBuilder = Callable[[ast.Expression, ast.Expression], ast.Expression]

#: aggregates considered by the distribution matrix (Table 2)
DISTRIBUTIVE_AGGREGATES = ("COUNT", "MIN", "MAX", "SUM", "AVG")


@dataclass
class ConversionPair:
    """A registered ``(toUniversal, fromUniversal)`` pair for one attribute domain."""

    name: str
    to_universal: str
    from_universal: str
    order_preserving: bool = False
    linear: bool = False
    constant_factor: bool = False
    inline_to: Optional[InlineBuilder] = None
    inline_from: Optional[InlineBuilder] = None

    def __post_init__(self) -> None:
        if self.constant_factor:
            self.linear = True
        if self.linear:
            self.order_preserving = True

    @property
    def supports_inlining(self) -> bool:
        return self.inline_to is not None and self.inline_from is not None

    def function_names(self) -> tuple[str, str]:
        return self.to_universal, self.from_universal


def distributes_over(aggregate: str, pair: ConversionPair) -> bool:
    """Table 2: does ``aggregate`` distribute over this conversion pair?

    * COUNT distributes over every conversion pair (conversions are scalar).
    * MIN / MAX distribute over order-preserving pairs.
    * SUM / AVG distribute over linear pairs (``a*x + b``); the constant
      factor case (``c*x``) is included.
    * nothing distributes over pairs that are merely equality preserving,
      and holistic aggregates never distribute (they are not in the list).
    """
    name = aggregate.upper()
    if name == "COUNT":
        return True
    if name in ("MIN", "MAX"):
        return pair.order_preserving
    if name in ("SUM", "AVG"):
        return pair.linear
    return False


class ConversionRegistry:
    """All conversion pairs known to an MTBase instance."""

    def __init__(self) -> None:
        self._pairs: dict[str, ConversionPair] = {}
        self._by_function: dict[str, ConversionPair] = {}

    def register(self, pair: ConversionPair) -> ConversionPair:
        if pair.name.lower() in self._pairs:
            raise ConversionError(f"conversion pair {pair.name!r} already registered")
        self._pairs[pair.name.lower()] = pair
        self._by_function[pair.to_universal.lower()] = pair
        self._by_function[pair.from_universal.lower()] = pair
        return pair

    def has(self, name: str) -> bool:
        return name.lower() in self._pairs

    def get(self, name: str) -> ConversionPair:
        try:
            return self._pairs[name.lower()]
        except KeyError as exc:
            raise ConversionError(f"unknown conversion pair {name!r}") from exc

    def by_function(self, function_name: str) -> Optional[ConversionPair]:
        return self._by_function.get(function_name.lower())

    def resolve(self, name: str) -> ConversionPair:
        """Look a pair up by its name or by either of its function names.

        The MT schema records a CONVERTIBLE column's pair by the
        ``@toUniversal`` function named in the DDL, so both spellings must
        resolve to the same pair.
        """
        pair = self._pairs.get(name.lower())
        if pair is not None:
            return pair
        pair = self._by_function.get(name.lower())
        if pair is not None:
            return pair
        raise ConversionError(f"unknown conversion pair {name!r}")

    def pairs(self) -> list[ConversionPair]:
        return list(self._pairs.values())


# ---------------------------------------------------------------------------
# Validation of Definition 1 (used by tests and by users defining new pairs)
# ---------------------------------------------------------------------------


def verify_conversion_pair(
    call: Callable[[str, list], object],
    pair: ConversionPair,
    tenants: Iterable[int],
    samples: Iterable,
) -> list[str]:
    """Check the Definition-1 properties of a pair on sample values.

    ``call(function_name, args)`` must invoke the UDF (e.g.
    ``lambda name, args: middleware.database.executor.context.call_function(name, args)``).
    Returns a list of violation messages; an empty list means the samples
    exhibit all required properties:

    (iii) round-trip: ``from(to(x, t), t) == x``
    (Corollary 1) equality preservation, checked pairwise on the samples,
    (Corollary 2) cross-tenant convertibility preserves equality.
    """
    violations: list[str] = []
    tenants = list(tenants)
    samples = list(samples)
    for tenant in tenants:
        for value in samples:
            universal = call(pair.to_universal, [value, tenant])
            round_trip = call(pair.from_universal, [universal, tenant])
            if not _approximately_equal(round_trip, value):
                violations.append(
                    f"{pair.name}: fromUniversal(toUniversal({value!r}, {tenant})) = "
                    f"{round_trip!r} != {value!r}"
                )
    for tenant in tenants:
        converted = [call(pair.to_universal, [value, tenant]) for value in samples]
        for first in range(len(samples)):
            for second in range(len(samples)):
                same_input = _approximately_equal(samples[first], samples[second])
                same_output = _approximately_equal(converted[first], converted[second])
                if same_input != same_output:
                    violations.append(
                        f"{pair.name}: equality not preserved for tenant {tenant} on "
                        f"({samples[first]!r}, {samples[second]!r})"
                    )
    if len(tenants) >= 2:
        source, target = tenants[0], tenants[1]
        for value in samples:
            translated = call(
                pair.from_universal, [call(pair.to_universal, [value, source]), target]
            )
            back = call(
                pair.from_universal, [call(pair.to_universal, [translated, target]), source]
            )
            if not _approximately_equal(back, value):
                violations.append(
                    f"{pair.name}: cross-tenant translation not invertible for {value!r}"
                )
    return violations


def _approximately_equal(left, right) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        try:
            return abs(float(left) - float(right)) <= 1e-6 * max(1.0, abs(float(left)))
        except (TypeError, ValueError):
            return False
    return left == right


# ---------------------------------------------------------------------------
# Helpers to build the two standard MT-H conversion pairs
# ---------------------------------------------------------------------------


def make_currency_pair(
    to_name: str = "currencyToUniversal",
    from_name: str = "currencyFromUniversal",
    rate_to_fn: str = "mt_currency_rate_to_universal",
    rate_from_fn: str = "mt_currency_rate_from_universal",
) -> ConversionPair:
    """The constant-factor currency pair (universal format: USD)."""

    def inline_to(value: ast.Expression, ttid: ast.Expression) -> ast.Expression:
        return ast.BinaryOp("*", value, ast.func(rate_to_fn, ttid))

    def inline_from(value: ast.Expression, ttid: ast.Expression) -> ast.Expression:
        return ast.BinaryOp("*", value, ast.func(rate_from_fn, ttid))

    return ConversionPair(
        name="currency",
        to_universal=to_name,
        from_universal=from_name,
        constant_factor=True,
        inline_to=inline_to,
        inline_from=inline_from,
    )


def make_phone_pair(
    to_name: str = "phoneToUniversal",
    from_name: str = "phoneFromUniversal",
    prefix_fn: str = "mt_phone_prefix",
) -> ConversionPair:
    """The phone-prefix pair: equality preserving only (not order preserving)."""

    def inline_to(value: ast.Expression, ttid: ast.Expression) -> ast.Expression:
        prefix_length = ast.func("CHAR_LENGTH", ast.func(prefix_fn, ttid))
        return ast.Substring(
            expr=value, start=ast.BinaryOp("+", prefix_length, ast.lit(1)), length=None
        )

    def inline_from(value: ast.Expression, ttid: ast.Expression) -> ast.Expression:
        return ast.func("CONCAT", ast.func(prefix_fn, ttid), value)

    return ConversionPair(
        name="phone",
        to_universal=to_name,
        from_universal=from_name,
        order_preserving=False,
        inline_to=inline_to,
        inline_from=inline_from,
    )
