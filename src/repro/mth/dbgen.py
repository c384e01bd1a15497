"""A deterministic TPC-H-style data generator (the paper's modified ``dbgen``).

The generator produces the eight TPC-H tables at a configurable (micro) scale
factor, with value domains close enough to the original specification that
the 22 queries all select non-trivial result sets.  All monetary values and
phone numbers are generated in *universal* format (USD / no prefix); the
MT-H loader converts them into each owner's format when assigning records to
tenants, exactly like the paper's modified dbgen.

Row counts follow the TPC-H proportions::

    supplier = 10 000 x sf      part     = 200 000 x sf   partsupp = 4 x part
    customer = 150 000 x sf     orders   = 10 x customer  lineitem ~ 4 x orders

with small lower bounds so that micro scale factors still exercise every
query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from ..sql.types import Date, date_add_days

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

NATIONS = (
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1), ("EGYPT", 4),
    ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3), ("INDIA", 2), ("INDONESIA", 2),
    ("IRAN", 4), ("IRAQ", 4), ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0),
    ("MOROCCO", 0), ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3), ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
)

TYPE_SYLLABLE_1 = ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
TYPE_SYLLABLE_2 = ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
TYPE_SYLLABLE_3 = ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")

CONTAINER_SYLLABLE_1 = ("SM", "MED", "LG", "JUMBO", "WRAP")
CONTAINER_SYLLABLE_2 = ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")

PART_NAME_WORDS = (
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched",
    "blue", "blush", "brown", "burlywood", "chartreuse", "chocolate", "coral", "cornsilk",
    "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick", "forest",
    "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew", "hot",
    "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon", "light", "lime",
    "linen", "magenta", "maroon", "medium", "midnight", "mint", "misty", "moccasin",
    "navajo", "navy", "olive", "orange", "orchid", "pale", "papaya", "peach", "peru",
    "pink", "plum", "powder", "puff", "purple", "red", "rose", "rosy", "royal", "saddle",
    "salmon", "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
    "steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow",
)

MARKET_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
ORDER_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")
SHIP_INSTRUCTIONS = ("DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN")

COMMENT_WORDS = (
    "carefully", "quickly", "furiously", "slyly", "blithely", "ironic", "final", "regular",
    "express", "bold", "pending", "silent", "daring",
    "unusual", "even", "special", "requests", "deposits", "packages", "accounts",
    "instructions", "theodolites", "platelets", "foxes", "pinto", "beans", "ideas",
    "dependencies", "excuses", "customer", "complaints", "warhorses", "sheaves",
)

_CURRENT_DATE_START = Date(1992, 1, 1)
_ORDER_DATE_SPAN_DAYS = (Date(1998, 8, 2) - _CURRENT_DATE_START).days
#: line items shipped / received up to here are final (TPC-H CURRENTDATE)
_CURRENT_DATE = Date(1995, 6, 17)


@dataclass
class TPCHData:
    """Generated rows for the eight TPC-H tables (universal format)."""

    scale_factor: float
    region: list[tuple] = field(default_factory=list)
    nation: list[tuple] = field(default_factory=list)
    supplier: list[tuple] = field(default_factory=list)
    part: list[tuple] = field(default_factory=list)
    partsupp: list[tuple] = field(default_factory=list)
    customer: list[tuple] = field(default_factory=list)
    orders: list[tuple] = field(default_factory=list)
    lineitem: list[tuple] = field(default_factory=list)

    def table(self, name: str) -> list[tuple]:
        return getattr(self, name)

    def row_counts(self) -> dict[str, int]:
        return {
            name: len(self.table(name))
            for name in (
                "region", "nation", "supplier", "part", "partsupp",
                "customer", "orders", "lineitem",
            )
        }


@dataclass(frozen=True)
class GeneratorSizes:
    """Row counts derived from the scale factor."""

    suppliers: int
    parts: int
    customers: int
    orders_per_customer: int = 10

    @classmethod
    def for_scale(cls, scale_factor: float) -> "GeneratorSizes":
        return cls(
            suppliers=max(20, int(10_000 * scale_factor)),
            parts=max(50, int(200_000 * scale_factor)),
            customers=max(30, int(150_000 * scale_factor)),
        )


def generate(scale_factor: float = 0.001, seed: int = 20180326) -> TPCHData:
    """Generate a deterministic TPC-H data set at the given micro scale factor."""
    rng = random.Random(seed)
    sizes = GeneratorSizes.for_scale(scale_factor)
    data = TPCHData(scale_factor=scale_factor)

    _generate_region(data)
    _generate_nation(data)
    _generate_supplier(data, sizes, rng)
    _generate_part(data, sizes, rng)
    _generate_partsupp(data, sizes, rng)
    _generate_customer(data, sizes, rng)
    _generate_orders_and_lineitems(data, sizes, rng)
    return data


# ---------------------------------------------------------------------------
# per-table generators
# ---------------------------------------------------------------------------


def _comment(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(COMMENT_WORDS) for _ in range(words))


def _phone(nationkey: int, rng: random.Random) -> str:
    return (
        f"{nationkey + 10}-{rng.randint(100, 999)}-{rng.randint(100, 999)}-"
        f"{rng.randint(1000, 9999)}"
    )


def _generate_region(data: TPCHData) -> None:
    data.region = [
        (key, name, f"region {name.lower()}") for key, name in enumerate(REGIONS)
    ]


def _generate_nation(data: TPCHData) -> None:
    data.nation = [
        (key, name, regionkey, f"nation {name.lower()}")
        for key, (name, regionkey) in enumerate(NATIONS)
    ]


def _generate_supplier(data: TPCHData, sizes: GeneratorSizes, rng: random.Random) -> None:
    rows = []
    for suppkey in range(1, sizes.suppliers + 1):
        nationkey = rng.randrange(len(NATIONS))
        comment = _comment(rng, 8)
        if suppkey % 20 == 0:
            comment = "Customer " + comment + " Complaints"
        rows.append(
            (
                suppkey,
                f"Supplier#{suppkey:09d}",
                _comment(rng, 3),
                nationkey,
                _phone(nationkey, rng),
                round(rng.uniform(-999.99, 9999.99), 2),
                comment,
            )
        )
    data.supplier = rows


def _generate_part(data: TPCHData, sizes: GeneratorSizes, rng: random.Random) -> None:
    rows = []
    for partkey in range(1, sizes.parts + 1):
        name = " ".join(rng.sample(PART_NAME_WORDS, 5))
        manufacturer = rng.randint(1, 5)
        brand = f"Brand#{manufacturer}{rng.randint(1, 5)}"
        part_type = (
            f"{rng.choice(TYPE_SYLLABLE_1)} {rng.choice(TYPE_SYLLABLE_2)} "
            f"{rng.choice(TYPE_SYLLABLE_3)}"
        )
        container = f"{rng.choice(CONTAINER_SYLLABLE_1)} {rng.choice(CONTAINER_SYLLABLE_2)}"
        retail_price = round(900 + (partkey % 1000) * 0.1 + 100 * (partkey % 10), 2)
        rows.append(
            (
                partkey,
                name,
                f"Manufacturer#{manufacturer}",
                brand,
                part_type,
                rng.randint(1, 50),
                container,
                retail_price,
                _comment(rng, 3),
            )
        )
    data.part = rows


def _generate_partsupp(data: TPCHData, sizes: GeneratorSizes, rng: random.Random) -> None:
    rows = []
    for partkey in range(1, sizes.parts + 1):
        suppliers = set()
        for _ in range(4):
            suppkey = rng.randint(1, sizes.suppliers)
            if suppkey in suppliers:
                continue
            suppliers.add(suppkey)
            rows.append(
                (
                    partkey,
                    suppkey,
                    rng.randint(1, 9999),
                    round(rng.uniform(1.0, 1000.0), 2),
                    _comment(rng, 10),
                )
            )
    data.partsupp = rows


def _generate_customer(data: TPCHData, sizes: GeneratorSizes, rng: random.Random) -> None:
    rows = []
    for custkey in range(1, sizes.customers + 1):
        nationkey = rng.randrange(len(NATIONS))
        rows.append(
            (
                custkey,
                f"Customer#{custkey:09d}",
                _comment(rng, 3),
                nationkey,
                _phone(nationkey, rng),
                round(rng.uniform(-999.99, 9999.99), 2),
                rng.choice(MARKET_SEGMENTS),
                _comment(rng, 8),
            )
        )
    data.customer = rows


def _generate_orders_and_lineitems(
    data: TPCHData, sizes: GeneratorSizes, rng: random.Random
) -> None:
    orders = []
    lineitems = []
    orderkey = 0
    total_customers = sizes.customers
    for custkey in range(1, total_customers + 1):
        # roughly two thirds of customers have orders (TPC-H leaves a third
        # of the customer key space without orders, which Q13/Q22 rely on)
        if custkey % 3 == 0:
            continue
        for _ in range(max(1, sizes.orders_per_customer // 2 + rng.randint(0, sizes.orders_per_customer // 2))):
            orderkey += 1
            order_date = date_add_days(_CURRENT_DATE_START, rng.randint(0, _ORDER_DATE_SPAN_DAYS - 151))
            line_count = rng.randint(1, 7)
            total_price = 0.0
            order_lineitems = []
            for linenumber in range(1, line_count + 1):
                partkey = rng.randint(1, sizes.parts)
                suppkey = rng.randint(1, sizes.suppliers)
                quantity = rng.randint(1, 50)
                extended_price = round(quantity * (900 + (partkey % 1000) * 0.1), 2)
                discount = round(rng.uniform(0.0, 0.10), 2)
                tax = round(rng.uniform(0.0, 0.08), 2)
                ship_date = date_add_days(order_date, rng.randint(1, 121))
                commit_date = date_add_days(order_date, rng.randint(30, 90))
                receipt_date = date_add_days(ship_date, rng.randint(1, 30))
                if receipt_date <= _CURRENT_DATE:
                    return_flag = rng.choice(("R", "A"))
                else:
                    return_flag = "N"
                line_status = "F" if ship_date <= _CURRENT_DATE else "O"
                total_price += extended_price * (1 + tax) * (1 - discount)
                order_lineitems.append(
                    (
                        orderkey,
                        partkey,
                        suppkey,
                        linenumber,
                        float(quantity),
                        extended_price,
                        discount,
                        tax,
                        return_flag,
                        line_status,
                        ship_date,
                        commit_date,
                        receipt_date,
                        rng.choice(SHIP_INSTRUCTIONS),
                        rng.choice(SHIP_MODES),
                        _comment(rng, 4),
                    )
                )
            order_status = "F" if all(item[9] == "F" for item in order_lineitems) else (
                "O" if all(item[9] == "O" for item in order_lineitems) else "P"
            )
            comment = _comment(rng, 6)
            if orderkey % 25 == 0:
                comment = "special packages requests " + comment
            orders.append(
                (
                    orderkey,
                    custkey,
                    order_status,
                    round(total_price, 2),
                    order_date,
                    rng.choice(ORDER_PRIORITIES),
                    f"Clerk#{rng.randint(1, 1000):09d}",
                    0,
                    comment,
                )
            )
            lineitems.extend(order_lineitems)
    data.orders = orders
    data.lineitem = lineitems
