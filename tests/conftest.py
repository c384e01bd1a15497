"""Shared fixtures: the paper's running example, a tiny MT-H instance and
the engine's two kernel legs."""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

import pytest

from repro.core import MTBase, make_currency_pair, make_phone_pair
from repro.engine.storage import TableData
from repro.mth import generate, load_mth, load_tpch_baseline

# ---------------------------------------------------------------------------
# The engine's kernel legs.  A kernel over NOT NULL columns runs typed when
# its batch carries typed payloads and falls back to its generic twin per
# batch when it does not — join intermediates never do.  The generic leg
# makes every table version refuse its payloads, so the same databases and
# plans run the generic kernels only.
# ---------------------------------------------------------------------------

#: the kernel legs, named as the tests parametrized over them print them
KERNEL_LEGS = ("typed", "generic")


def kernel_leg(leg: str):
    """A context manager running the enclosed statements on the ``"typed"``
    (default) or the ``"generic"`` kernels."""
    if leg == "typed":
        return nullcontext()
    return mock.patch.object(TableData, "typed_column", lambda data, index: None)


@pytest.fixture(params=KERNEL_LEGS)
def leg(request):
    """Runs the test once per kernel leg; the value is the leg's name."""
    with kernel_leg(request.param):
        yield request.param


# ---------------------------------------------------------------------------
# The running example of the paper (Figure 2): Employees / Roles / Regions,
# two tenants, salaries in USD (tenant 0) and EUR (tenant 1).
# ---------------------------------------------------------------------------

EUR_TO_USD = 1.1
USD_TO_EUR = 1.0 / EUR_TO_USD

EMPLOYEES = [
    # (ttid, emp_id, name, role_id, reg_id, salary, age)
    (0, 0, "Patrick", 1, 3, 50_000, 30),
    (0, 1, "John", 0, 3, 70_000, 28),
    (0, 2, "Alice", 2, 3, 150_000, 46),
    (1, 0, "Allan", 1, 2, 80_000, 25),
    (1, 1, "Nancy", 2, 4, 200_000, 72),
    (1, 2, "Ed", 0, 4, 1_000_000, 46),
]

ROLES = [
    (0, 0, "phD stud."), (0, 1, "postdoc"), (0, 2, "professor"),
    (1, 0, "intern"), (1, 1, "researcher"), (1, 2, "executive"),
]

REGIONS = [
    (0, "AFRICA"), (1, "ASIA"), (2, "AUSTRALIA"),
    (3, "EUROPE"), (4, "N-AMERICA"), (5, "S-AMERICA"),
]


def build_paper_example(
    profile: str = "postgres", with_phone: bool = False, backend=None
) -> MTBase:
    """Build the paper's running example on a fresh middleware instance.

    ``backend`` selects the execution backend ("engine", "sqlite", or a
    Backend/BackendConnection); the default is a fresh in-memory engine.
    """
    mt = MTBase(profile=profile, backend=backend)
    db = mt.backend

    db.execute(
        "CREATE TABLE Tenant (T_tenant_key INTEGER NOT NULL, T_currency_key INTEGER NOT NULL,"
        " T_phone_prefix_key INTEGER NOT NULL, CONSTRAINT pk_tenant PRIMARY KEY (T_tenant_key))"
    )
    db.execute(
        "CREATE TABLE CurrencyTransform (CT_currency_key INTEGER NOT NULL,"
        " CT_to_universal DECIMAL(15,6) NOT NULL, CT_from_universal DECIMAL(15,6) NOT NULL,"
        " CONSTRAINT pk_ct PRIMARY KEY (CT_currency_key))"
    )
    db.execute(
        "CREATE TABLE PhoneTransform (PT_phone_prefix_key INTEGER NOT NULL,"
        " PT_prefix VARCHAR(5) NOT NULL, CONSTRAINT pk_pt PRIMARY KEY (PT_phone_prefix_key))"
    )
    db.execute(f"INSERT INTO CurrencyTransform VALUES (0, 1.0, 1.0), (1, {EUR_TO_USD}, {USD_TO_EUR})")
    db.execute("INSERT INTO PhoneTransform VALUES (0, ''), (1, '+')")
    db.execute("INSERT INTO Tenant VALUES (0, 0, 0), (1, 1, 1)")
    db.execute(
        "CREATE FUNCTION currencyToUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2) AS "
        "'SELECT CT_to_universal * $1 FROM Tenant, CurrencyTransform "
        "WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key' LANGUAGE SQL IMMUTABLE"
    )
    db.execute(
        "CREATE FUNCTION currencyFromUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2) AS "
        "'SELECT CT_from_universal * $1 FROM Tenant, CurrencyTransform "
        "WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key' LANGUAGE SQL IMMUTABLE"
    )
    db.execute(
        "CREATE FUNCTION phoneToUniversal (VARCHAR(17), INTEGER) RETURNS VARCHAR(17) AS "
        "'SELECT SUBSTRING($1 FROM CHAR_LENGTH(PT_prefix) + 1) FROM Tenant, PhoneTransform "
        "WHERE T_tenant_key = $2 AND T_phone_prefix_key = PT_phone_prefix_key' LANGUAGE SQL IMMUTABLE"
    )
    db.execute(
        "CREATE FUNCTION phoneFromUniversal (VARCHAR(17), INTEGER) RETURNS VARCHAR(17) AS "
        "'SELECT CONCAT(PT_prefix, $1) FROM Tenant, PhoneTransform "
        "WHERE T_tenant_key = $2 AND T_phone_prefix_key = PT_phone_prefix_key' LANGUAGE SQL IMMUTABLE"
    )
    rates_to = {0: 1.0, 1: EUR_TO_USD}
    rates_from = {0: 1.0, 1: USD_TO_EUR}
    prefixes = {0: "", 1: "+"}
    db.register_python_function("mt_currency_rate_to_universal", rates_to.__getitem__, immutable=True)
    db.register_python_function("mt_currency_rate_from_universal", rates_from.__getitem__, immutable=True)
    db.register_python_function("mt_phone_prefix", prefixes.__getitem__, immutable=True)
    mt.register_conversion_pair(make_currency_pair())
    mt.register_conversion_pair(make_phone_pair())

    phone_column = (
        "E_phone VARCHAR(17) NOT NULL CONVERTIBLE @phoneToUniversal @phoneFromUniversal," if with_phone else ""
    )
    mt.create_table(
        """CREATE TABLE Roles SPECIFIC (
            R_role_id INTEGER NOT NULL SPECIFIC,
            R_name VARCHAR(25) NOT NULL COMPARABLE
        )""",
        ttid_column="R_ttid",
    )
    mt.create_table(
        f"""CREATE TABLE Employees SPECIFIC (
            E_emp_id INTEGER NOT NULL SPECIFIC,
            E_name VARCHAR(25) NOT NULL COMPARABLE,
            E_role_id INTEGER NOT NULL SPECIFIC,
            E_reg_id INTEGER NOT NULL COMPARABLE,
            {phone_column}
            E_salary DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
            E_age INTEGER NOT NULL COMPARABLE,
            CONSTRAINT pk_emp PRIMARY KEY (E_emp_id),
            CONSTRAINT fk_emp FOREIGN KEY (E_role_id) REFERENCES Roles (R_role_id)
        )""",
        ttid_column="E_ttid",
    )
    mt.create_table(
        """CREATE TABLE Regions GLOBAL (
            Re_reg_id INTEGER NOT NULL,
            Re_name VARCHAR(25) NOT NULL
        )"""
    )

    if with_phone:
        rows = []
        for ttid, emp_id, name, role_id, reg_id, salary, age in EMPLOYEES:
            prefix = prefixes[ttid]
            rows.append(
                f"({ttid}, {emp_id}, '{name}', {role_id}, {reg_id},"
                f" '{prefix}41{emp_id}555000{ttid}', {salary}, {age})"
            )
        db.execute("INSERT INTO Employees VALUES " + ", ".join(rows))
    else:
        db.execute(
            "INSERT INTO Employees VALUES "
            + ", ".join(
                f"({ttid}, {emp_id}, '{name}', {role_id}, {reg_id}, {salary}, {age})"
                for ttid, emp_id, name, role_id, reg_id, salary, age in EMPLOYEES
            )
        )
    db.execute(
        "INSERT INTO Roles VALUES "
        + ", ".join(f"({ttid}, {role_id}, '{name}')" for ttid, role_id, name in ROLES)
    )
    db.execute(
        "INSERT INTO Regions VALUES "
        + ", ".join(f"({key}, '{name}')" for key, name in REGIONS)
    )

    mt.register_tenant(0, "usd-tenant")
    mt.register_tenant(1, "eur-tenant")
    mt.allow_cross_tenant_access(privileges=("READ", "INSERT", "UPDATE", "DELETE"))
    return mt


@pytest.fixture
def paper_mt() -> MTBase:
    """A fresh running-example middleware for tests that mutate data."""
    return build_paper_example()


@pytest.fixture(scope="session")
def paper_example_factory():
    """The builder itself, for tests that pick profile/backend per case.

    Session-scoped on purpose: the fixture yields the (stateless) builder
    function, so wider-scoped fixtures may depend on it.
    """
    return build_paper_example


@pytest.fixture(scope="session")
def paper_mt_session() -> MTBase:
    """A shared (read-only) running-example middleware."""
    return build_paper_example()


@pytest.fixture(scope="session")
def paper_mt_phone() -> MTBase:
    """Running example extended with a convertible phone attribute."""
    return build_paper_example(with_phone=True)


# ---------------------------------------------------------------------------
# A tiny MT-H instance shared by the integration tests
# ---------------------------------------------------------------------------

TINY_SF = 0.001
TINY_TENANTS = 4


@pytest.fixture(scope="session")
def tiny_tpch_data():
    return generate(scale_factor=TINY_SF, seed=7)


@pytest.fixture(scope="session")
def tiny_mth(tiny_tpch_data):
    return load_mth(data=tiny_tpch_data, tenants=TINY_TENANTS, distribution="uniform")


@pytest.fixture(scope="session")
def tiny_baseline(tiny_tpch_data):
    return load_tpch_baseline(data=tiny_tpch_data)
