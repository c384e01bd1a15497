"""Two ``server://`` clients write the shared tables at the same time.

Tenants 2 and 3 each replay INSERT / UPDATE / own-Q6 / DELETE against the one
physical ``orders`` / ``lineitem`` of a tiny MT-H instance on the engine
backend: a tenant's typed-kernel scan runs while the other tenant's DELETE
publishes a new table version.  (On mutable heaps this failed about one run
in seven with ``IndexError: array index out of range``.)
"""

from __future__ import annotations

import datetime
import threading

import repro.api as api
from repro.mth import load_mth
from repro.server import serve

Q6 = (
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_discount BETWEEN ? AND ? AND l_quantity < ?"
)
Q6_PARAMETERS = (0.05, 0.07, 24)
ROUNDS = 12


def _replay(spec: str, tenant: int, failures: list) -> None:
    day = datetime.date(1995, 6, 17)
    try:
        with api.connect(spec, client=tenant, optimization="o4") as connection:
            cursor = connection.cursor()
            revenue = cursor.execute(Q6, Q6_PARAMETERS).fetchall()
            orders = cursor.execute("SELECT COUNT(*) FROM orders").fetchall()
            customer = cursor.execute("SELECT MIN(c_custkey) FROM customer").fetchall()[0][0]
            for round_ in range(ROUNDS):
                key = 10_000_000 + tenant * 1000 + round_
                script = (
                    ("INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                     (key, customer, "O", 1234.5, day, "1-URGENT", "Clerk#000000001", 0, "t")),
                    # quantity 50 never qualifies for Q6: its answer is constant
                    ("INSERT INTO lineitem VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                     (key, 1, 1, 1, 50.0, 1234.5, 0.05, 0.02, "N", "O", day, day, day,
                      "NONE", "MAIL", "t")),
                    ("UPDATE orders SET o_totalprice = ? WHERE o_orderkey = ?", (99.5, key)),
                    ("DELETE FROM lineitem WHERE l_orderkey = ?", (key,)),
                    ("DELETE FROM orders WHERE o_orderkey = ?", (key,)),
                )
                for position, (sql, parameters) in enumerate(script):
                    if cursor.execute(sql, parameters).rowcount != 1:
                        failures.append((tenant, round_, sql, cursor.rowcount))
                    if position == 2 and cursor.execute(Q6, Q6_PARAMETERS).fetchall() != revenue:
                        failures.append((tenant, round_, "own Q6 changed"))
            if cursor.execute("SELECT COUNT(*) FROM orders").fetchall() != orders:
                failures.append((tenant, "orders left behind"))
    except Exception as exc:  # noqa: BLE001 - any failure of a client is the finding
        failures.append((tenant, f"{type(exc).__name__}: {exc}"))


def test_two_concurrent_writer_clients_never_fail():
    instance = load_mth(scale_factor=0.001, tenants=4, backend="engine")
    failures: list = []
    with serve(instance.middleware) as server:
        host, port = server.address
        clients = [
            threading.Thread(
                target=_replay, args=(f"server://{host}:{port}", tenant, failures), daemon=True
            )
            for tenant in (2, 3)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=120)
        assert not any(client.is_alive() for client in clients)
    assert failures == []
