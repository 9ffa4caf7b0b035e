"""Attribute-dependent RDF layouts (paper §7).

    "Our system can handle unusual storage schemes — such as
     attribute-dependent layouts for RDF data — while still exposing
     logical tables or array schemas at the application layer."

One logical triple table, three physical designs; per-predicate queries show
why the algebra's ``fold`` expresses RDF vertical partitioning for free. Every
design must give each query the same rows: the script exits non-zero when
one does not.

Run with::

    python examples/rdf_vertical.py
"""

import sys

from repro import RodentStore
from repro.workloads.rdf import (
    TRIPLE_SCHEMA,
    VERTICAL_PARTITION_EXPR,
    generate_triples,
    predicate_queries,
)

DESIGNS = {
    "rows": "Triples",
    "clustered rows": "orderby[predicate, subject](Triples)",
    "vertical partition (fold)": VERTICAL_PARTITION_EXPR,
}


def main() -> int:
    records = generate_triples(50_000)
    queries = predicate_queries(25)

    print("one logical table, three physical designs; "
          f"{len(records):,} triples, {len(queries)} per-predicate queries\n")
    print(f"{'design':<28}{'db pages':>9}{'pages/query':>13}")
    answers = {}
    for name, layout in DESIGNS.items():
        store = RodentStore(page_size=4096, pool_capacity=96)
        store.create_table("Triples", TRIPLE_SCHEMA, layout=layout)
        table = store.load("Triples", records)
        pages = 0
        answers[name] = []
        for q in queries:
            rows, io = store.run_cold(
                lambda q=q: sorted(table.scan(TRIPLE_SCHEMA.names(), q))
            )
            pages += io.page_reads
            answers[name].append(rows)
        print(f"{name:<28}{table.layout.total_pages():>9}"
              f"{pages / len(queries):>13.1f}")
    reference = answers["rows"]
    wrong = [name for name, rows in answers.items() if rows != reference]
    if wrong:
        print(f"\nwrong answers from: {', '.join(wrong)}")
        return 1

    # The folded layout still answers arbitrary queries: scans un-nest.
    store = RodentStore(page_size=4096, pool_capacity=96)
    store.create_table("Triples", TRIPLE_SCHEMA, layout=VERTICAL_PARTITION_EXPR)
    table = store.load("Triples", records)
    sample = list(table.scan())[:3]
    print("\nun-nested scan of the folded layout (first 3 triples):")
    for predicate, subject, obj in sample:
        print(f"  (s={subject}, p={predicate}, o={obj})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
