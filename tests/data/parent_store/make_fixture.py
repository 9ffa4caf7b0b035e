"""Write a small durable store with the code in sys.argv[1]/src, abandon it
un-checkpointed, and record what its scans answer."""
import json, os, random, shutil, sys
root, out = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.join(root, "src"))
from repro.engine.database import RodentStore
from repro.query.expressions import Range
from repro.types import Schema

SCHEMA = Schema.of("id:int", "val:int", "w:float")
rng = random.Random(19)
def rows(lo, hi): return [(i, rng.randrange(1000), i * 0.5) for i in range(lo, hi)]

shutil.rmtree(out, ignore_errors=True); os.makedirs(out)
path = os.path.join(out, "db.pages")
store = RodentStore(path, durable=True, page_size=512, pool_capacity=16, level_seal_rows=16)
store.create_table("Flat", SCHEMA, layout="columns(Flat)")
store.create_table("Part", SCHEMA, layout="partition[id; range, 64](Part)")
store.create_table("Lev", SCHEMA, layout="levels[2; 2](rows(Lev))")
store.load("Flat", rows(0, 80)); store.load("Part", rows(0, 120))
store.checkpoint()                      # everything below is WAL-only
flat, part, lev = (store.table(n) for n in ("Flat", "Part", "Lev"))
flat.insert(rows(80, 100)); flat.flush_inserts()       # overflow run
flat.insert(rows(100, 105))                             # pending
part.insert(rows(120, 150)); part.flush_inserts()
part.update({"val": 0}, Range("id", 10, 20)); part.delete(Range("id", 60, 70))
part.insert(rows(150, 155))
for lo in range(0, 100, 10): lev.insert(rows(lo, lo + 10))   # seals + merges
flat.compact(); flat.insert(rows(105, 108))
expected = {n: sorted(map(list, store.table(n).scan())) for n in ("Flat", "Part", "Lev")}
assert store.wal.size_bytes > 0
store.wal.sync(); store.pool.flush_all(); store.disk.fsync()
store.wal.close(); store.disk.close()                   # no checkpoint: crash
json.dump(expected, open(os.path.join(out, "expected.json"), "w"))
print({n: len(v) for n, v in expected.items()}, {f: os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)})
