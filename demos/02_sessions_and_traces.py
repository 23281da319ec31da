# Sessionize one user's day and build the BREAK-joined action trace.
#
# Requests map to action labels via the shipped rules; a 30 minute
# pause starts a new session, and sessions are joined with a BREAK
# token so the chain can see where browsing stopped and resumed.

import numpy as np

from trailmine import build_traces
from trailmine.actions import default_ruleset
from trailmine.pipeline import EventBatch

ruleset = default_ruleset()
vocab = ruleset.vocabulary

# a morning visit, a 45 minute coffee break, then a short return visit
requests = [
    (0, "GET", "/"),
    (40, "GET", "/search"),
    (95, "GET", "/ontologies/CPT/classes/C1003"),
    (150, "GET", "/ontologies/CPT/classes/C2210"),
    (45 * 60 + 150, "GET", "/ontologies/CPT"),          # new session
    (45 * 60 + 170, "GET", "/ontologies/CPT/tree"),
]
hits = [ruleset.match(method, path) for _, method, path in requests]
ontologies = sorted({onto for _, onto in hits if onto is not None})

# the columnar batch that ingest produces: one user, codes into string pools
batch = EventBatch(
    user_pool=["203.0.113.9"],
    user_codes=np.zeros(len(requests), dtype=np.int64),
    timestamps=np.array([ts for ts, _, _ in requests], dtype=np.int64),
    labels=np.array([label for label, _ in hits], dtype=np.int64),
    onto_pool=ontologies,
    onto_codes=np.array([-1 if o is None else ontologies.index(o) for _, o in hits], dtype=np.int64),
)

# build_traces returns every user's trace as rows of flat arrays; rows()
# gives each one as its traces.jsonl record
traces, stats = build_traces(batch, vocab.break_id, gap_minutes=30)
(row,) = traces.rows()
print(f"{len(batch)} requests -> {len(row['session_lengths'])} sessions "
      f"(lengths {row['session_lengths']})")

print("\ntrace:", " -> ".join(vocab[i].name for i in row["sequence"]))
print("ontology attribution:", row["ontologies"])
print("traces.jsonl row:", row)

print(f"\nusage: {stats.session_count} sessions, "
      f"mean duration {stats.mean_session_duration:.0f}s, "
      f"requests per session {stats.requests_per_session}, "
      f"inter-request gaps {stats.inter_request_seconds}")
