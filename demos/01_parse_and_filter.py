# Parse an access log and separate human interactions from noise.
#
# Generates a small synthetic corpus (so the demo is self-contained),
# parses one combined-format line into a record, then ingests the whole
# file with the shipped user-agent / IP / asset-pattern filters and reads
# the reduction funnel.

import tempfile
from pathlib import Path

from trailmine import parse_log_line
from trailmine.pipeline import ingest_paths
from trailmine.synth import default_archetypes, generate_synthetic_log

with tempfile.TemporaryDirectory() as workdir:
    log = Path(workdir) / "corpus.log"
    lines, truth = generate_synthetic_log(
        default_archetypes(), users_per_archetype=20, seed=7, bot_fraction=0.25, path=log
    )
    print(f"corpus: {len(lines)} lines ({truth.human_lines} human, {truth.bot_lines} bot)")

    # one line, fully parsed
    record = parse_log_line(lines[0])
    print("\nfirst record:")
    print("  ip        =", record.ip)
    print("  time      =", record.timestamp.isoformat())
    print("  method    =", record.method)
    print("  path      =", record.path)
    print("  useragent =", record.useragent[:60])

    # the whole file: malformed lines would be counted, not fatal
    batch, stats = ingest_paths([log])

print("\nfunnel:")
for step, count in stats.funnel().items():
    print(f"  {step:<18} {count}")
assert stats.filtered == truth.human_lines, "filters must remove exactly the bot lines"
# the pool lists every IP ingest saw, bots included: users are the names events use
users = len({batch.user_pool[code] for code in batch.user_codes.tolist()})
assert users == len(truth.users), "every human user must have mapped events"
print(f"\nfilters kept {stats.filtered} of {stats.parsed} requests; "
      f"{stats.events} mapped events from {users} users")
