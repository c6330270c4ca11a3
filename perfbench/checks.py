"""Output checks on a perfbench harness report.

Each check takes the parsed report and returns a list of violation
messages (empty when the outputs are correct). run.py runs every check
and refuses the run when any fires.
"""

PAPER_YARDSTICKS = ("NoCache", "Replica", "Benefit")


def check_rounds_consistent(doc):
    """Every replay round of a run produced the same simulated outputs."""
    digests = {r["digest"] for r in doc["rounds"]}
    if len(digests) != 1:
        return [f"replay rounds disagree: {len(digests)} distinct digests"]
    return []


def check_setups_consistent(doc):
    """Every set-up of a run built the same world."""
    digests = set(doc["setup"]["digests"])
    if len(digests) != 1:
        return [f"set-ups disagree: {len(digests)} distinct worlds"]
    return []


def check_traced_equal(doc):
    """The traced rounds' simulated outputs equal the untraced rounds'."""
    if not doc.get("traced"):
        return []
    plain = doc["rounds"][0]["digest"]
    bad = [r["digest"] for r in doc["traced_rounds"] if r["digest"] != plain]
    if bad or not doc["traced_rounds"]:
        return [f"traced outputs differ from untraced ({plain} vs {bad})"]
    return []


def check_paper(sim):
    """paper_fig7b: sync and zero-latency event VCover agree byte for byte,
    and post-warm-up traffic is ordered SOptimal < VCover < yardsticks."""
    out = []
    policies = sim["policies"]
    sync, event = policies["VCover"], policies["VCover (event)"]
    for key in ("total_traffic_bytes", "postwarmup_traffic_bytes",
                "cache_answers"):
        if sync[key] != event[key]:
            out.append(f"VCover sync {key}={sync[key]} but event "
                       f"{key}={event[key]}")
    traffic = {name: p["postwarmup_traffic_bytes"]
               for name, p in policies.items()}
    best_yardstick = min(traffic[name] for name in PAPER_YARDSTICKS)
    if not traffic["SOptimal"] < traffic["VCover"] < best_yardstick:
        out.append(f"traffic order violated: SOptimal={traffic['SOptimal']} "
                   f"VCover={traffic['VCover']} "
                   f"min(NoCache, Replica, Benefit)={best_yardstick}")
    return out


def check_event(sim):
    """fleet/chaos: every offered query is answered, shed or failed, and
    per-endpoint traffic sums to the combined figure.

    "completed" counts completion callbacks (cache answers plus shipped
    queries; a shed or failed query completes with an empty result) and
    "queries" counts dispatches, so a query sent but never finished shows
    as completed < queries at its endpoint."""
    out = []
    offered = sim["queries_offered"]
    completed = sim["queries_completed"]
    if completed != offered:
        out.append(f"{offered} queries offered but {completed} completed")
    if sim["queries_shed"] + sim["queries_failed"] > completed:
        out.append("more queries shed or failed than completed")
    for i, e in enumerate(sim["endpoints"]):
        if e["completed"] != e["queries"]:
            out.append(f"endpoint {i} dispatched {e['queries']} queries but "
                       f"completed {e['completed']}")
    for key in ("total_traffic_bytes", "postwarmup_traffic_bytes"):
        total = sum(e[key] for e in sim["endpoints"])
        if total != sim["combined"][key]:
            out.append(f"per-endpoint {key} sums to {total}, combined is "
                       f"{sim['combined'][key]}")
    return out


def run_checks(doc):
    """All checks that apply to the report's workload."""
    out = (check_rounds_consistent(doc) + check_setups_consistent(doc) +
           check_traced_equal(doc))
    if doc["workload"] == "paper_fig7b":
        out += check_paper(doc["sim"])
    else:
        out += check_event(doc["sim"])
    return out
