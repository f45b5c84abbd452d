//! The static injection-site roster.
//!
//! A fault plan names the *site* where each fault fires. Two families of
//! site names exist:
//!
//! * **Static sites** — fixed probe points compiled into the stack,
//!   listed in [`ROSTER`] below. The `fault-sites` rule of
//!   `accelwall lint` cross-checks this roster against the actual
//!   `probe("...")` call sites in the workspace (both directions), the
//!   same way `registry-sync` keeps `Registry::paper()` honest.
//! * **Dynamic sites** — one per experiment target: the artifact cache
//!   probes with the experiment's own id (`fig3b`, `table5`, ...) before
//!   every compute attempt, so a plan like `fig3b:err:2` targets exactly
//!   one artifact. Dynamic names are validated at arm time against the
//!   live registry roster, not by the lint.

/// One fixed probe point in the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// The name a fault-plan entry uses to target this probe.
    pub name: &'static str,
    /// Where the probe lives, for humans chasing a firing site.
    pub location: &'static str,
    /// What a fault fired here simulates.
    pub effect: &'static str,
}

/// `accelwall serve` probes this once per parsed request, at the top of
/// the pool's compute handler: a `panic` here dies *on the pool worker
/// thread* (exercising worker respawn — the connection thread waiting
/// on that request closes the client's connection), an `err` answers
/// the request with a 500, and a `hang` occupies the worker for the
/// configured duration.
pub const SERVE_REQUEST: &str = "serve-request";

/// The server's accept loop probes this once per accepted connection,
/// before registering it: an `err` here sheds the connection with an
/// immediate `503` + close (the same shape as the concurrent-connection
/// cap firing), and a `panic` is contained by the accept loop — the
/// connection is dropped, the loop keeps accepting.
pub const SERVE_CONN: &str = "serve-conn";

/// The query engine probes this at admission, before reserving cost
/// units: an `err` here sheds the query (503 on the wire) exactly as a
/// saturated budget would, without touching the LRU.
pub const QUERY_CACHE_ADMIT: &str = "query-cache-admit";

/// The query engine probes this after admission, before executing a
/// cache miss: an `err` here fails the compute as a retryable fault.
/// Nothing is inserted on failure, so the LRU is never poisoned.
pub const QUERY_COMPUTE: &str = "query-compute";

/// The work coordinator probes this at the top of every lease grant:
/// an `err` here answers the lease request with a 500, which the worker
/// must absorb with backoff-and-retry instead of dying.
pub const WORK_LEASE: &str = "work-lease";

/// A worker probes this before computing each leased unit: an `err` or
/// `panic` here simulates a unit dying mid-compute — the worker reports
/// the failure and the coordinator must re-issue the unit.
pub const WORK_COMPUTE: &str = "work-compute";

/// The work coordinator probes this when a completion arrives: an `err`
/// here drops the completion on the floor (500 on the wire), which the
/// worker's idempotent re-send must survive.
pub const WORK_COMPLETE: &str = "work-complete";

/// A worker probes this before each heartbeat send: a `hang` here
/// silences the worker past its lease deadline, so the coordinator must
/// expire the lease and re-issue its units to someone else.
pub const WORK_HEARTBEAT: &str = "work-heartbeat";

/// Every static site, in probe order. Dynamic (per-experiment) sites are
/// documented above and validated against the registry at arm time.
pub const ROSTER: &[Site] = &[
    Site {
        name: SERVE_REQUEST,
        location: "crates/server/src/lib.rs::compute_response",
        effect: "a request handler failing on the worker thread itself",
    },
    Site {
        name: SERVE_CONN,
        location: "crates/server/src/front.rs::Front::admit",
        effect: "connection-level chaos at accept (shed or dropped, accept loop survives)",
    },
    Site {
        name: QUERY_CACHE_ADMIT,
        location: "crates/query/src/engine.rs::QueryEngine::admit",
        effect: "admission control shedding a query under load",
    },
    Site {
        name: QUERY_COMPUTE,
        location: "crates/query/src/engine.rs::QueryEngine::answer",
        effect: "a transient failure while computing a query miss",
    },
    Site {
        name: WORK_LEASE,
        location: "crates/work/src/coordinator.rs::Coordinator::lease",
        effect: "the coordinator failing to grant a lease (worker must retry)",
    },
    Site {
        name: WORK_COMPUTE,
        location: "crates/work/src/worker.rs::compute_unit",
        effect: "a worker dying or erroring mid-unit (coordinator re-issues)",
    },
    Site {
        name: WORK_COMPLETE,
        location: "crates/work/src/coordinator.rs::Coordinator::complete",
        effect: "a completion lost on the wire (idempotent re-send recovers)",
    },
    Site {
        name: WORK_HEARTBEAT,
        location: "crates/work/src/worker.rs::WorkerRunner::heartbeat",
        effect: "a silenced worker missing its lease deadline (lease expiry)",
    },
];

/// Whether `name` is one of the static sites in [`ROSTER`].
pub fn is_static(name: &str) -> bool {
    ROSTER.iter().any(|s| s.name == name)
}

/// The static site names, in roster order.
pub fn names() -> impl Iterator<Item = &'static str> {
    ROSTER.iter().map(|s| s.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_names_are_unique_kebab_and_described() {
        let all: Vec<&str> = names().collect();
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "duplicate site names");
        for site in ROSTER {
            assert!(
                site.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} is not kebab-case",
                site.name
            );
            assert!(!site.location.is_empty());
            assert!(!site.effect.is_empty());
        }
        assert!(is_static(SERVE_REQUEST));
        assert!(!is_static("fig3b"));
    }
}
