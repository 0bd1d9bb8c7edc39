//! KV serving workload configuration.

// The KV workload's fixed constants.

/// Replicas per chunk (primary included).
pub(crate) const REPLICATION: usize = 2;
/// Memory lines backing each chunk replica on its cell.
pub(crate) const LINES_PER_CHUNK: u64 = 8;
/// Key population size.
pub(crate) const KEYS: u64 = 1 << 20;
/// Per-client request rate, requests per minute.
const CLIENT_RPM: u64 = 15;
/// Zipfian skew of key popularity (0 = uniform; must be < 1).
pub(crate) const ZIPF_THETA: f64 = 0.99;
/// Fraction of requests that are GETs (the rest are PUTs).
pub(crate) const GET_FRACTION: f64 = 0.9;
/// Coherent line reads issued per GET (index + value).
pub(crate) const READS_PER_GET: u64 = 2;
/// Modeled time to copy one chunk onto a fresh replica during
/// re-replication. Until it elapses the new replica receives writes but
/// does not count as data-holding, so a second fault inside the window can
/// still lose the chunk.
pub(crate) const REPAIR_NS_PER_CHUNK: u64 = 200_000;
/// SLO ceiling on the worst observed latency of successful requests to
/// unaffected chunks. The whole machine suspends for protocol recovery
/// (~0.5 s at Table 5-1 scale), so a request admitted just before a fault
/// legitimately waits out detection + recovery + the incoherent retry
/// backoff + backlog drain — and a multi-fault schedule can stack several
/// such pauses back to back. The ceiling bounds that end-to-end stall, not
/// the fault-free service time (see the measured quantiles in
/// [`crate::KvStats`] for those).
pub(crate) const SLO_CEILING_NS: u64 = 5_000_000_000;

/// Configuration of the replicated KV serving experiment.
///
/// The client population is *modeled*, not simulated per-client: `clients`
/// independent clients each issuing 15 requests per minute collapse into
/// one open-loop arrival process per shard with mean interarrival
/// [`KvConfig::mean_interarrival_ns`]. Arrival times are fixed
/// by the run seed before any service happens, so a slow or suspended shard
/// accumulates backlog and the measured latency (completion minus scheduled
/// arrival) captures queueing delay through faults — the user-visible
/// quantity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KvConfig {
    /// Number of Hive cells (one shard per cell, on the cell's boot node).
    pub n_cells: usize,
    /// Number of key-space chunks (placement granularity).
    pub chunks: u32,
    /// Modeled client population (10^5..10^7 in the experiments).
    pub clients: u64,
    /// Requests served per shard before it drains and halts.
    pub requests_per_shard: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            n_cells: 4,
            chunks: 16,
            clients: 1_000_000,
            requests_per_shard: 400,
        }
    }
}

impl KvConfig {
    /// A smaller request budget for fault-campaign runs (hundreds of runs).
    pub fn campaign() -> Self {
        KvConfig {
            requests_per_shard: 160,
            ..KvConfig::default()
        }
    }

    /// Mean interarrival time of requests at one shard, in nanoseconds:
    /// the aggregate client request rate divided evenly over the shards.
    pub fn mean_interarrival_ns(&self) -> u64 {
        let per_shard_rps = self.clients as f64 * CLIENT_RPM as f64 / 60.0 / self.n_cells as f64;
        ((1e9 / per_shard_rps) as u64).max(1)
    }

    /// Total requests across all shards in one run.
    pub fn total_requests(&self) -> u64 {
        self.requests_per_shard * self.n_cells as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interarrival_matches_population_math() {
        let cfg = KvConfig::default();
        // 10^6 clients x 15 rpm = 250k rps over 4 shards = 62.5k rps each.
        assert_eq!(cfg.mean_interarrival_ns(), 16_000);
        assert_eq!(cfg.total_requests(), 1600);
    }

    #[test]
    fn heavier_population_tightens_arrivals() {
        let cfg = KvConfig {
            clients: 10_000_000,
            ..KvConfig::default()
        };
        assert!(cfg.mean_interarrival_ns() < KvConfig::default().mean_interarrival_ns());
        assert!(cfg.mean_interarrival_ns() >= 1);
    }
}
