//! The fleet's shape: a star of `n` hosts around one aggregator, every
//! host link carrying the same credit budget.
//!
//! Host `i` has wire id `i` and name `host{i}`. The topology is the
//! aggregator's admission control: a Hello from an id outside `0..n` is
//! refused, since that host has no link and no budget.

/// A star some host can report into: at least one host, at least one
/// credit per link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTopology {
    hosts: u32,
    credits_per_host: u32,
}

impl FleetTopology {
    /// `n` hosts (`host0..`, ids `0..`), each linked to the aggregator
    /// with `credits_per_host` credits. Refused when no host could ever
    /// report: no hosts, more than fit a wire id, or no credits.
    pub fn star(n: usize, credits_per_host: u32) -> Result<FleetTopology, String> {
        let hosts = u32::try_from(n)
            .ok()
            .filter(|&h| h > 0)
            .ok_or_else(|| format!("a star needs 1..=u32::MAX hosts, not {n}"))?;
        if credits_per_host == 0 {
            return Err("a star's host links need at least one credit".to_string());
        }
        Ok(FleetTopology {
            hosts,
            credits_per_host,
        })
    }

    /// Hosts declared; their wire ids are `0..hosts()`.
    pub fn hosts(&self) -> u32 {
        self.hosts
    }

    /// The link budget of host `id`, or `None` for a host the topology
    /// does not declare.
    pub fn credits(&self, id: u32) -> Option<u32> {
        (id < self.hosts).then_some(self.credits_per_host)
    }

    /// The name host `id` goes by in snapshots and `/metrics` labels.
    pub fn host_name(id: u32) -> String {
        format!("host{id}")
    }
}
