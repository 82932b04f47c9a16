//! The distributed serve fleet: several daemons behaving as one
//! logical cache.
//!
//! Three mechanisms compose (see `DESIGN.md` §14):
//!
//! * **Routing** ([`ring`]): a deterministic consistent-hash ring over
//!   the static `--peers` list maps every content address to an owner
//!   and an R-replica set, so any node knows — with no coordination —
//!   which node should hold a given result. A node outside a key's
//!   replica set proxies the request to the owner.
//! * **Anti-entropy** ([`sync`]): a background loop exchanges
//!   per-shard cache digests with each peer and ships only diverging
//!   shards as self-checking op-batches, so caches converge even
//!   through peer death, restart, and fault-injected transports.
//! * **HTTP front-end** ([`http`]): a hand-rolled HTTP/1.1 layer over
//!   the same request/response objects as the NDJSON protocol.
//!
//! Peer health lives in [`membership`] and only ever gates *effort*
//! (proxy vs. compute locally), never *placement* — so no failure
//! observation can make two nodes disagree about ownership, and any
//! reachable node always produces the same bytes for the same request.

pub mod http;
pub mod membership;
pub mod ring;
pub mod sync;

use std::time::Duration;

pub use membership::{Membership, PeerHealth, DEATH_THRESHOLD};
pub use ring::{HashRing, DEFAULT_REPLICAS};
pub use sync::{ShardDigest, SyncOutcome, SYNC_SHARDS};

use crate::cache::CacheKey;

/// Static fleet configuration, one per daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// This node's advertised address — must appear in `peers` exactly
    /// as the other nodes list it, or the ring routes around us.
    pub self_addr: String,
    /// Every fleet member's advertised address, including self. Order
    /// does not matter (the ring sorts).
    pub peers: Vec<String>,
    /// Replica-set size (owner + backups), clamped to the fleet size.
    pub replicas: usize,
    /// Anti-entropy period; `None` disables the background loop (tests
    /// drive sync rounds explicitly).
    pub sync_interval: Option<Duration>,
}

impl FleetConfig {
    /// A fleet config with the default replica count and a 2-second
    /// sync period.
    #[must_use]
    pub fn new(self_addr: impl Into<String>, peers: Vec<String>) -> FleetConfig {
        FleetConfig {
            self_addr: self_addr.into(),
            peers,
            replicas: DEFAULT_REPLICAS,
            sync_interval: Some(Duration::from_secs(2)),
        }
    }

    /// Refuses a node whose own address is missing from `peers`. Every
    /// node must build the same ring; a node that silently added itself
    /// would route by a ring no other node has, and proxied lines could
    /// bounce between nodes that each believe the other owns the key.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`], naming the address and the
    /// `--advertise` fix.
    pub fn check_self_listed(&self) -> std::io::Result<()> {
        if self.peers.contains(&self.self_addr) {
            return Ok(());
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "this node's address `{}` is not in --peers ({}); pass an --advertise \
                 address matching this node's entry in --peers",
                self.self_addr,
                self.peers.join(",")
            ),
        ))
    }
}

/// Runtime fleet state held by the server: the (immutable) ring plus
/// the (mutable, local) peer-health table.
pub struct Fleet {
    /// The configuration the fleet was built from.
    pub config: FleetConfig,
    /// Consistent-hash placement.
    pub ring: HashRing,
    /// Local health opinion of every peer except self.
    pub membership: Membership,
}

impl Fleet {
    /// Builds the runtime state: the ring over `peers` (which must list
    /// `self_addr`, see [`FleetConfig::check_self_listed`]) and
    /// membership for everyone else.
    #[must_use]
    pub fn new(config: FleetConfig) -> Fleet {
        let ring = HashRing::new(&config.peers, config.replicas);
        let others: Vec<String> = ring
            .peers()
            .iter()
            .filter(|p| **p != config.self_addr)
            .cloned()
            .collect();
        Fleet {
            ring,
            membership: Membership::new(others),
            config,
        }
    }

    /// The owner of a content address.
    #[must_use]
    pub fn owner(&self, key: &CacheKey) -> &str {
        self.ring.owner(key)
    }

    /// Whether this node is in the key's replica set (owner or backup).
    #[must_use]
    pub fn is_local(&self, key: &CacheKey) -> bool {
        self.ring.is_replica(key, &self.config.self_addr)
    }

    /// The key's replica peers other than this node, owner first.
    #[must_use]
    pub fn replica_peers(&self, key: &CacheKey) -> Vec<&str> {
        self.ring
            .replica_set(key)
            .into_iter()
            .filter(|p| *p != self.config.self_addr)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcms_ir::SpecHash;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            spec: SpecHash::of_text(&format!("d{n}")),
            config: n,
        }
    }

    fn three_node(self_idx: usize) -> Fleet {
        let peers: Vec<String> = (0..3).map(|i| format!("n{i}:1")).collect();
        Fleet::new(FleetConfig::new(format!("n{self_idx}:1"), peers))
    }

    #[test]
    fn all_nodes_agree_on_ownership() {
        let fleets: Vec<Fleet> = (0..3).map(three_node).collect();
        for n in 0..100 {
            let k = key(n);
            let owner = fleets[0].owner(&k).to_owned();
            for f in &fleets {
                assert_eq!(f.owner(&k), owner);
            }
            // Exactly `replicas` nodes consider the key local.
            let locals = fleets.iter().filter(|f| f.is_local(&k)).count();
            assert_eq!(locals, DEFAULT_REPLICAS);
            // replica_peers excludes self and has the right size.
            for f in &fleets {
                let others = f.replica_peers(&k);
                assert!(!others.contains(&f.config.self_addr.as_str()));
                let expect = if f.is_local(&k) {
                    DEFAULT_REPLICAS - 1
                } else {
                    DEFAULT_REPLICAS
                };
                assert_eq!(others.len(), expect);
            }
        }
    }

    #[test]
    fn a_node_missing_from_its_peer_list_is_refused() {
        let peers = vec!["a:1".to_owned(), "b:2".to_owned()];
        let err = FleetConfig::new("me:9", peers.clone())
            .check_self_listed()
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("--advertise"), "{err}");
        // Listed, the node builds the shared ring and tracks only the
        // others.
        let listed = FleetConfig::new("a:1", peers.clone());
        listed.check_self_listed().unwrap();
        let fleet = Fleet::new(listed);
        assert_eq!(fleet.ring.peers(), peers.as_slice());
        assert_eq!(fleet.membership.addrs().count(), 1, "self not tracked");
    }
}
