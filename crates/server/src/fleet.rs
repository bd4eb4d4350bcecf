//! Horizontal sharding of the result cache across daemon peers.
//!
//! A fleet is a static list of daemon addresses, each running with the
//! same `--peers` list. Every job key — the same canonical
//! (trace digest × config) string the result cache uses — maps to exactly
//! one *owner* via a consistent-hash ring (`VNODES` virtual nodes per
//! peer, FNV-1a hashed). A daemon that receives a submission it does not
//! own re-POSTs the body to the owner with the `x-smrseek-forwarded`
//! marker and relays the owner's response verbatim (plus an
//! `x-smrseek-peer` header naming who computed it); the marker stops a
//! misconfigured fleet from bouncing a request forever. Because routing
//! is a pure function of the key, N daemons compute each unique sweep
//! exactly once between them, and results stay byte-identical to offline
//! runs — the fleet only moves *where* a job runs, never *how*.

use std::net::SocketAddr;
use std::time::Duration;

/// Header a forwarding daemon stamps on the re-POST so the owner always
/// handles it locally (loop prevention).
pub const FORWARDED_HEADER: &str = "x-smrseek-forwarded";

/// Header added to a relayed response naming the peer that computed it.
pub const PEER_HEADER: &str = "x-smrseek-peer";

/// Virtual nodes per peer on the hash ring. 64 keeps the key split within
/// a few percent of even for small fleets while the ring stays tiny.
const VNODES: usize = 64;

/// How long a forward may spend connecting, and separately reading or
/// writing, before it fails with 502. Forwarded submissions only enqueue
/// work (202/200/503 come back immediately); they never wait for results.
const FORWARD_TIMEOUT: Duration = Duration::from_secs(5);

/// FNV-1a 64-bit over `bytes`, pushed through a 64-bit finalizer
/// (MurmurHash3's avalanche). Plain FNV mixes similar short strings —
/// exactly what `addr#vnode` labels are — into nearby ring positions,
/// which skews ownership badly; the finalizer spreads them uniformly
/// while staying dependency-free.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// The static peer set and this daemon's place in it.
#[derive(Debug)]
pub struct Fleet {
    /// Every peer's advertised address, in `--peers` order.
    peers: Vec<SocketAddr>,
    /// Index of this daemon in `peers`.
    self_index: usize,
    /// `(vnode hash, peer index)` sorted by hash.
    ring: Vec<(u64, usize)>,
}

impl Fleet {
    /// Builds the ring from the shared `--peers` list. `self_addr` is the
    /// address this daemon is reachable at (its bound address) and must
    /// appear in `peers` — every daemon in a fleet runs with the same
    /// list, so a missing self means a misconfigured fleet.
    ///
    /// # Errors
    ///
    /// Unparsable peer addresses and a `peers` list that does not contain
    /// `self_addr` are configuration errors.
    pub fn new(self_addr: SocketAddr, peers: &[String]) -> Result<Fleet, String> {
        if peers.is_empty() {
            return Err("fleet needs at least one peer".to_owned());
        }
        let peers: Vec<SocketAddr> = peers
            .iter()
            .map(|p| {
                p.parse::<SocketAddr>()
                    .map_err(|e| format!("bad peer address {p:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let self_index = peers
            .iter()
            .position(|&p| p == self_addr)
            .ok_or_else(|| format!("own address {self_addr} is not in --peers"))?;
        let mut ring: Vec<(u64, usize)> = peers
            .iter()
            .enumerate()
            .flat_map(|(index, peer)| {
                (0..VNODES).map(move |vnode| (fnv1a(format!("{peer}#{vnode}").as_bytes()), index))
            })
            .collect();
        ring.sort_unstable();
        Ok(Fleet {
            peers,
            self_index,
            ring,
        })
    }

    /// The peer index owning `key`: the first vnode at or after the key's
    /// hash, wrapping around the ring.
    pub fn owner(&self, key: &str) -> usize {
        let hash = fnv1a(key.as_bytes());
        let at = self.ring.partition_point(|&(h, _)| h < hash);
        self.ring[if at == self.ring.len() { 0 } else { at }].1
    }

    /// Whether `index` is this daemon.
    pub fn is_self(&self, index: usize) -> bool {
        index == self.self_index
    }

    /// Whether this daemon owns `key`.
    pub fn owns(&self, key: &str) -> bool {
        self.is_self(self.owner(key))
    }

    /// The address of peer `index`.
    pub fn peer(&self, index: usize) -> SocketAddr {
        self.peers[index]
    }

    /// Every peer address except this daemon's, as metric labels.
    pub fn remote_labels(&self) -> Vec<String> {
        self.peers
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.self_index)
            .map(|(_, p)| p.to_string())
            .collect()
    }

    /// Number of peers in the fleet.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Virtual nodes this daemon owns on the ring (its share of the key
    /// space is proportional; `/healthz` reports it).
    pub fn self_vnodes(&self) -> usize {
        self.ring
            .iter()
            .filter(|&&(_, index)| index == self.self_index)
            .count()
    }

    /// A fleet is never empty ([`Fleet::new`] refuses an empty list).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Re-POSTs a submission body to `peer` and returns the relayed
/// `(status, body)`, through the one blocking client
/// ([`smrseek_net::fetch`]) with `FORWARD_TIMEOUT` on connect, read and
/// write; the caller is the submitting connection's own thread.
///
/// `trace` is the [`smrseek_obs::dtrace::TRACE_HEADER`] value for the hop
/// (the origin's trace id plus its `forward` span id), when the request
/// is traced; the owner's `dispatch` span parents to it, stitching both
/// daemons into one trace. The origin's `x-request-id` rides along
/// unconditionally so both hops log the same id.
///
/// # Errors
///
/// Connect/IO failures and malformed relayed responses return a message
/// naming the peer, which the caller wraps in a 502.
pub fn forward(
    peer: SocketAddr,
    body: &[u8],
    request_id: &str,
    trace: Option<&str>,
) -> Result<(u16, Vec<u8>), String> {
    let mut headers = vec![
        ("content-type", "application/json"),
        (FORWARDED_HEADER, "1"),
        ("x-request-id", request_id),
    ];
    if let Some(value) = trace {
        headers.push((smrseek_obs::dtrace::TRACE_HEADER, value));
    }
    smrseek_net::fetch(
        &peer.to_string(),
        "POST",
        "/v1/jobs",
        &headers,
        body,
        FORWARD_TIMEOUT,
    )
    .map_err(|e| format!("{} peer {}: {}", e.step, e.addr, e.detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(addrs: &[&str], self_addr: &str) -> Fleet {
        let peers: Vec<String> = addrs.iter().map(|&a| a.to_owned()).collect();
        Fleet::new(self_addr.parse().expect("addr parses"), &peers).expect("fleet builds")
    }

    #[test]
    fn every_key_has_exactly_one_owner_fleet_wide() {
        let addrs = ["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"];
        let fleets: Vec<Fleet> = addrs.iter().map(|&a| fleet(&addrs, a)).collect();
        for i in 0..200 {
            let key = format!("profile:hm_1:seed={i}|sweep");
            let owners: Vec<usize> = fleets.iter().map(|f| f.owner(&key)).collect();
            assert!(
                owners.iter().all(|&o| o == owners[0]),
                "peers disagree on {key}: {owners:?}"
            );
            let claimed: Vec<bool> = fleets.iter().map(|f| f.owns(&key)).collect();
            assert_eq!(
                claimed.iter().filter(|&&c| c).count(),
                1,
                "{key} claimed by {claimed:?}"
            );
        }
    }

    #[test]
    fn keys_spread_across_peers() {
        let addrs = ["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"];
        let f = fleet(&addrs, addrs[0]);
        let mut counts = [0usize; 3];
        for i in 0..600 {
            counts[f.owner(&format!("key-{i}"))] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            assert!(
                count > 600 / 3 / 3,
                "peer {i} owns {count}/600 keys — ring badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn single_peer_owns_everything() {
        let f = fleet(&["127.0.0.1:9001"], "127.0.0.1:9001");
        assert_eq!(f.len(), 1);
        assert!(!f.is_empty());
        for i in 0..50 {
            assert!(f.owns(&format!("k{i}")));
        }
    }

    #[test]
    fn misconfigured_fleets_are_refused() {
        let peers = vec!["127.0.0.1:9001".to_owned()];
        let err = Fleet::new("127.0.0.1:9099".parse().expect("parses"), &peers)
            .expect_err("self missing");
        assert!(err.contains("not in --peers"), "{err}");
        assert!(Fleet::new("127.0.0.1:9001".parse().expect("parses"), &[]).is_err());
        let bad = vec!["not-an-addr".to_owned()];
        let err =
            Fleet::new("127.0.0.1:9001".parse().expect("parses"), &bad).expect_err("bad addr");
        assert!(err.contains("bad peer address"), "{err}");
    }

    #[test]
    fn forward_to_dead_peer_reports_error() {
        // Port 1 on localhost refuses connections (nothing listens there).
        let err = forward("127.0.0.1:1".parse().expect("parses"), b"{}", "rq-x", None)
            .expect_err("dead peer");
        assert!(err.contains("peer 127.0.0.1:1"), "{err}");
    }

    #[test]
    fn every_peer_holds_its_vnode_share() {
        let addrs = ["127.0.0.1:9001", "127.0.0.1:9002"];
        for addr in addrs {
            assert_eq!(fleet(&addrs, addr).self_vnodes(), VNODES);
        }
    }
}
