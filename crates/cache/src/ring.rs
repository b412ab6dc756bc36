//! Key routing: rendezvous (highest-random-weight) hashing for shard
//! rebalancing, and the fixed key→shard map every sharded cache layer uses.
//!
//! When a partitioned cluster loses a node, every item the directory mapped
//! to it needs a new preferred home.  Rendezvous hashing gives each
//! `(item, node)` pair a deterministic score and ranks the nodes per item by
//! descending score; removing a node only re-homes the items that ranked it
//! first, which is exactly the minimal-disruption property consistent
//! hashing is used for.  Both the runtime cluster and the simulator resolve
//! the *same* preference order, so predicted and empirical rebalancing
//! agree.

/// Mix the bits of `z` (the SplitMix64 finalizer, the workspace's standard).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical shard routing: which of `num_shards` buckets `key` belongs
/// to.  Every layer that partitions cache state by key — the runtime's
/// sharded `TieredByteCache` and the parallel fetch pool's thread-ownership
/// map — MUST route through this one function, so a key's tier
/// transactions always land on the same shard (and therefore the same
/// owning lock/thread) no matter which layer asks.
///
/// # Panics
/// Panics when `num_shards` is zero.
pub fn shard_of_key(key: u64, num_shards: usize) -> usize {
    assert!(num_shards > 0, "shard routing needs at least one shard");
    // Offsetting before the finalizer decorrelates sequential item ids, so
    // shards fill uniformly even under strided key namespaces.
    (mix(key.wrapping_add(0x9E37_79B9_7F4A_7C15)) % num_shards as u64) as usize
}

/// The rendezvous weight of placing `item` on `node`: a pure function of the
/// pair, uniform across both arguments.
pub fn rendezvous_score(item: u64, node: usize) -> u64 {
    mix(item
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(1)
        .wrapping_mul(
            (node as u64)
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .wrapping_add(0xC0DA),
        ))
}

/// All nodes of a `nodes`-strong cluster ranked by descending rendezvous
/// score for `item` (ties broken by ascending node id).  The first entry is
/// the item's preferred home; later entries are fallbacks.
pub fn rendezvous_order(item: u64, nodes: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..nodes).collect();
    order.sort_by_key(|&n| (std::cmp::Reverse(rendezvous_score(item, n)), n));
    order
}

/// The highest-scoring node for `item` among `candidates` (`None` when the
/// candidate set is empty).  Equivalent to filtering [`rendezvous_order`]
/// down to `candidates` and taking the head, without the allocation.
pub fn rendezvous_pick(item: u64, candidates: &[usize]) -> Option<usize> {
    candidates
        .iter()
        .copied()
        .min_by_key(|&n| (std::cmp::Reverse(rendezvous_score(item, n)), n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_pinned_and_in_range() {
        // Cache digests depend on which shard owns which key: pin the map.
        let eight: Vec<usize> = (0..16).map(|k| shard_of_key(k, 8)).collect();
        assert_eq!(eight, [7, 1, 6, 5, 2, 2, 0, 7, 6, 4, 2, 5, 3, 7, 6, 5]);
        let three: Vec<usize> = (0..16).map(|k| shard_of_key(k, 3)).collect();
        assert_eq!(three, [1, 2, 1, 0, 1, 2, 2, 0, 1, 1, 1, 0, 0, 1, 2, 2]);
        for shards in [1usize, 2, 3, 8] {
            assert!((0..500).all(|k| shard_of_key(k, shards) < shards));
        }
        // One shard routes everything to bucket 0 (the serial special case).
        assert!((0..100).all(|k| shard_of_key(k, 1) == 0));
    }

    #[test]
    fn order_is_deterministic_and_a_permutation() {
        let a = rendezvous_order(1234, 8);
        let b = rendezvous_order(1234, 8);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn pick_agrees_with_order() {
        for item in 0..200u64 {
            let order = rendezvous_order(item, 5);
            let all: Vec<usize> = (0..5).collect();
            assert_eq!(rendezvous_pick(item, &all), Some(order[0]));
            // Restricting the candidate set takes the first surviving
            // preference — the property rebalancing relies on.
            let survivors: Vec<usize> = all.iter().copied().filter(|&n| n != order[0]).collect();
            assert_eq!(rendezvous_pick(item, &survivors), Some(order[1]));
        }
        assert_eq!(rendezvous_pick(7, &[]), None);
    }

    #[test]
    fn removing_a_node_only_rehomes_its_own_items() {
        // The minimal-disruption property: items not homed on the removed
        // node keep their placement.
        let all: Vec<usize> = (0..6).collect();
        let survivors: Vec<usize> = (0..6).filter(|&n| n != 3).collect();
        for item in 0..500u64 {
            let before = rendezvous_pick(item, &all).unwrap();
            let after = rendezvous_pick(item, &survivors).unwrap();
            if before != 3 {
                assert_eq!(before, after, "item {item} moved needlessly");
            }
        }
    }

    #[test]
    fn placement_is_roughly_balanced() {
        let all: Vec<usize> = (0..4).collect();
        let mut counts = [0usize; 4];
        for item in 0..4000u64 {
            counts[rendezvous_pick(item, &all).unwrap()] += 1;
        }
        for (n, &c) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&c),
                "node {n} got {c} of 4000 items — not balanced: {counts:?}"
            );
        }
    }
}
