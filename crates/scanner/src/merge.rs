//! Sanctioned deterministic merge helpers for threaded scans.
//!
//! Every parallel stage in the scanner fans work out over shard groups
//! and must put the pieces back together in an order that is a pure
//! function of the input — never of thread completion. These helpers
//! are the registered merge points the `c1-spawn-merge` lint requires
//! spawning functions to reach: routing a join through one of them is
//! machine-checkable proof the merge is ordered, where a comment is
//! only a claim. [`default_workers`] sizes the fan-out itself when the
//! caller does not pin a worker count.

/// Workers for a parallel stage over `items` pieces of work when the
/// caller does not pin a count: the host's parallelism (at most 8), but
/// never more workers than there are `min_per_worker`-sized shares.
/// Below two shares the stage runs on the calling thread: spawning and
/// joining workers for a few milliseconds of work saves nothing, and on
/// a busy host the spawn and join cost varies from run to run.
pub(crate) fn default_workers(items: usize, min_per_worker: usize) -> usize {
    let shares = items / min_per_worker.max(1);
    if shares < 2 {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
        .min(shares)
}

/// Concatenate per-worker result groups in group order. Workers are
/// handed contiguous chunks of an ordered work list, so group-order
/// concatenation reproduces the serial scan exactly.
pub fn ordered_flatten<T>(groups: Vec<Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(groups.iter().map(Vec::len).sum());
    for group in groups {
        out.extend(group);
    }
    out
}

/// Concatenate per-worker result groups, then impose a total order by
/// `key`. For stages whose workers do not partition an ordered list
/// (e.g. striped work-stealing), group order is meaningless and the
/// sort supplies determinism instead. The sort is stable, so items
/// with equal keys keep group order as a tiebreak.
pub fn ordered_merge_by_key<T, K: Ord, F: FnMut(&T) -> K>(groups: Vec<Vec<T>>, key: F) -> Vec<T> {
    let mut out = ordered_flatten(groups);
    out.sort_by_key(key);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workers_stay_serial_below_two_shares() {
        assert_eq!(default_workers(0, 100), 1);
        assert_eq!(default_workers(199, 100), 1);
        assert!((1..=8).contains(&default_workers(100 * 100, 100)));
        assert!((1..=3).contains(&default_workers(300, 100)));
    }

    #[test]
    fn flatten_preserves_group_then_item_order() {
        let groups = vec![vec![3, 1], vec![], vec![2]];
        assert_eq!(ordered_flatten(groups), vec![3, 1, 2]);
    }

    #[test]
    fn merge_by_key_totally_orders_across_groups() {
        let groups = vec![vec![(2, 'a')], vec![(1, 'b'), (2, 'c')]];
        let merged = ordered_merge_by_key(groups, |&(k, _)| k);
        assert_eq!(merged, vec![(1, 'b'), (2, 'a'), (2, 'c')]);
    }
}
