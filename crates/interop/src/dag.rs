//! Net-level layer dependency DAG.
//!
//! Derived from blob producer/consumer relations in a [`NetSpec`]: layer
//! `a` precedes layer `b` iff some top of `a` is a bottom of `b`.
//! External input blobs have no producer, so fan-out from inputs (the
//! Siamese twin towers) creates parallel branches for free. The DAG gives
//! the scheduler its two structural facts: a deterministic topological
//! order (spec order, which [`LayerDag::from_spec`] verifies), and the
//! *wave* decomposition — longest-path level sets, each of
//! which is an antichain (no path connects two layers at the same depth)
//! and therefore a co-schedulable set.

use nn::NetSpec;
use std::collections::HashMap;

/// The dependency DAG over a network's layers.
#[derive(Debug, Clone)]
pub struct LayerDag {
    names: Vec<String>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    depth: Vec<usize>,
    waves: Vec<Vec<usize>>,
}

impl LayerDag {
    /// Build the DAG from a net spec.
    ///
    /// # Panics
    /// Panics if the spec's layer list is not topologically ordered (a
    /// layer consuming a top produced later) — [`nn::Net::from_spec`]
    /// enforces the same invariant, so any buildable net passes.
    pub fn from_spec(spec: &NetSpec) -> Self {
        let n = spec.layers.len();
        let mut producer: HashMap<&str, usize> = HashMap::new();
        for (li, ls) in spec.layers.iter().enumerate() {
            for t in &ls.tops {
                producer.insert(t.as_str(), li);
            }
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (li, ls) in spec.layers.iter().enumerate() {
            let mut ps: Vec<usize> = ls
                .bottoms
                .iter()
                .filter_map(|b| producer.get(b.as_str()).copied())
                .collect();
            ps.sort_unstable();
            ps.dedup();
            for &p in &ps {
                assert!(
                    p < li,
                    "spec layers must be topologically ordered (layer {} consumes a later top)",
                    ls.name
                );
                succs[p].push(li);
            }
            preds[li] = ps;
        }
        let mut depth = vec![0usize; n];
        for i in 0..n {
            depth[i] = preds[i].iter().map(|&p| depth[p] + 1).max().unwrap_or(0);
        }
        let num_waves = depth.iter().map(|&d| d + 1).max().unwrap_or(0);
        let mut waves: Vec<Vec<usize>> = vec![Vec::new(); num_waves];
        for i in 0..n {
            waves[depth[i]].push(i); // ascending layer index within a wave
        }
        LayerDag {
            names: spec.layers.iter().map(|l| l.name.clone()).collect(),
            preds,
            succs,
            depth,
            waves,
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.names.len()
    }

    /// Layer name by index.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Direct predecessors of layer `i` (sorted, deduplicated).
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Direct successors of layer `i`.
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// Longest-path depth of layer `i` (its wave index).
    pub fn depth(&self, i: usize) -> usize {
        self.depth[i]
    }

    /// Wave decomposition: `waves()[d]` holds every layer at depth `d`,
    /// ascending by layer index. Each wave is an antichain — a path
    /// between two layers would force strictly increasing depth.
    pub fn waves(&self) -> &[Vec<usize>] {
        &self.waves
    }

    /// The non-trivial antichains: waves holding more than one layer —
    /// the branch sets the wave scheduler can co-schedule.
    pub fn antichains(&self) -> Vec<&[usize]> {
        self.waves
            .iter()
            .filter(|w| w.len() > 1)
            .map(Vec::as_slice)
            .collect()
    }

    /// Whether `order` is a permutation of `0..n` that respects every
    /// dependency edge.
    pub fn is_topo_order(&self, order: &[usize]) -> bool {
        let n = self.num_layers();
        if order.len() != n {
            return false;
        }
        let mut pos = vec![usize::MAX; n];
        for (at, &l) in order.iter().enumerate() {
            if l >= n || pos[l] != usize::MAX {
                return false;
            }
            pos[l] = at;
        }
        (0..n).all(|i| self.preds[i].iter().all(|&p| pos[p] < pos[i]))
    }

    /// Build a topological linearization driven by an arbitrary pick
    /// sequence: at each step, `picks[step] % ready.len()` selects which
    /// ready layer (ascending index order) runs next. Any pick sequence
    /// yields a valid topological order, and every topological order is
    /// reachable by some sequence — the generator behind the
    /// order-invariance property tests.
    pub fn linearize(&self, picks: &[usize]) -> Vec<usize> {
        let n = self.num_layers();
        let mut remaining: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut step = 0usize;
        while !ready.is_empty() {
            let pick = picks.get(step).copied().unwrap_or(0) % ready.len();
            let l = ready.remove(pick);
            order.push(l);
            for &s in &self.succs[l] {
                remaining[s] -= 1;
                if remaining[s] == 0 {
                    // Keep `ready` sorted so picks index deterministically.
                    let at = ready.partition_point(|&r| r < s);
                    ready.insert(at, s);
                }
            }
            step += 1;
        }
        assert_eq!(order.len(), n, "DAG has a cycle or dangling edge");
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn siamese_towers_form_antichains() {
        let dag = LayerDag::from_spec(&nn::models::siamese(8, 1));
        // Twin towers: every wave before the loss holds one layer from
        // each tower.
        let waves = dag.waves();
        assert_eq!(waves.len(), 9, "8 tower stages + loss");
        for w in &waves[..8] {
            assert_eq!(w.len(), 2, "tower stages pair up: {w:?}");
        }
        assert_eq!(waves[8].len(), 1, "contrastive loss is alone");
        assert_eq!(dag.antichains().len(), 8);
        let spec_order: Vec<usize> = (0..dag.num_layers()).collect();
        assert!(dag.is_topo_order(&spec_order));
    }

    #[test]
    fn fanout_split_gives_four_wide_wave() {
        let dag = LayerDag::from_spec(&nn::models::fanout(4, 1));
        let widest = dag.waves().iter().map(Vec::len).max().unwrap();
        assert_eq!(widest, 4, "four conv branches co-schedulable");
        // split -> conv wave -> relu wave -> join -> ip -> loss.
        assert_eq!(dag.waves().len(), 6);
    }

    #[test]
    fn linear_nets_have_singleton_waves() {
        let dag = LayerDag::from_spec(&nn::models::cifar10_quick(4, 1));
        assert!(dag.antichains().is_empty(), "CIFAR10-quick is a chain");
        assert_eq!(dag.waves().len(), dag.num_layers());
    }

    #[test]
    fn linearize_respects_dependencies_for_any_picks() {
        let dag = LayerDag::from_spec(&nn::models::googlenet_subset(2, 1));
        for seed in 0..20u64 {
            // Cheap LCG pick stream.
            let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let picks: Vec<usize> = (0..dag.num_layers())
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 33) as usize
                })
                .collect();
            let order = dag.linearize(&picks);
            assert!(dag.is_topo_order(&order), "picks {seed}: {order:?}");
        }
    }

    #[test]
    fn is_topo_order_rejects_violations() {
        let dag = LayerDag::from_spec(&nn::models::cifar10_quick(4, 1));
        // Spec order, which `from_spec` verified is topological.
        let mut order: Vec<usize> = (0..dag.num_layers()).collect();
        assert!(dag.is_topo_order(&order));
        order.swap(0, 1); // conv1 after pool1 is invalid
        assert!(!dag.is_topo_order(&order));
        assert!(!dag.is_topo_order(&order[1..]));
        let dup: Vec<usize> = vec![0; dag.num_layers()];
        assert!(!dag.is_topo_order(&dup));
    }
}
