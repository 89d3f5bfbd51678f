//! The dynamic program (memo) with saved state and usage pointers (§3,
//! §6.5).
//!
//! A System-R style bottom-up enumerator over connected relation subsets,
//! represented as bitmasks. The memo is the "state of its search space" the
//! optimizer conserves when it calls the execution engine; re-optimization
//! is incremental:
//!
//! * completing a fragment **pins** its subquery's entry — the mask becomes
//!   an *atomic* unit with observed cardinality and near-zero access cost
//!   (a local materialization), and partitions may no longer split it;
//! * **usage pointers** link every entry to the larger subqueries that can
//!   use it as a child; corrected information propagates only along those
//!   pointers ("any new information about the completion of a fragment can
//!   only impact half of the entries in the original table");
//! * without pointers, every entry must be revisited and revalidated — the
//!   configuration the paper measured as *worse than replanning from
//!   scratch*, reproduced here for experiment E65.

use std::collections::{BTreeSet, HashMap};

use crate::cost::Estimate;

/// Bitmask over the query's relations (bit *i* = relation *i*).
pub type RelMask = u32;

/// A join edge between two relations, with the estimated selectivity and
/// the qualified join columns (used later by plan lowering).
#[derive(Debug, Clone)]
pub struct EdgeSpec {
    /// Left relation index.
    pub a: usize,
    /// Right relation index.
    pub b: usize,
    /// Estimated join selectivity.
    pub selectivity: f64,
    /// Qualified column on relation `a`.
    pub a_col: String,
    /// Qualified column on relation `b`.
    pub b_col: String,
}

/// The extracted best plan for a subquery.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinTree {
    /// A base relation (index into the query's relation list).
    Leaf {
        /// Relation index.
        rel: usize,
    },
    /// A materialized intermediate result from a completed fragment.
    Materialized {
        /// The subquery this materialization computed.
        mask: RelMask,
    },
    /// A join of two subplans.
    Join {
        /// Left subplan.
        left: Box<JoinTree>,
        /// Right subplan.
        right: Box<JoinTree>,
        /// Mask of the left subplan.
        left_mask: RelMask,
        /// Mask of the right subplan.
        right_mask: RelMask,
    },
}

impl JoinTree {
    /// Number of join nodes.
    pub fn join_count(&self) -> usize {
        match self {
            JoinTree::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
            _ => 0,
        }
    }
}

#[derive(Debug, Clone)]
struct MemoEntry {
    est: Estimate,
    /// Best partition (left_mask, right_mask); `None` for leaves and
    /// materialized units.
    best: Option<(RelMask, RelMask)>,
    /// Usage pointers: supersets that may use this entry as a child.
    used_by: BTreeSet<RelMask>,
    /// Pinned entries (leaves, materializations) are not re-enumerated.
    pinned: bool,
}

/// Work counters, used by tests and the E65 experiment to compare
/// re-optimization strategies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Entries (re)computed.
    pub entries_computed: usize,
    /// Candidate partitions costed.
    pub partitions_considered: usize,
    /// Entries visited but found unaffected (revalidation overhead).
    pub entries_revalidated: usize,
}

/// The saved dynamic program.
#[derive(Debug, Clone)]
pub struct Memo {
    n: usize,
    edges: Vec<EdgeSpec>,
    entries: HashMap<RelMask, MemoEntry>,
    /// Masks that must be treated as atomic (materialized fragments).
    atomics: Vec<RelMask>,
    /// Work counters for the most recent build/update.
    pub stats: MemoStats,
}

/// Cost of one join step: `f(left, right, out_card) -> cost_ms`.
pub type StepCoster<'a> = &'a dyn Fn(&Estimate, &Estimate, f64) -> f64;

impl Memo {
    /// Build the full dynamic program bottom-up.
    ///
    /// `leaves[i]` is the estimate for scanning relation `i`; `edges` the
    /// join graph with selectivities; `coster` prices one join step.
    pub fn build(leaves: Vec<Estimate>, edges: Vec<EdgeSpec>, coster: StepCoster<'_>) -> Memo {
        Memo::build_with_pins(leaves, edges, Vec::new(), coster)
    }

    /// Build from scratch with some subqueries already materialized
    /// (the `Scratch` re-optimization strategy: the query "gets smaller by
    /// one operation after each join" — pinned masks are atomic leaves).
    pub fn build_with_pins(
        leaves: Vec<Estimate>,
        edges: Vec<EdgeSpec>,
        pins: Vec<(RelMask, Estimate)>,
        coster: StepCoster<'_>,
    ) -> Memo {
        let n = leaves.len();
        assert!(
            n <= 20,
            "mask-based enumeration supports up to 20 relations"
        );
        let mut memo = Memo {
            n,
            edges,
            entries: HashMap::new(),
            atomics: Vec::new(),
            stats: MemoStats::default(),
        };
        for (i, est) in leaves.into_iter().enumerate() {
            memo.entries.insert(
                1 << i,
                MemoEntry {
                    est,
                    best: None,
                    used_by: BTreeSet::new(),
                    pinned: true,
                },
            );
        }
        for (mask, est) in pins {
            memo.entries.insert(
                mask,
                MemoEntry {
                    est,
                    best: None,
                    used_by: BTreeSet::new(),
                    pinned: true,
                },
            );
            memo.atomics.push(mask);
        }
        memo.enumerate_all(coster);
        memo
    }

    /// Pinned atomic masks (materialized fragments).
    pub fn atomics(&self) -> &[RelMask] {
        &self.atomics
    }

    /// The full-query mask.
    pub fn full_mask(&self) -> RelMask {
        ((1u64 << self.n) - 1) as RelMask
    }

    /// Estimate for a subquery, if planned.
    pub fn estimate(&self, mask: RelMask) -> Option<Estimate> {
        self.entries.get(&mask).map(|e| e.est)
    }

    fn crossing_selectivity(&self, a: RelMask, b: RelMask) -> Option<f64> {
        let mut sel = 1.0;
        let mut any = false;
        for e in &self.edges {
            let (ma, mb) = (1u32 << e.a, 1u32 << e.b);
            if (a & ma != 0 && b & mb != 0) || (a & mb != 0 && b & ma != 0) {
                sel *= e.selectivity;
                any = true;
            }
        }
        any.then_some(sel)
    }

    fn respects_atomics(&self, mask: RelMask) -> bool {
        self.atomics
            .iter()
            .all(|&m| (mask & m) == 0 || (mask & m) == m)
    }

    /// (Re)compute the best plan for `mask` by enumerating partitions.
    /// Returns true if the entry changed.
    fn compute_entry(&mut self, mask: RelMask, coster: StepCoster<'_>) -> bool {
        if let Some(e) = self.entries.get(&mask) {
            if e.pinned {
                return false;
            }
        }
        let mut best: Option<(f64, Estimate, (RelMask, RelMask))> = None;
        // enumerate proper submasks; fix the lowest bit into the left side
        // to visit each unordered partition once
        let low = mask & mask.wrapping_neg();
        let rest = mask ^ low;
        let mut sub = rest;
        loop {
            let left = sub | low;
            let right = mask ^ left;
            if right != 0 {
                self.stats.partitions_considered += 1;
                if self.respects_atomics(left) && self.respects_atomics(right) {
                    if let (Some(le), Some(re)) = (
                        self.entries.get(&left).map(|e| e.est),
                        self.entries.get(&right).map(|e| e.est),
                    ) {
                        if let Some(sel) = self.crossing_selectivity(left, right) {
                            let out_card = (le.card * re.card * sel).max(0.0);
                            let step = coster(&le, &re, out_card);
                            let cost = le.cost_ms + re.cost_ms + step;
                            let width = le.tuple_bytes + re.tuple_bytes;
                            if best.map(|(c, _, _)| cost < c).unwrap_or(true) {
                                best = Some((
                                    cost,
                                    Estimate {
                                        cost_ms: cost,
                                        card: out_card,
                                        tuple_bytes: width,
                                    },
                                    (left, right),
                                ));
                            }
                        }
                    }
                }
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & rest;
        }
        let Some((_, est, partition)) = best else {
            return false; // disconnected or unplannable subset
        };
        self.stats.entries_computed += 1;
        let changed = match self.entries.get(&mask) {
            Some(old) => old.est != est || old.best != Some(partition),
            None => true,
        };
        let used_by = self
            .entries
            .remove(&mask)
            .map(|e| e.used_by)
            .unwrap_or_default();
        self.entries.insert(
            mask,
            MemoEntry {
                est,
                best: Some(partition),
                used_by,
                pinned: false,
            },
        );
        // usage pointers from both children to this entry
        let (l, r) = partition;
        for child in [l, r] {
            if let Some(c) = self.entries.get_mut(&child) {
                c.used_by.insert(mask);
            }
        }
        changed
    }

    fn enumerate_all(&mut self, coster: StepCoster<'_>) {
        // Constructive connected-subset enumeration: grow each discovered
        // subset by one edge-adjacent relation (System-R style, avoiding
        // both Cartesian products and the 2^n scan over disconnected
        // masks).
        let full = self.full_mask() as usize;
        let mut seen = vec![false; full + 1];
        let mut by_size: Vec<Vec<RelMask>> = vec![Vec::new(); self.n + 1];
        for i in 0..self.n {
            seen[1 << i] = true;
            by_size[1].push(1 << i);
        }
        for size in 1..self.n {
            let current = std::mem::take(&mut by_size[size]);
            for &mask in &current {
                for e in &self.edges {
                    let (ma, mb) = (1u32 << e.a, 1u32 << e.b);
                    let has_a = mask & ma != 0;
                    let has_b = mask & mb != 0;
                    if has_a != has_b {
                        let grown = mask | ma | mb;
                        if !seen[grown as usize] {
                            seen[grown as usize] = true;
                            by_size[grown.count_ones() as usize].push(grown);
                        }
                    }
                }
            }
            by_size[size] = current;
        }
        for bucket in by_size.iter_mut().skip(2) {
            let mut masks = std::mem::take(bucket);
            masks.sort_unstable();
            for mask in masks {
                if self.respects_atomics(mask) {
                    self.compute_entry(mask, coster);
                }
            }
        }
    }

    /// Pin `mask` as a materialized unit with an observed estimate. Further
    /// partitions may not split it.
    pub fn pin_materialized(&mut self, mask: RelMask, est: Estimate) {
        let used_by = self
            .entries
            .remove(&mask)
            .map(|e| e.used_by)
            .unwrap_or_default();
        self.entries.insert(
            mask,
            MemoEntry {
                est,
                best: None,
                used_by,
                pinned: true,
            },
        );
        if !self.atomics.contains(&mask) {
            self.atomics.push(mask);
        }
    }

    /// Incremental re-optimization following usage pointers: recompute only
    /// entries reachable from `mask` (ascending size), stopping propagation
    /// where nothing changed.
    pub fn update_with_pointers(&mut self, mask: RelMask, coster: StepCoster<'_>) {
        self.stats = MemoStats::default();
        let mut frontier: BTreeSet<RelMask> = self
            .entries
            .get(&mask)
            .map(|e| e.used_by.clone())
            .unwrap_or_default();
        let mut processed: BTreeSet<RelMask> = BTreeSet::new();
        while let Some(&m) = frontier.iter().min_by_key(|m| m.count_ones()) {
            frontier.remove(&m);
            if !processed.insert(m) {
                continue;
            }
            let changed = self.compute_entry(m, coster);
            if changed {
                if let Some(e) = self.entries.get(&m) {
                    frontier.extend(e.used_by.iter().copied());
                }
            } else {
                self.stats.entries_revalidated += 1;
            }
        }
    }

    /// Full-table re-optimization without usage pointers: every non-pinned
    /// entry is revisited in ascending size order (whether affected or
    /// not), paying revalidation overhead on the unaffected ones.
    pub fn update_without_pointers(&mut self, coster: StepCoster<'_>) {
        self.stats = MemoStats::default();
        let mut masks: Vec<RelMask> = self.entries.keys().copied().collect();
        masks.sort_by_key(|m| m.count_ones());
        for m in masks {
            if m.count_ones() < 2 {
                continue;
            }
            if !self.respects_atomics(m) {
                self.stats.entries_revalidated += 1;
                continue;
            }
            if !self.compute_entry(m, coster) {
                self.stats.entries_revalidated += 1;
            }
        }
    }

    /// Extract the best join tree for `mask`.
    pub fn extract(&self, mask: RelMask) -> Option<JoinTree> {
        let e = self.entries.get(&mask)?;
        if mask.count_ones() == 1 {
            return Some(JoinTree::Leaf {
                rel: mask.trailing_zeros() as usize,
            });
        }
        if e.pinned || e.best.is_none() {
            return Some(JoinTree::Materialized { mask });
        }
        let (l, r) = e.best.unwrap();
        Some(JoinTree::Join {
            left: Box::new(self.extract(l)?),
            right: Box::new(self.extract(r)?),
            left_mask: l,
            right_mask: r,
        })
    }

    /// The edge specs (for lowering).
    pub fn edges(&self) -> &[EdgeSpec] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(card: f64) -> Estimate {
        Estimate {
            cost_ms: card * 0.01,
            card,
            tuple_bytes: 50.0,
        }
    }

    fn chain_edges(n: usize, sel: f64) -> Vec<EdgeSpec> {
        (0..n - 1)
            .map(|i| EdgeSpec {
                a: i,
                b: i + 1,
                selectivity: sel,
                a_col: format!("r{i}.k{i}"),
                b_col: format!("r{}.k{i}", i + 1),
            })
            .collect()
    }

    fn simple_coster(l: &Estimate, r: &Estimate, out: f64) -> f64 {
        (l.card + r.card + out) * 0.001
    }

    #[test]
    fn plans_a_chain_query() {
        let leaves = vec![leaf(100.0), leaf(1000.0), leaf(10.0)];
        let memo = Memo::build(leaves, chain_edges(3, 0.001), &simple_coster);
        let full = memo.full_mask();
        let tree = memo.extract(full).unwrap();
        assert_eq!(tree.join_count(), 2);
        assert!(memo.estimate(full).is_some());
    }

    #[test]
    fn disconnected_subsets_not_planned() {
        // chain r0–r1–r2: {r0, r2} is disconnected
        let leaves = vec![leaf(10.0), leaf(10.0), leaf(10.0)];
        let memo = Memo::build(leaves, chain_edges(3, 0.1), &simple_coster);
        assert!(memo.estimate(0b101).is_none());
        assert!(memo.estimate(0b011).is_some());
    }

    #[test]
    fn bushy_plans_allowed() {
        // star: r0 joins r1, r2, r3 — best plan may join (r0 r1) with ...
        let leaves = vec![leaf(10.0), leaf(10.0), leaf(10.0), leaf(10.0)];
        let edges = vec![
            EdgeSpec {
                a: 0,
                b: 1,
                selectivity: 0.1,
                a_col: "a".into(),
                b_col: "b".into(),
            },
            EdgeSpec {
                a: 0,
                b: 2,
                selectivity: 0.1,
                a_col: "a".into(),
                b_col: "c".into(),
            },
            EdgeSpec {
                a: 0,
                b: 3,
                selectivity: 0.1,
                a_col: "a".into(),
                b_col: "d".into(),
            },
        ];
        let memo = Memo::build(leaves, edges, &simple_coster);
        assert!(memo.extract(memo.full_mask()).is_some());
    }

    #[test]
    fn cheaper_orders_win() {
        // joining the two small relations first should beat starting with
        // the huge one
        let leaves = vec![leaf(1_000_000.0), leaf(10.0), leaf(10.0)];
        // triangle: all pairs joinable
        let mut edges = chain_edges(3, 0.01);
        edges.push(EdgeSpec {
            a: 0,
            b: 2,
            selectivity: 0.01,
            a_col: "x".into(),
            b_col: "y".into(),
        });
        let memo = Memo::build(leaves, edges, &simple_coster);
        let tree = memo.extract(memo.full_mask()).unwrap();
        // the first join must be {r1, r2}
        match tree {
            JoinTree::Join {
                left_mask,
                right_mask,
                ..
            } => {
                assert!(
                    left_mask == 0b110 || right_mask == 0b110,
                    "expected small-pair-first, got {left_mask:#b}/{right_mask:#b}"
                );
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn pinning_makes_mask_atomic() {
        let leaves = vec![leaf(100.0), leaf(100.0), leaf(100.0), leaf(100.0)];
        let mut memo = Memo::build(leaves, chain_edges(4, 0.01), &simple_coster);
        // fragment computed {r0, r1}: observed card 5 (tiny!)
        memo.pin_materialized(
            0b0011,
            Estimate {
                cost_ms: 0.1,
                card: 5.0,
                tuple_bytes: 100.0,
            },
        );
        memo.update_with_pointers(0b0011, &simple_coster);
        let tree = memo.extract(memo.full_mask()).unwrap();
        // the extracted tree must contain the materialized unit
        fn has_mat(t: &JoinTree, mask: RelMask) -> bool {
            match t {
                JoinTree::Materialized { mask: m } => *m == mask,
                JoinTree::Join { left, right, .. } => has_mat(left, mask) || has_mat(right, mask),
                _ => false,
            }
        }
        assert!(has_mat(&tree, 0b0011), "plan must use the materialization");
    }

    #[test]
    fn pointer_update_touches_fewer_entries_than_full_pass() {
        let leaves: Vec<Estimate> = (0..6).map(|i| leaf(100.0 * (i + 1) as f64)).collect();
        let edges = chain_edges(6, 0.001);
        let mut with_ptrs = Memo::build(leaves.clone(), edges.clone(), &simple_coster);
        let mut without = with_ptrs.clone();

        let obs = Estimate {
            cost_ms: 0.1,
            card: 3.0,
            tuple_bytes: 100.0,
        };
        with_ptrs.pin_materialized(0b000011, obs);
        with_ptrs.update_with_pointers(0b000011, &simple_coster);
        without.pin_materialized(0b000011, obs);
        without.update_without_pointers(&simple_coster);

        let w = with_ptrs.stats;
        let wo = without.stats;
        assert!(
            w.entries_computed + w.entries_revalidated
                < wo.entries_computed + wo.entries_revalidated,
            "pointers must touch fewer entries: {w:?} vs {wo:?}"
        );
        // both strategies agree on the final plan cost
        assert_eq!(
            with_ptrs.estimate(with_ptrs.full_mask()).unwrap().cost_ms,
            without.estimate(without.full_mask()).unwrap().cost_ms
        );
    }

    #[test]
    fn scratch_and_incremental_agree() {
        let leaves: Vec<Estimate> = (0..5).map(|i| leaf(50.0 * (i + 1) as f64)).collect();
        let edges = chain_edges(5, 0.01);
        let mut incremental = Memo::build(leaves.clone(), edges.clone(), &simple_coster);
        let obs = Estimate {
            cost_ms: 0.2,
            card: 7.0,
            tuple_bytes: 100.0,
        };
        incremental.pin_materialized(0b00011, obs);
        incremental.update_with_pointers(0b00011, &simple_coster);

        // scratch: rebuild with the same pin applied up front
        let mut scratch = Memo::build(leaves, edges, &simple_coster);
        scratch.pin_materialized(0b00011, obs);
        scratch.update_without_pointers(&simple_coster);

        assert_eq!(
            incremental
                .estimate(incremental.full_mask())
                .unwrap()
                .cost_ms,
            scratch.estimate(scratch.full_mask()).unwrap().cost_ms
        );
    }

    #[test]
    fn estimates_use_selectivity_product_on_cuts() {
        // triangle query: cut {r0} | {r1,r2} crosses two edges
        let leaves = vec![leaf(100.0), leaf(100.0), leaf(100.0)];
        let edges = vec![
            EdgeSpec {
                a: 0,
                b: 1,
                selectivity: 0.1,
                a_col: "a".into(),
                b_col: "b".into(),
            },
            EdgeSpec {
                a: 1,
                b: 2,
                selectivity: 0.1,
                a_col: "b".into(),
                b_col: "c".into(),
            },
            EdgeSpec {
                a: 0,
                b: 2,
                selectivity: 0.1,
                a_col: "a".into(),
                b_col: "c".into(),
            },
        ];
        let memo = Memo::build(leaves, edges, &simple_coster);
        let full = memo.estimate(memo.full_mask()).unwrap();
        // 100^3 × 0.1^3 = 1000
        assert!((full.card - 1000.0).abs() < 1e-6, "card = {}", full.card);
    }
}
