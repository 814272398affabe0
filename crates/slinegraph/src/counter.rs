//! Overlap-count accumulators — the paper's "main performance criterion"
//! data structure (§III-F).
//!
//! Algorithm 2 maintains, per source hyperedge `e_i`, a running count of
//! shared vertices with every 2-hop neighbor `e_j`. The paper discusses
//! the trade-off between *dynamically allocated* hashmaps (fresh per
//! iteration) and *pre-allocated thread-local* storage (reset between
//! iterations). Three implementations make the choice measurable
//! (`benches/counter_ablation`):
//!
//! * [`DenseArrayCounter`] — the default: pre-allocated per-worker
//!   storage taken to its limit, a dense `u32` array indexed by hyperedge
//!   ID plus a touched list. No hashing, no per-source allocation. With
//!   [`Partition::Dynamic`] chunks of 64, at s = 2 on 2 workers of a
//!   2-core host, it counts the activeDNS wedges 4.7× faster than a
//!   fresh hashmap per source under static blocks (~25 → ~4 ns per
//!   wedge; 3.3× end to end), and builds genomics 2.3× faster;
//! * [`DynamicMapCounter`] and [`ReusedMapCounter`] — the paper's two
//!   hashmap designs, kept as §III-F ablation subjects (the Table III /
//!   Figures 7–11 reproductions pin [`CounterKind::DynamicMap`]).
//!
//! The counting kernel is generic over [`OverlapCounter`], so each kind
//! is monomorphized: no per-`bump` dispatch.
//!
//! [`Partition::Dynamic`]: crate::partition::Partition::Dynamic

use hyperline_util::fxhash::FxHashMap;

/// Accumulates counts for one source edge at a time.
///
/// Usage per source edge `i`: any number of [`OverlapCounter::bump`]
/// calls, then one drain, which emits the pairs with count ≥ `s` and
/// resets the counter for the next source edge.
pub trait OverlapCounter {
    /// Increments the overlap count of 2-hop neighbor `j`.
    fn bump(&mut self, j: u32);

    /// Emits `(i, j)` for every `j` with count ≥ `s`, then resets.
    fn drain(&mut self, i: u32, s: u32, out: &mut Vec<(u32, u32)>);

    /// Like [`OverlapCounter::drain`] but also reports the count (the
    /// s-line-graph edge weight, `inc(e_i, e_j)`). With `s = 1` it emits
    /// every touched pair — the raw counts ensemble Algorithm 3 stores.
    fn drain_weighted(&mut self, i: u32, s: u32, out: &mut Vec<(u32, u32, u32)>);
}

/// Which counter implementation an algorithm run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CounterKind {
    /// A fresh hashmap is allocated for every source hyperedge and dropped
    /// after its drain — the paper's default for most datasets, kept as
    /// an ablation subject.
    DynamicMap,
    /// One thread-local hashmap, cleared (capacity kept) between source
    /// hyperedges — the paper's pre-allocated TLS choice for dense inputs,
    /// kept as an ablation subject.
    ReusedMap,
    /// A dense `u32` array indexed by hyperedge ID with a touched list —
    /// O(1) bumps with no hashing at the cost of O(m) memory per worker.
    /// The default: the fastest kind measured (see the module docs).
    #[default]
    DenseArray,
}

impl CounterKind {
    /// All kinds, for ablation sweeps.
    pub const ALL: [CounterKind; 3] = [
        CounterKind::DynamicMap,
        CounterKind::ReusedMap,
        CounterKind::DenseArray,
    ];

    /// Short label for benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            CounterKind::DynamicMap => "dynamic-map",
            CounterKind::ReusedMap => "reused-map",
            CounterKind::DenseArray => "dense-array",
        }
    }
}

/// Fresh hashmap per source edge (see [`CounterKind::DynamicMap`]).
#[derive(Debug, Default)]
pub struct DynamicMapCounter {
    map: FxHashMap<u32, u32>,
}

impl DynamicMapCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl OverlapCounter for DynamicMapCounter {
    #[inline]
    fn bump(&mut self, j: u32) {
        *self.map.entry(j).or_insert(0) += 1;
    }

    fn drain(&mut self, i: u32, s: u32, out: &mut Vec<(u32, u32)>) {
        for (&j, &n) in &self.map {
            if n >= s {
                out.push((i, j));
            }
        }
        // Dynamic semantics: drop the allocation, start fresh.
        self.map = FxHashMap::default();
    }

    fn drain_weighted(&mut self, i: u32, s: u32, out: &mut Vec<(u32, u32, u32)>) {
        for (&j, &n) in &self.map {
            if n >= s {
                out.push((i, j, n));
            }
        }
        self.map = FxHashMap::default();
    }
}

/// One reused hashmap, cleared between source edges (see
/// [`CounterKind::ReusedMap`]).
#[derive(Debug, Default)]
pub struct ReusedMapCounter {
    map: FxHashMap<u32, u32>,
}

impl ReusedMapCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl OverlapCounter for ReusedMapCounter {
    #[inline]
    fn bump(&mut self, j: u32) {
        *self.map.entry(j).or_insert(0) += 1;
    }

    fn drain(&mut self, i: u32, s: u32, out: &mut Vec<(u32, u32)>) {
        for (&j, &n) in &self.map {
            if n >= s {
                out.push((i, j));
            }
        }
        self.map.clear();
    }

    fn drain_weighted(&mut self, i: u32, s: u32, out: &mut Vec<(u32, u32, u32)>) {
        for (&j, &n) in &self.map {
            if n >= s {
                out.push((i, j, n));
            }
        }
        self.map.clear();
    }
}

/// Dense array + touched list (see [`CounterKind::DenseArray`]).
#[derive(Debug)]
pub struct DenseArrayCounter {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl DenseArrayCounter {
    /// Creates a counter over hyperedge IDs `0..num_edges`.
    pub fn new(num_edges: usize) -> Self {
        Self {
            counts: vec![0; num_edges],
            touched: Vec::new(),
        }
    }
}

impl OverlapCounter for DenseArrayCounter {
    #[inline]
    fn bump(&mut self, j: u32) {
        let slot = &mut self.counts[j as usize];
        if *slot == 0 {
            self.touched.push(j);
        }
        *slot += 1;
    }

    fn drain(&mut self, i: u32, s: u32, out: &mut Vec<(u32, u32)>) {
        for &j in &self.touched {
            if self.counts[j as usize] >= s {
                out.push((i, j));
            }
            self.counts[j as usize] = 0;
        }
        self.touched.clear();
    }

    fn drain_weighted(&mut self, i: u32, s: u32, out: &mut Vec<(u32, u32, u32)>) {
        for &j in &self.touched {
            let n = self.counts[j as usize];
            if n >= s {
                out.push((i, j, n));
            }
            self.counts[j as usize] = 0;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut counter: impl OverlapCounter) {
        // Source edge 7 sees: j=3 twice, j=5 once, j=9 three times.
        for j in [3u32, 5, 9, 3, 9, 9] {
            counter.bump(j);
        }
        let mut out = Vec::new();
        counter.drain(7, 2, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(7, 3), (7, 9)]);

        // Counter must be reset now.
        counter.bump(3);
        let mut out = Vec::new();
        counter.drain(8, 1, &mut out);
        assert_eq!(out, vec![(8, 3)]);

        // Weighted drain.
        for j in [4u32, 4, 4, 6] {
            counter.bump(j);
        }
        let mut out = Vec::new();
        counter.drain_weighted(1, 2, &mut out);
        assert_eq!(out, vec![(1, 4, 3)]);

        // Raw counts: a weighted drain at s = 1 emits every touched pair.
        for j in [2u32, 2, 0] {
            counter.bump(j);
        }
        let mut out = Vec::new();
        counter.drain_weighted(5, 1, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(5, 0, 1), (5, 2, 2)]);

        // High s emits nothing.
        counter.bump(1);
        counter.bump(1);
        let mut out = Vec::new();
        counter.drain(0, 3, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn dynamic_map_counter() {
        exercise(DynamicMapCounter::new());
    }

    #[test]
    fn reused_map_counter() {
        exercise(ReusedMapCounter::new());
    }

    #[test]
    fn dense_array_counter() {
        exercise(DenseArrayCounter::new(10));
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<&str> =
            CounterKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 3);
    }
}
