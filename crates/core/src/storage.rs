//! Hardware storage-cost model: reproduces the paper's Table 2.
//!
//! The paper itemizes the per-controller storage TCM's monitors require
//! and concludes it is under 4 Kbit for the 24-core baseline (under
//! 0.5 Kbit if pure random shuffling is used, which needs no BLP/RBL
//! monitoring). These functions reproduce each row of Table 2 exactly.
//!
//! # Example
//!
//! ```
//! use tcm_core::storage::{StorageModel, Table2Row};
//!
//! let m = StorageModel::paper_baseline();
//! assert_eq!(m.total_bits(), 3792); // < 4 Kbit, as the paper states
//! assert!(m.random_shuffle_only_bits() < 512);
//! ```

/// Integer `ceil(log2(x))`, the bit width needed to count to `x`.
fn bits_for(x: u64) -> u64 {
    assert!(x > 1, "a counter must have at least two states");
    64 - (x - 1).leading_zeros() as u64
}

/// One itemized row of Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Structure name as printed in the paper.
    pub name: &'static str,
    /// What the structure stores.
    pub function: &'static str,
    /// The closed-form size expression, evaluated.
    pub bits: u64,
}

/// Parameters of the storage model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageModel {
    /// Hardware threads monitored.
    pub num_threads: u64,
    /// Banks per controller.
    pub banks_per_controller: u64,
    /// Maximum MPKI value the counter saturates at.
    pub mpki_max: u64,
    /// Maximum per-bank queue occupancy counted by the load counter.
    pub queue_max: u64,
    /// Rows per bank.
    pub num_rows: u64,
    /// Maximum shadow row-buffer hit count per counter.
    pub count_max: u64,
}

impl StorageModel {
    /// The paper's baseline: 24 threads, 4 banks per controller,
    /// 1024-saturating MPKI counters, 64-entry per-bank load counters,
    /// 16384 rows, 16-bit shadow hit counters. Chosen so every row of
    /// Table 2 evaluates to the paper's printed value.
    pub fn paper_baseline() -> Self {
        Self {
            num_threads: 24,
            banks_per_controller: 4,
            mpki_max: 1 << 10,
            queue_max: 1 << 6,
            num_rows: 1 << 14,
            count_max: 1 << 16,
        }
    }

    /// Row: MPKI counter (`Nthread · log2 MPKImax`).
    pub fn mpki_counter_bits(&self) -> u64 {
        self.num_threads * bits_for(self.mpki_max)
    }

    /// Row: per-bank load counter (`Nthread · Nbank · log2 Queuemax`).
    pub fn load_counter_bits(&self) -> u64 {
        self.num_threads * self.banks_per_controller * bits_for(self.queue_max)
    }

    /// Row: BLP counter (`Nthread · log2 Nbank`).
    pub fn blp_counter_bits(&self) -> u64 {
        self.num_threads * bits_for(self.banks_per_controller)
    }

    /// Row: BLP average register (`Nthread · log2 Nbank`).
    pub fn blp_average_bits(&self) -> u64 {
        self.num_threads * bits_for(self.banks_per_controller)
    }

    /// Row: shadow row-buffer index (`Nthread · Nbank · log2 Nrows`).
    pub fn shadow_index_bits(&self) -> u64 {
        self.num_threads * self.banks_per_controller * bits_for(self.num_rows)
    }

    /// Row: shadow row-buffer hit counters
    /// (`Nthread · Nbank · log2 Countmax`).
    pub fn shadow_hits_bits(&self) -> u64 {
        self.num_threads * self.banks_per_controller * bits_for(self.count_max)
    }

    /// All rows of Table 2 with the paper's labels.
    pub fn rows(&self) -> Vec<Table2Row> {
        vec![
            Table2Row {
                name: "MPKI-counter",
                function: "A thread's cache misses per kilo-instruction",
                bits: self.mpki_counter_bits(),
            },
            Table2Row {
                name: "Load-counter",
                function: "Number of outstanding thread requests to a bank",
                bits: self.load_counter_bits(),
            },
            Table2Row {
                name: "BLP-counter",
                function: "Number of banks for which load-counter > 0",
                bits: self.blp_counter_bits(),
            },
            Table2Row {
                name: "BLP-average",
                function: "Average value of load-counter",
                bits: self.blp_average_bits(),
            },
            Table2Row {
                name: "Shadow row-buffer index",
                function: "Index of a thread's last accessed row",
                bits: self.shadow_index_bits(),
            },
            Table2Row {
                name: "Shadow row-buffer hits",
                function: "Row-buffer hits if a thread were running alone",
                bits: self.shadow_hits_bits(),
            },
        ]
    }

    /// Total per-controller monitoring storage in bits.
    pub fn total_bits(&self) -> u64 {
        self.rows().iter().map(|r| r.bits).sum()
    }

    /// Storage needed when TCM is configured for pure random shuffling
    /// (`ShuffleAlgoThresh = 1`): only memory-intensity monitoring
    /// remains; BLP and RBL monitors are dropped.
    pub fn random_shuffle_only_bits(&self) -> u64 {
        self.mpki_counter_bits()
    }
}

impl Default for StorageModel {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn every_row_matches_table_2() {
        let m = StorageModel::paper_baseline();
        assert_eq!(m.mpki_counter_bits(), 240);
        assert_eq!(m.load_counter_bits(), 576);
        assert_eq!(m.blp_counter_bits(), 48);
        assert_eq!(m.blp_average_bits(), 48);
        assert_eq!(m.shadow_index_bits(), 1344);
        assert_eq!(m.shadow_hits_bits(), 1536);
    }

    #[test]
    fn totals_match_paper_claims() {
        let m = StorageModel::paper_baseline();
        assert!(m.total_bits() < 4096, "paper: less than 4 Kbit");
        assert!(
            m.random_shuffle_only_bits() < 512,
            "paper: less than 0.5 Kbit for pure random shuffling"
        );
    }

    #[test]
    fn rows_are_itemized_and_sum_to_total() {
        let m = StorageModel::paper_baseline();
        let rows = m.rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows.iter().map(|r| r.bits).sum::<u64>(), m.total_bits());
        assert!(rows.iter().all(|r| !r.name.is_empty() && r.bits > 0));
    }

    #[test]
    fn bits_for_is_ceil_log2() {
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(1024), 10);
        assert_eq!(bits_for(1025), 11);
        assert_eq!(bits_for(16384), 14);
    }

    #[test]
    fn scales_with_thread_count() {
        let mut m = StorageModel::paper_baseline();
        m.num_threads = 48;
        assert_eq!(m.mpki_counter_bits(), 480);
        assert_eq!(
            m.total_bits(),
            2 * StorageModel::paper_baseline().total_bits()
        );
    }

    #[test]
    #[should_panic(expected = "two states")]
    fn degenerate_counter_rejected() {
        bits_for(1);
    }
}
