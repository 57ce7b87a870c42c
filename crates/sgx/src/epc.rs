//! The enclave page cache (EPC): a 128 MB protected memory budget.
//!
//! "The EPC size in the current version of SGX is limited to 128 MB per
//! machine. It is possible to create larger enclaves by swapping EPC pages
//! to regular memory, but this results in a substantial performance
//! penalty" (§II-C). This module models exactly that: allocations beyond
//! the budget succeed but charge a per-page paging penalty to the cycle
//! meter.

use endbox_netsim::cost::CycleMeter;

/// EPC page size.
pub const PAGE_SIZE: usize = 4096;
/// Default EPC capacity (SGXv1): 128 MB.
pub const DEFAULT_CAPACITY: usize = 128 * 1024 * 1024;

/// Tracks enclave memory consumption against the EPC budget.
#[derive(Debug, Clone)]
pub struct EpcAllocator {
    capacity: usize,
    used: usize,
    peak: usize,
    page_faults: u64,
    page_fault_cycles: u64,
    meter: CycleMeter,
}

impl EpcAllocator {
    /// New allocator with the given capacity.
    pub fn new(capacity: usize, page_fault_cycles: u64, meter: CycleMeter) -> Self {
        EpcAllocator {
            capacity,
            used: 0,
            peak: 0,
            page_faults: 0,
            page_fault_cycles,
            meter,
        }
    }

    /// Allocates `bytes`; pages beyond capacity charge the paging penalty.
    pub fn alloc(&mut self, bytes: usize) {
        let before_pages_over = self.pages_over_capacity();
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        let after_pages_over = self.pages_over_capacity();
        let new_faults = (after_pages_over - before_pages_over) as u64;
        if new_faults > 0 {
            self.page_faults += new_faults;
            self.meter.add(new_faults * self.page_fault_cycles);
        }
    }

    /// Frees `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if more is freed than was allocated (an accounting bug in the
    /// caller).
    pub fn free(&mut self, bytes: usize) {
        assert!(bytes <= self.used, "EPC accounting underflow");
        self.used -= bytes;
    }

    fn pages_over_capacity(&self) -> usize {
        self.used.saturating_sub(self.capacity).div_ceil(PAGE_SIZE)
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.used
    }

    /// High-water mark.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total paging events so far.
    pub fn page_faults(&self) -> u64 {
        self.page_faults
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_budget_is_free() {
        let meter = CycleMeter::new();
        let mut epc = EpcAllocator::new(1 << 20, 1000, meter.clone());
        epc.alloc(512 * 1024);
        epc.alloc(512 * 1024);
        assert_eq!(epc.page_faults(), 0);
        assert_eq!(meter.read(), 0);
        assert_eq!(epc.used(), 1 << 20);
    }

    #[test]
    fn overflow_charges_paging() {
        let meter = CycleMeter::new();
        let mut epc = EpcAllocator::new(1 << 20, 1000, meter.clone());
        epc.alloc(1 << 20);
        epc.alloc(2 * PAGE_SIZE); // two pages over
        assert_eq!(epc.page_faults(), 2);
        assert_eq!(meter.read(), 2000);
    }

    #[test]
    fn free_then_realloc_faults_again() {
        let meter = CycleMeter::new();
        let mut epc = EpcAllocator::new(PAGE_SIZE, 10, meter.clone());
        epc.alloc(2 * PAGE_SIZE); // 1 page over
        assert_eq!(epc.page_faults(), 1);
        epc.free(PAGE_SIZE);
        epc.alloc(PAGE_SIZE); // over again
        assert_eq!(epc.page_faults(), 2);
        assert_eq!(epc.peak(), 2 * PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "EPC accounting underflow")]
    fn underflow_panics() {
        let mut epc = EpcAllocator::new(PAGE_SIZE, 10, CycleMeter::new());
        epc.free(1);
    }
}
