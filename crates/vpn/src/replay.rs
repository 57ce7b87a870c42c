//! Sliding-window replay protection, modelled after OpenVPN's packet-id
//! tracking (the defence cited in §V-A against traffic replay).

/// Window size in packets.
pub const WINDOW: u64 = 64;

/// A 64-packet sliding window over monotonically increasing packet ids.
#[derive(Debug, Clone, Default)]
pub struct ReplayWindow {
    /// Highest id accepted so far (0 = none yet).
    highest: u64,
    /// Bit `i` set = packet `highest - i` seen.
    mask: u64,
}

impl ReplayWindow {
    /// Fresh window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts or rejects packet `id` (ids start at 1), updating state on
    /// acceptance.
    pub fn accept(&mut self, id: u64) -> bool {
        if id == 0 {
            return false;
        }
        if id > self.highest {
            let shift = id - self.highest;
            self.mask = if shift >= WINDOW {
                0
            } else {
                self.mask << shift
            };
            self.mask |= 1; // bit 0 = current highest
            self.highest = id;
            return true;
        }
        let offset = self.highest - id;
        if offset >= WINDOW {
            return false; // too old
        }
        let bit = 1u64 << offset;
        if self.mask & bit != 0 {
            return false; // replay
        }
        self.mask |= bit;
        true
    }

    /// Highest id accepted.
    pub fn highest(&self) -> u64 {
        self.highest
    }

    /// True while no packet has ever been accepted — the session carries
    /// no anti-replay state yet, so its server-side state can move
    /// between owners without dragging an in-flight window along. The
    /// dispatcher's work-stealing pass uses exactly this predicate to
    /// pick steal-safe sessions (`crate::shard`, *The dispatch law*).
    pub fn is_empty(&self) -> bool {
        self.highest == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn monotonic_ids_accepted_once() {
        let mut w = ReplayWindow::new();
        for id in 1..=100 {
            assert!(w.accept(id), "first {id}");
            assert!(!w.accept(id), "replay {id}");
        }
    }

    #[test]
    fn out_of_order_within_window() {
        let mut w = ReplayWindow::new();
        assert!(w.accept(10));
        assert!(w.accept(5)); // late but in window
        assert!(!w.accept(5)); // replay
        assert!(w.accept(11));
        assert!(w.accept(6));
    }

    #[test]
    fn too_old_rejected() {
        let mut w = ReplayWindow::new();
        assert!(w.accept(100));
        assert!(!w.accept(100 - WINDOW), "outside window");
        assert!(w.accept(100 - WINDOW + 1), "just inside window");
    }

    #[test]
    fn zero_id_rejected() {
        let mut w = ReplayWindow::new();
        assert!(!w.accept(0));
    }

    #[test]
    fn emptiness_tracks_first_acceptance() {
        let mut w = ReplayWindow::new();
        assert!(w.is_empty(), "fresh window is empty");
        assert!(!w.accept(0));
        assert!(w.is_empty(), "rejected ids leave no state");
        assert!(w.accept(3));
        assert!(!w.is_empty(), "any accepted id pins the window");
    }

    #[test]
    fn big_jump_clears_window() {
        let mut w = ReplayWindow::new();
        assert!(w.accept(1));
        assert!(w.accept(1000));
        assert!(w.accept(999)); // new window position, unseen
        assert!(!w.accept(1)); // ancient
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The window must never accept the same id twice, and must accept
        /// every fresh id within WINDOW of the running maximum.
        #[test]
        fn never_accepts_duplicates(ids in prop::collection::vec(1u64..2000, 1..300)) {
            let mut w = ReplayWindow::new();
            let mut accepted = HashSet::new();
            for &id in &ids {
                let fresh = !accepted.contains(&id);
                let in_window = id + WINDOW > w.highest();
                let got = w.accept(id);
                if got {
                    prop_assert!(fresh, "accepted duplicate {id}");
                    accepted.insert(id);
                } else {
                    prop_assert!(!fresh || !in_window, "rejected fresh in-window {id}");
                }
            }
        }
    }
}
