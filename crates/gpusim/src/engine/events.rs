//! The engine's event heap: warp wake-ups ordered by time, oldest warp
//! first on ties.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One scheduled warp wake-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// Cycle at which the warp is ready to issue its next phase.
    pub time: u64,
    /// Warp age: ties broken oldest-first (greedy-then-oldest flavour).
    pub warp_id: u64,
    /// Which SM the warp lives on.
    pub sm: usize,
    /// Index into the SM's warp-slot table.
    pub slot: usize,
}

impl Ord for Event {
    /// The engine's documented total order: **(time, warp age, SM,
    /// slot)**, where the age is the warp's launch order (`warp_id`). This
    /// is a total order over every event the engine can ever schedule — two
    /// live events never compare equal, because a warp occupies one slot at
    /// a time — so pop order can never depend on heap-insertion
    /// incidentals. Spelled out (rather than derived) because the golden
    /// statistics depend on exactly this field order.
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.warp_id, self.sm, self.slot).cmp(&(
            other.time,
            other.warp_id,
            other.sm,
            other.slot,
        ))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of [`Event`]s. Pop order is the engine's global time order and
/// the sole source of scheduling nondeterminism — which is why [`Event`]'s
/// explicit `Ord` defines the full (time, warp age, SM, slot) total order
/// rather than stopping at `time`.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Schedules a wake-up.
    pub(crate) fn push(&mut self, ev: Event) {
        self.heap.push(Reverse(ev));
    }

    /// Removes and returns the earliest event, if any.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, warp_id: u64) -> Event {
        Event {
            time,
            warp_id,
            sm: 0,
            slot: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(ev(30, 0));
        q.push(ev(10, 1));
        q.push(ev(20, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_oldest_warp_first() {
        let mut q = EventQueue::new();
        q.push(ev(5, 7));
        q.push(ev(5, 2));
        q.push(ev(5, 4));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.warp_id).collect();
        assert_eq!(order, vec![2, 4, 7]);
    }

    #[test]
    fn empty_queue_pops_none() {
        assert_eq!(EventQueue::new().pop(), None);
    }

    #[test]
    fn order_is_time_then_warp_age_then_sm_then_slot() {
        let e = |time, warp_id, sm, slot| Event {
            time,
            warp_id,
            sm,
            slot,
        };
        // Each successive event differs in exactly one field of the
        // documented (time, warp age, SM, slot) order.
        let ordered = [
            e(1, 9, 9, 9),
            e(2, 0, 9, 9),
            e(2, 1, 0, 9),
            e(2, 1, 1, 0),
            e(2, 1, 1, 1),
        ];
        for pair in ordered.windows(2) {
            assert!(pair[0] < pair[1], "{pair:?} must be strictly increasing");
        }
        // Insertion order must not leak into pop order.
        let mut q = EventQueue::new();
        for ev in ordered.iter().rev() {
            q.push(*ev);
        }
        let popped: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, ordered);
    }
}
