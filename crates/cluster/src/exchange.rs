//! Deterministic cross-shard message exchange.
//!
//! Shards run their cells independently within an epoch and only talk to each
//! other at epoch barriers (conservative parallel DES with the epoch as the
//! lookahead window). Each cell emits [`Envelope`]s into its shard's outbox;
//! at the barrier every outbox is poured into an [`Exchange`], which sorts
//! the union by the total key `(dst, at, src, seq)` before delivery.
//!
//! That sort is the same key-sorted, order-independent merge discipline the
//! parallel experiment engine uses for unit outputs (DESIGN.md §8): whatever
//! order shards finish the epoch in — and however cells are grouped into
//! shards — the delivered stream per destination cell is identical. Combined
//! with per-cell RNG streams and per-cell telemetry sinks, this is what makes
//! fleet results bit-identical at any shard count and thread count.

use dlrover_sim::SimTime;

/// A message in flight between two cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Envelope<M> {
    /// Delivery time (clamped up to the epoch barrier by the router — the
    /// barrier is the lookahead that keeps cross-shard delivery causal).
    pub at: SimTime,
    /// Sending cell.
    pub src: u32,
    /// Receiving cell.
    pub dst: u32,
    /// Per-sender monotone sequence number; the final tie-breaker that makes
    /// the delivery order a total order.
    pub seq: u64,
    /// Payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// The total delivery-order key.
    fn key(&self) -> (u32, SimTime, u32, u64) {
        (self.dst, self.at, self.src, self.seq)
    }
}

/// Collects per-shard outboxes and replays them in a canonical order.
#[derive(Debug, Clone)]
pub(crate) struct Exchange<M> {
    inbox: Vec<Envelope<M>>,
}

impl<M> Default for Exchange<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Exchange<M> {
    /// Creates an empty exchange.
    pub(crate) fn new() -> Self {
        Exchange { inbox: Vec::new() }
    }

    /// Absorbs one shard's outbox (any production order).
    pub(crate) fn collect(&mut self, outbox: Vec<Envelope<M>>) {
        self.inbox.extend(outbox);
    }

    /// Drains all envelopes in canonical `(dst, at, src, seq)` order.
    ///
    /// The result is independent of the order outboxes were collected in and
    /// of the order envelopes were produced within a shard — duplicate keys
    /// cannot occur because `seq` is monotone per sender.
    pub(crate) fn drain_sorted(&mut self) -> Vec<Envelope<M>> {
        let mut pending = std::mem::take(&mut self.inbox);
        pending.sort_unstable_by_key(|e| e.key());
        pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(dst: u32, at_us: u64, src: u32, seq: u64) -> Envelope<&'static str> {
        Envelope { at: SimTime::from_micros(at_us), src, dst, seq, msg: "m" }
    }

    #[test]
    fn drain_is_order_independent() {
        let batch_a = vec![env(1, 50, 0, 3), env(0, 10, 2, 0), env(1, 50, 0, 2)];
        let batch_b = vec![env(0, 10, 1, 5), env(2, 5, 0, 1)];

        let mut forward = Exchange::new();
        forward.collect(batch_a.clone());
        forward.collect(batch_b.clone());

        let mut reverse = Exchange::new();
        reverse.collect(batch_b);
        reverse.collect(batch_a);

        let f = forward.drain_sorted();
        let r = reverse.drain_sorted();
        assert_eq!(f, r);
        assert!(forward.inbox.is_empty(), "a drain delivers each envelope once");
        let keys: Vec<(u32, u64, u32, u64)> =
            f.iter().map(|e| (e.dst, e.at.as_micros(), e.src, e.seq)).collect();
        assert_eq!(
            keys,
            vec![(0, 10, 1, 5), (0, 10, 2, 0), (1, 50, 0, 2), (1, 50, 0, 3), (2, 5, 0, 1)]
        );
    }
}
