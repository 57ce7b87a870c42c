//! One owner pool under both pipeline stages.
//!
//! The RX framing shards (`endbox::server::RxShardPool`) and the session
//! workers ([`crate::shard::ShardedVpnServer`]) are the same machine: N
//! threads that each **own** a partition of state, one request channel
//! per thread (per-thread FIFO), one reply channel shared by all of them,
//! and a front-end that is the only caller. [`OwnerPool`] is that machine
//! written once: it owns the senders, the reply channel, the join
//! handles and the thread body, so a stage is its request/reply protocol
//! and its loop — not its plumbing.
//!
//! # Thread lifetime
//!
//! A thread body is a loop `while let Ok(request) = requests.recv()`.
//! The pool retires a thread by dropping its request sender and joining
//! it ([`OwnerPool::shrink`], and every thread on drop): the loop drains
//! what was already queued, sees the disconnect and returns. There is no
//! shutdown request to forget to handle.
//!
//! # Thread death
//!
//! Every body runs under `catch_unwind`. A panicking thread reports its
//! index through the reply channel, and the next [`OwnerPool::recv`]
//! panics with the stage name and that index; a [`OwnerPool::send`] to
//! the dead thread panics the same way. The pool keeps a reply sender of
//! its own (new threads need one), so without the report a caller
//! waiting for the dead thread's reply would block forever instead of
//! failing loudly.
//!
//! Both channels are unbounded — the only two such sites in the
//! datapath; bounding them is a change to this file.

use crossbeam::channel::{Receiver, UnboundedSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The reply half a thread body is given.
pub struct Replies<Reply>(UnboundedSender<Result<Reply, usize>>);

impl<Reply> Replies<Reply> {
    /// Hands `reply` to the front-end. The pool outlives its threads, so
    /// the channel is open for as long as a body runs.
    pub fn send(&self, reply: Reply) {
        let _ = self.0.send(Ok(reply));
    }
}

type Body<Req, Reply> = dyn Fn(usize, Receiver<Req>, Replies<Reply>) + Send + Sync;

/// N owner threads behind per-thread request channels and one shared
/// reply channel. See the module docs.
pub struct OwnerPool<Req, Reply> {
    stage: &'static str,
    body: Arc<Body<Req, Reply>>,
    requests: Vec<UnboundedSender<Req>>,
    joins: Vec<JoinHandle<()>>,
    reply_tx: UnboundedSender<Result<Reply, usize>>,
    replies: Receiver<Result<Reply, usize>>,
}

impl<Req: Send + 'static, Reply: Send + 'static> OwnerPool<Req, Reply> {
    /// A pool of `threads` threads named `{stage}-{index}`, each running
    /// `body(index, its request channel, the reply channel)`.
    pub fn new(
        stage: &'static str,
        threads: usize,
        body: impl Fn(usize, Receiver<Req>, Replies<Reply>) + Send + Sync + 'static,
    ) -> Self {
        let (reply_tx, replies) = crossbeam::channel::unbounded();
        let mut pool = OwnerPool {
            stage,
            body: Arc::new(body),
            requests: Vec::with_capacity(threads),
            joins: Vec::with_capacity(threads),
            reply_tx,
            replies,
        };
        pool.grow(threads);
        pool
    }

    /// Number of live threads.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the pool has no threads.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Spawns `n` more threads, taking the next `n` indices.
    pub fn grow(&mut self, n: usize) {
        for index in self.len()..self.len() + n {
            let (tx, rx) = crossbeam::channel::unbounded();
            let (body, reply_tx) = (self.body.clone(), self.reply_tx.clone());
            let join = std::thread::Builder::new()
                .name(format!("{}-{index}", self.stage))
                .spawn(move || {
                    let replies = Replies(reply_tx.clone());
                    let run = std::panic::AssertUnwindSafe(|| body(index, rx, replies));
                    if std::panic::catch_unwind(run).is_err() {
                        let _ = reply_tx.send(Err(index));
                    }
                })
                .expect("spawn pool thread");
            self.requests.push(tx);
            self.joins.push(join);
        }
    }

    /// Retires the last `n` threads: each finishes the requests already
    /// queued to it, then exits and is joined. Their state is dropped
    /// with them — relocate it first.
    pub fn shrink(&mut self, n: usize) {
        let keep = self.len().saturating_sub(n);
        self.requests.truncate(keep);
        for join in self.joins.drain(keep..) {
            // A body that panicked has already reported itself through
            // the reply channel.
            let _ = join.join();
        }
    }

    /// Queues `request` to thread `index`.
    ///
    /// # Panics
    ///
    /// If that thread has died.
    pub fn send(&self, index: usize, request: Req) {
        if self.requests[index].send(request).is_err() {
            panic!("{} thread {index} died", self.stage);
        }
    }

    /// Blocks for the next reply from any thread.
    ///
    /// # Panics
    ///
    /// If a thread has died since the last call.
    pub fn recv(&self) -> Reply {
        match self.replies.recv().expect("the pool holds a reply sender") {
            Ok(reply) => reply,
            Err(index) => panic!("{} thread {index} died", self.stage),
        }
    }

    /// [`OwnerPool::send`] then [`OwnerPool::recv`]: one blocking
    /// round-trip, for callers with nothing else in flight.
    pub fn round_trip(&self, index: usize, request: Req) -> Reply {
        self.send(index, request);
        self.recv()
    }
}

impl<Req, Reply> Drop for OwnerPool<Req, Reply> {
    fn drop(&mut self) {
        self.requests.clear();
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}

/// Runs `f` on its own thread and returns the message it panicked with.
/// Fails the calling test if `f` has neither panicked nor returned after
/// ten seconds — a caller left blocked is the bug these tests exist for.
#[cfg(test)]
pub(crate) fn panic_message_of(f: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
    });
    let payload = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the call neither returned nor panicked: a caller is blocked")
        .expect_err("the call returned instead of panicking");
    *payload
        .downcast::<String>()
        .expect("a formatted panic message")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes each request; thread 1 panics on its second.
    fn echo_pool() -> OwnerPool<u32, (usize, u32)> {
        OwnerPool::new("echo", 3, |index, requests, replies| {
            let mut seen = 0;
            while let Ok(request) = requests.recv() {
                seen += 1;
                assert!(index != 1 || seen < 2, "injected death");
                replies.send((index, request));
            }
        })
    }

    #[test]
    fn replies_are_per_thread_fifo_and_resize_keeps_indices() {
        let mut pool = echo_pool();
        for request in 0..4 {
            pool.send(2, request);
        }
        let got: Vec<_> = (0..4).map(|_| pool.recv()).collect();
        assert_eq!(got, vec![(2, 0), (2, 1), (2, 2), (2, 3)]);
        pool.shrink(2);
        assert_eq!(pool.len(), 1);
        pool.grow(3);
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.round_trip(3, 9), (3, 9));
    }

    #[test]
    fn shrink_lets_the_retiring_thread_finish_its_queue() {
        let mut pool = echo_pool();
        for request in 0..50 {
            pool.send(2, request);
        }
        pool.shrink(1);
        let got: Vec<_> = (0..50).map(|_| pool.recv().1).collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn dead_thread_fails_recv_loudly_and_drop_still_joins() {
        let message = panic_message_of(|| {
            let pool = echo_pool();
            assert_eq!(pool.round_trip(1, 7), (1, 7));
            // Siblings hold the reply channel open, and so does the pool:
            // only the death report can end this wait.
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.round_trip(1, 8);
            }));
            // Joins the dead thread and its two live siblings.
            drop(pool);
            std::panic::resume_unwind(died.expect_err("recv returned without thread 1's reply"));
        });
        assert_eq!(message, "echo thread 1 died");
    }

    #[test]
    fn send_to_a_dead_thread_fails_loudly() {
        let pool = echo_pool();
        pool.send(1, 0);
        pool.send(1, 1);
        assert_eq!(pool.recv(), (1, 0));
        let message = panic_message_of(move || {
            // The report is queued once the body has unwound; from then
            // on the thread's request channel is closed as well.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.recv()));
            pool.send(1, 2);
        });
        assert_eq!(message, "echo thread 1 died");
    }
}
