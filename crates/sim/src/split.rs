//! Split translation groups without a thread of their own.
//!
//! A split group's worker replays the translation and keeps some lanes;
//! its other read lanes (the selective-cache lanes) replay from the plain
//! lane's I/O, which the worker forwards in [`ForwardBlock`]s. Those
//! blocks wait on a matrix-wide [`LaneBoard`], one queue per split group,
//! and whichever worker of the matrix is between blocks of its own cells,
//! or done with them, serves the oldest. A group's lanes serve one block
//! at a time and in order, so they see exactly the I/O sequence they
//! would see inline. When all [`BLOCKS_IN_FLIGHT`] blocks are queued, the
//! group's worker serves its own oldest block rather than wait, so a
//! matrix never runs more replay threads than it has workers and never
//! stalls for want of one.
//!
//! A panic in a lane served by another worker is caught there and resumes
//! on the group's own worker at its next block, or when it closes its
//! queue; a group whose worker dies is closed by its [`OpenQueue`] guard,
//! so no worker waits for it.

use crate::engine::SeekLane;
use smrseek_disk::PhysIo;
use smrseek_obs::{phase, Phase, PhaseTotals};
use smrseek_stl::ReadLane;
use smrseek_trace::Pba;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Blocks a split group keeps in flight between its worker and whoever
/// serves its lanes. It bounds the forwarded I/O's memory and how far the
/// worker runs ahead.
const BLOCKS_IN_FLIGHT: usize = 4;

/// One block's forwarded I/O: the plain lane's physical operations of
/// consecutive records of the trace.
#[derive(Debug, Default)]
pub(crate) struct ForwardBlock {
    ios: Vec<PhysIo>,
    /// The index in the trace of the block's first record.
    first: u64,
    /// Per record, in trace order: the end of its operations in `ios`.
    ends: Vec<usize>,
}

impl ForwardBlock {
    /// Empties the block for records from index `first` on.
    pub(crate) fn start(&mut self, first: u64) {
        self.ios.clear();
        self.ends.clear();
        self.first = first;
    }

    /// Appends the next record's operations.
    pub(crate) fn push(&mut self, ios: &[PhysIo]) {
        self.ios.extend_from_slice(ios);
        self.ends.push(self.ios.len());
    }
}

/// The read lanes a split group replays from forwarded blocks: each with
/// its position in the group and its seek model, plus the phase time of
/// the [sampled](smrseek_obs::phase::sampled) records, unscaled,
/// whichever worker spent it.
pub(crate) struct SplitLanes {
    pub(crate) lanes: Vec<(usize, ReadLane, SeekLane)>,
    pub(crate) phases: PhaseTotals,
    /// Records in the group's trace, which the sample rule reads.
    records: u64,
    /// One read's merged runs, reused across records.
    runs: Vec<(Pba, u64)>,
}

impl SplitLanes {
    /// Lanes of a group replaying a `records`-record trace.
    pub(crate) fn new(lanes: Vec<(usize, ReadLane, SeekLane)>, records: u64) -> Self {
        SplitLanes {
            lanes,
            phases: PhaseTotals::default(),
            records,
            runs: Vec::new(),
        }
    }

    /// Serves every record of `block` in every lane, timing the records
    /// the group's own step times and warming up on the ones it warms up
    /// on: the forwarded records keep their logical index.
    fn replay(&mut self, block: &ForwardBlock) {
        #[cfg(test)]
        fault::point(self);
        let mut start = 0;
        for (i, &end) in (block.first..).zip(&block.ends) {
            let ios = &block.ios[start..end];
            start = end;
            if phase::sampled(i, self.records) {
                self.serve::<true>(i, ios);
            } else if phase::warms_up(i, self.records) {
                let kept = self.phases;
                self.serve::<true>(i, ios);
                self.phases = kept;
            } else {
                self.serve::<false>(i, ios);
            }
        }
    }

    /// Serves record `i`'s forwarded `ios` in every lane, timed when
    /// `TIMED`. A record's forwarded reads are its read's merged runs (the
    /// plain lane emits one read per run), so they go through
    /// [`ReadLane::read_runs`] as one read; its writes are every lane's
    /// writes and pass through in place.
    #[inline]
    fn serve<const TIMED: bool>(&mut self, i: u64, ios: &[PhysIo]) {
        let runs = &mut self.runs;
        let mut mark = TIMED.then(Instant::now);
        for (_, read, seek) in &mut self.lanes {
            seek.ios.clear();
            let out = &mut seek.ios;
            runs.clear();
            for io in ios {
                if io.op.is_read() {
                    runs.push((io.pba, io.sectors));
                    continue;
                }
                read.read_runs(runs, &mut |io| out.push(io));
                runs.clear();
                out.push(*io);
            }
            read.read_runs(runs, &mut |io| out.push(io));
        }
        self.phases.lap(Phase::Lookup, &mut mark);
        for (_, _, seek) in &mut self.lanes {
            seek.observe_ios(i);
        }
        self.phases.lap(Phase::Seek, &mut mark);
    }
}

/// The queues of a matrix's split groups, one per group by slot, served
/// by every worker of the matrix (see the [module docs](self)).
pub(crate) struct LaneBoard {
    state: Mutex<Board>,
    /// Signalled whenever a block is queued or served, a queue closes, or
    /// a lane panics.
    changed: Condvar,
    /// Queues on the board: with none there is never anything to serve,
    /// and the serving calls return without taking the lock.
    slots: usize,
}

struct Board {
    queues: Vec<Queue>,
    /// Queues not closed yet.
    open: usize,
}

#[derive(Default)]
struct Queue {
    /// The group's lanes: `None` before its worker opens the queue, while
    /// a worker serves a block, after a lane panicked, and once closed.
    lanes: Option<SplitLanes>,
    /// Forwarded blocks waiting to be served, oldest first.
    full: VecDeque<ForwardBlock>,
    /// Empty blocks, to be filled: [`BLOCKS_IN_FLIGHT`] at the start.
    free: Vec<ForwardBlock>,
    /// A panic from a lane served on another worker, for the group's own.
    panic: Option<Box<dyn Any + Send>>,
    closed: bool,
}

impl Queue {
    fn ready(&self) -> bool {
        self.lanes.is_some() && !self.full.is_empty()
    }
}

impl LaneBoard {
    /// A board with `slots` queues, each closed once by
    /// [`close`](Self::close) or by its [`OpenQueue`] guard.
    pub(crate) fn new(slots: usize) -> Self {
        LaneBoard {
            state: Mutex::new(Board {
                queues: (0..slots)
                    .map(|_| Queue {
                        free: (0..BLOCKS_IN_FLIGHT)
                            .map(|_| ForwardBlock::default())
                            .collect(),
                        ..Queue::default()
                    })
                    .collect(),
                open: slots,
            }),
            changed: Condvar::new(),
            slots,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Board> {
        // Lane panics are caught before they reach a lock holder, so the
        // board can only be poisoned by a panic that already ends the
        // matrix; its state stays consistent either way.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn wait<'a>(&self, board: MutexGuard<'a, Board>) -> MutexGuard<'a, Board> {
        self.changed
            .wait(board)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A guard that closes queue `slot` when dropped, unless its worker
    /// closed it first: taken before anything of the group runs, so a
    /// group that panics anywhere leaves no worker waiting for it.
    pub(crate) fn guard(&self, slot: usize) -> OpenQueue<'_> {
        OpenQueue { board: self, slot }
    }

    /// Puts the lanes of the group in `slot` on the board.
    pub(crate) fn open(&self, slot: usize, lanes: SplitLanes) {
        self.lock().queues[slot].lanes = Some(lanes);
    }

    /// An empty block for `slot`'s worker to fill: a free one, or else
    /// its queue's oldest, served first on this thread. Waits only while
    /// another worker serves one of the group's blocks.
    ///
    /// # Panics
    ///
    /// Resumes the panic of a lane that another worker served.
    pub(crate) fn take_free(&self, slot: usize) -> ForwardBlock {
        let mut board = self.lock();
        loop {
            board = self.resume_lane_panic(board, slot);
            let q = &mut board.queues[slot];
            if let Some(block) = q.free.pop() {
                return block;
            }
            board = if q.ready() {
                self.serve_oldest(board, slot)
            } else {
                self.wait(board)
            };
        }
    }

    /// Queues a filled block of `slot`.
    pub(crate) fn push(&self, slot: usize, block: ForwardBlock) {
        self.lock().queues[slot].full.push_back(block);
        self.changed.notify_all();
    }

    /// Serves what is left of `slot`'s queue, on this thread or by waiting
    /// for the worker serving it, then closes the queue and returns the
    /// group's lanes.
    ///
    /// # Panics
    ///
    /// Resumes the panic of a lane that another worker served.
    pub(crate) fn close(&self, slot: usize) -> SplitLanes {
        let mut board = self.lock();
        loop {
            board = self.resume_lane_panic(board, slot);
            let q = &mut board.queues[slot];
            if q.full.is_empty() {
                if let Some(lanes) = q.lanes.take() {
                    Self::retire(&mut board, slot);
                    self.changed.notify_all();
                    return lanes;
                }
            }
            board = if q.ready() {
                self.serve_oldest(board, slot)
            } else {
                self.wait(board)
            };
        }
    }

    /// Serves other groups' queued blocks until none is ready, skipping
    /// `own` (the caller's group, if it is split); returns the time spent.
    pub(crate) fn serve_others(&self, own: Option<usize>) -> Duration {
        if self.slots == 0 {
            return Duration::ZERO;
        }
        let start = Instant::now();
        let mut board = self.lock();
        let mut served = false;
        while let Some(slot) = Self::ready_slot(&board, own) {
            board = self.serve_oldest(board, slot);
            served = true;
        }
        drop(board);
        if served {
            start.elapsed()
        } else {
            Duration::ZERO
        }
    }

    /// For a worker out of cells: serves queued blocks, waiting for more,
    /// until every queue has closed.
    pub(crate) fn serve_until_closed(&self) {
        if self.slots == 0 {
            return;
        }
        let mut board = self.lock();
        while board.open > 0 {
            board = match Self::ready_slot(&board, None) {
                Some(slot) => self.serve_oldest(board, slot),
                None => self.wait(board),
            };
        }
    }

    fn ready_slot(board: &Board, skip: Option<usize>) -> Option<usize> {
        (0..board.queues.len()).find(|&slot| Some(slot) != skip && board.queues[slot].ready())
    }

    /// Serves `slot`'s oldest block with its lanes taken out from under
    /// the lock, then files both back (or the lane's panic, for the
    /// group's worker).
    fn serve_oldest<'a>(
        &'a self,
        mut board: MutexGuard<'a, Board>,
        slot: usize,
    ) -> MutexGuard<'a, Board> {
        let q = &mut board.queues[slot];
        let (Some(mut lanes), Some(block)) = (q.lanes.take(), q.full.pop_front()) else {
            unreachable!("only a ready queue is served");
        };
        drop(board);
        let served = panic::catch_unwind(AssertUnwindSafe(|| lanes.replay(&block)));
        let mut board = self.lock();
        let q = &mut board.queues[slot];
        match served {
            Ok(()) if !q.closed => {
                q.lanes = Some(lanes);
                q.free.push(block);
            }
            Ok(()) => {}
            Err(panic) => q.panic = Some(panic),
        }
        self.changed.notify_all();
        board
    }

    /// Resumes, on `slot`'s own worker, the panic of a lane another worker
    /// served; otherwise hands the lock back.
    fn resume_lane_panic<'a>(
        &self,
        mut board: MutexGuard<'a, Board>,
        slot: usize,
    ) -> MutexGuard<'a, Board> {
        if let Some(panic) = board.queues[slot].panic.take() {
            drop(board);
            panic::resume_unwind(panic);
        }
        board
    }

    /// Marks `slot` closed and drops what it still holds.
    fn retire(board: &mut Board, slot: usize) {
        let q = &mut board.queues[slot];
        if !q.closed {
            *q = Queue {
                closed: true,
                ..Queue::default()
            };
            board.open -= 1;
        }
    }
}

/// Closes a split group's queue when dropped (see [`LaneBoard::guard`]).
pub(crate) struct OpenQueue<'a> {
    board: &'a LaneBoard,
    slot: usize,
}

impl Drop for OpenQueue<'_> {
    fn drop(&mut self) {
        LaneBoard::retire(&mut self.board.lock(), self.slot);
        self.board.changed.notify_all();
    }
}

/// A lane fault for tests of panics in served lanes.
#[cfg(test)]
pub(crate) mod fault {
    use super::SplitLanes;

    /// A long-seek bucket width no real configuration uses: a served lane
    /// configured with it panics, so tests can fault a lane that another
    /// worker serves.
    pub(crate) const FAULT_BUCKET_OPS: u64 = 0xFA17;

    pub(super) fn point(lanes: &SplitLanes) {
        if lanes
            .lanes
            .iter()
            .any(|(_, _, seek)| seek.bucket_ops() == Some(FAULT_BUCKET_OPS))
        {
            panic!("injected lane fault");
        }
    }
}
