//! Block-parallel ingest: the machinery behind [`super::parse_reader`].
//!
//! Why it returns what one serial [`super::parse_iter`] pass returns:
//!
//! * Blocks are cut after a `\n`, so every line lies whole in one block,
//!   and a block's `k`th line is the input's line `first + k`, where
//!   `first` counts the lines of all earlier blocks.
//! * Blocks parse serially, with the one parser, until it yields a
//!   record. From then on the parser is settled (see [`LineParser`]):
//!   for every line, a clone returns what the original would return at
//!   that point of the serial pass. Line numbers only reach errors.
//! * So a block that parses without error, with any line numbering, holds
//!   exactly the serial pass's records for its lines. A block that fails
//!   is parsed again, serially and numbered from its true first line,
//!   once every earlier block has been appended: that yields the serial
//!   pass's first error, message included.
//! * Where the input stops short (a read error, or a line that runs a
//!   whole block without a `\n`), the error is the one the serial pass's
//!   bounded line read reports there.
//!
//! Memory: the calling thread reads, allocates every buffer and appends
//! every block, so the record vector grows where a serial pass grows it.
//! (glibc keeps what another thread allocates in that thread's arena,
//! where it stays resident after the parse.) One text and one record
//! buffer per thread, plus one, are allocated up front and reused; when
//! all are in flight the caller waits for the oldest block to land.

use super::{overlong, LineParser, RecordIter, MAX_LINE_BYTES};
use crate::error::{Error, Result};
use crate::record::TraceRecord;
use std::any::Any;
use std::collections::VecDeque;
use std::io::{self, BufRead, Read};
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Input bytes per block (the text of the carried-over line included).
const BLOCK_BYTES: usize = 1 << 20;

/// See [`super::parse_reader`].
pub(super) fn parse_reader<R, P>(reader: R, mut parser: P) -> Result<Vec<TraceRecord>>
where
    R: BufRead,
    P: LineParser + Clone + Send,
{
    let mut feed = Feed {
        reader,
        carry: Vec::new(),
        done: false,
    };
    let mut out = Output::default();
    let mut text = Vec::with_capacity(BLOCK_BYTES);
    let mut serial_bytes = 0;
    while out.records.is_empty() && out.failed.is_none() {
        let Some(block) = feed.next(text) else {
            return out.finish();
        };
        let parsed;
        (parser, parsed) = parse_lines(&block.text, parser, out.lines, &mut out.records);
        out.account(parsed, block.cutoff);
        serial_bytes += block.text.len();
        text = block.text;
    }
    if feed.done || out.failed.is_some() {
        return out.finish();
    }
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    // One buffer pair per thread and one more, sized from the serial
    // blocks with room to spare, all allocated before the records grow
    // further. A block that outgrows its buffer reallocates it.
    let per_block = out.records.len() * BLOCK_BYTES / serial_bytes.max(1) * 5 / 4 + 64;
    out.spare = std::iter::once(text)
        .chain((0..threads).map(|_| Vec::with_capacity(BLOCK_BYTES)))
        .map(|text| (text, Vec::with_capacity(per_block)))
        .collect();
    let parsed = Parsed {
        queue: Mutex::new(Queue {
            next: 0,
            slots: VecDeque::with_capacity(2 * threads),
        }),
        filed: Condvar::new(),
    };
    let handoff = Handoff::default();
    let parser = std::thread::scope(|scope| {
        for _ in 1..threads {
            let mut parser = parser.clone();
            let (handoff, parsed) = (&handoff, &parsed);
            scope.spawn(move || {
                while let Some(job) = handoff.take() {
                    let seq = job.seq;
                    match panic::catch_unwind(AssertUnwindSafe(|| job.parse(parser, parsed))) {
                        Ok(back) => parser = back,
                        // For the calling thread to resume.
                        Err(panic) => return parsed.file(seq, Done::Panicked(panic)),
                    }
                }
            });
        }
        // Lets the parse threads go however this loop ends.
        let _close = Close(&handoff);
        let mut seq = 0;
        loop {
            out.append_ready(&parsed, &parser, false);
            if out.failed.is_some() {
                break;
            }
            // Every buffer in flight: wait for the oldest block to land.
            let Some((text, records)) = out.spare.pop() else {
                out.append_ready(&parsed, &parser, true);
                continue;
            };
            let Some(block) = feed.next(text) else {
                break;
            };
            let job = Job {
                seq,
                block,
                records,
            };
            seq += 1;
            if let Some(job) = handoff.give(job) {
                parser = job.parse(parser, &parsed);
            }
        }
        parser
    });
    out.append_ready(&parsed, &parser, false);
    out.finish()
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // No lock is held across parsing, so none is ever poisoned.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parses every line of `text` with `parser` onto `out`, numbering them
/// from `first_line + 1`: the parser back, and the number of lines in
/// `text` or the first error.
fn parse_lines<P: LineParser>(
    text: &[u8],
    parser: P,
    first_line: u64,
    out: &mut Vec<TraceRecord>,
) -> (P, Result<u64>) {
    let mut iter = RecordIter {
        reader: text,
        parser,
        line: Vec::new(),
        line_no: first_line,
    };
    let parsed = iter
        .by_ref()
        .try_for_each(|rec| rec.map(|rec| out.push(rec)));
    // The read that finds the end of `text` counted one line more.
    let lines = iter.line_no - first_line - 1;
    (iter.parser, parsed.map(|()| lines))
}

/// Hands blocks from the calling thread to parse threads that wait for
/// one. It allocates nothing, so neither do the parse threads.
#[derive(Default)]
struct Handoff {
    state: Mutex<Slot>,
    changed: Condvar,
}

#[derive(Default)]
struct Slot {
    job: Option<Job>,
    /// Parse threads waiting for a job.
    waiting: usize,
    closed: bool,
}

impl Handoff {
    /// Hands `job` to a waiting parse thread, or back if none waits.
    fn give(&self, job: Job) -> Option<Job> {
        let mut slot = lock(&self.state);
        if slot.waiting == 0 || slot.job.is_some() {
            return Some(job);
        }
        slot.job = Some(job);
        self.changed.notify_one();
        None
    }

    /// The next job for a parse thread, `None` once closed.
    fn take(&self) -> Option<Job> {
        let mut slot = lock(&self.state);
        loop {
            if let Some(job) = slot.job.take() {
                return Some(job);
            }
            if slot.closed {
                return None;
            }
            slot.waiting += 1;
            slot = self
                .changed
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
            slot.waiting -= 1;
        }
    }
}

/// Closes a [`Handoff`] when dropped.
struct Close<'a>(&'a Handoff);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        lock(&self.0.state).closed = true;
        self.0.changed.notify_all();
    }
}

/// Block `seq` of the input, with an empty buffer for its records.
struct Job {
    seq: usize,
    block: Block,
    records: Vec<TraceRecord>,
}

impl Job {
    /// Parses the block with a settled `parser`, numbering its lines from
    /// 1, and files the outcome in `parsed`; returns the parser.
    fn parse<P: LineParser>(mut self, parser: P, parsed: &Parsed) -> P {
        let (parser, result) = parse_lines(&self.block.text, parser, 0, &mut self.records);
        let done = Done::Parsed {
            block: self.block,
            records: self.records,
            lines: result.ok(),
        };
        parsed.file(self.seq, done);
        parser
    }
}

/// A run of whole lines of the input, and where the input stopped short
/// right after them, if it did.
struct Block {
    text: Vec<u8>,
    cutoff: Option<Cutoff>,
}

/// Where the input stopped inside a line: the bytes of that line read so
/// far, and the read error that stopped it (none when the line ran a
/// whole block without a `\n`).
struct Cutoff {
    tail: usize,
    err: Option<io::Error>,
}

impl Cutoff {
    /// The serial pass's error for this, the input's line `line_no`: its
    /// bounded line read refuses a line already past [`MAX_LINE_BYTES`]
    /// before it reaches the failed read.
    fn error(self, line_no: u64) -> Error {
        match self.err {
            Some(err) if self.tail <= MAX_LINE_BYTES => Error::Io(err),
            _ => overlong(line_no),
        }
    }
}

/// The reader, cut into [`Block`]s.
struct Feed<R> {
    reader: R,
    /// The start of the line the last block cut off.
    carry: Vec<u8>,
    done: bool,
}

impl<R: BufRead> Feed<R> {
    /// The next block, in `text`'s buffer: the carried-over line start
    /// plus input, up to [`BLOCK_BYTES`] in all, cut after its last `\n`
    /// (whole at the end of the input). `None` once the input is used up
    /// or stopped short.
    fn next(&mut self, mut text: Vec<u8>) -> Option<Block> {
        if self.done {
            return None;
        }
        text.clear();
        text.append(&mut self.carry);
        let want = (BLOCK_BYTES - text.len()) as u64;
        let last_line = |text: &[u8]| {
            text.iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |at| at + 1)
        };
        let cutoff = match (&mut self.reader).take(want).read_to_end(&mut text) {
            Ok(n) if (n as u64) < want => {
                self.done = true;
                None
            }
            Ok(_) => {
                let cut = last_line(&text);
                self.carry.extend_from_slice(&text[cut..]);
                text.truncate(cut);
                if cut > 0 {
                    None
                } else {
                    self.done = true;
                    Some(Cutoff {
                        tail: self.carry.len(),
                        err: None,
                    })
                }
            }
            Err(err) => {
                self.done = true;
                let cut = last_line(&text);
                let tail = text.len() - cut;
                text.truncate(cut);
                Some(Cutoff {
                    tail,
                    err: Some(err),
                })
            }
        };
        Some(Block { text, cutoff })
    }
}

/// A parsed block.
enum Done {
    /// Its records and line count, or `lines: None` if it failed and must
    /// be parsed again with its true numbering.
    Parsed {
        block: Block,
        records: Vec<TraceRecord>,
        lines: Option<u64>,
    },
    /// The parser panicked on it on another thread.
    Panicked(Box<dyn Any + Send>),
}

/// Blocks parsed ahead of their turn, and a signal for each one filed.
struct Parsed {
    queue: Mutex<Queue>,
    filed: Condvar,
}

struct Queue {
    /// The sequence number of `slots`' first entry.
    next: usize,
    slots: VecDeque<Option<Done>>,
}

impl Parsed {
    /// Files block `seq`'s outcome.
    fn file(&self, seq: usize, done: Done) {
        let mut queue = lock(&self.queue);
        let at = seq - queue.next;
        if queue.slots.len() <= at {
            queue.slots.resize_with(at + 1, || None);
        }
        queue.slots[at] = Some(done);
        self.filed.notify_one();
    }
}

/// What the calling thread has appended so far, and its spare buffers.
#[derive(Default)]
struct Output {
    records: Vec<TraceRecord>,
    /// Lines of the input appended so far.
    lines: u64,
    failed: Option<Error>,
    /// The text and record buffers of blocks not in flight.
    spare: Vec<(Vec<u8>, Vec<TraceRecord>)>,
}

impl Output {
    /// Appends every parsed block whose turn has come, in order, and
    /// recycles its buffers; with `wait`, first waits for the next one.
    /// Stops at the first error, and resumes a parse thread's panic.
    fn append_ready<P: LineParser + Clone>(&mut self, parsed: &Parsed, parser: &P, wait: bool) {
        let mut wait = wait;
        while self.failed.is_none() {
            let done = {
                let mut queue = lock(&parsed.queue);
                loop {
                    match queue.slots.front_mut().and_then(Option::take) {
                        Some(done) => break done,
                        None if wait => {
                            queue = parsed
                                .filed
                                .wait(queue)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                        None => return,
                    }
                }
            };
            wait = false;
            {
                let mut queue = lock(&parsed.queue);
                queue.slots.pop_front();
                queue.next += 1;
            }
            let (block, mut records, lines) = match done {
                Done::Parsed {
                    block,
                    records,
                    lines,
                } => (block, records, lines),
                Done::Panicked(panic) => panic::resume_unwind(panic),
            };
            let result = match lines {
                Some(lines) => {
                    self.records.append(&mut records);
                    Ok(lines)
                }
                None => {
                    let first = self.lines;
                    parse_lines(&block.text, parser.clone(), first, &mut self.records).1
                }
            };
            self.account(result, block.cutoff);
            records.clear();
            self.spare.push((block.text, records));
        }
    }

    /// Counts an appended block's lines, or records its error.
    fn account(&mut self, parsed: Result<u64>, cutoff: Option<Cutoff>) {
        match parsed {
            Ok(lines) => {
                self.lines += lines;
                self.failed = cutoff.map(|c| c.error(self.lines + 1));
            }
            Err(e) => self.failed = Some(e),
        }
    }

    fn finish(self) -> Result<Vec<TraceRecord>> {
        match self.failed {
            Some(e) => Err(e),
            None => Ok(self.records),
        }
    }
}
