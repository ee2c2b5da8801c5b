//! The scheduler's backlog: a FIFO of fixed-size blocks.
//!
//! A contiguous ring copies its whole backlog each time it grows, and
//! where those copies land (fresh mmapped pages or the brk heap) depends
//! on the allocator's history. Here entries sit in blocks of [`BLOCK`]:
//! growth appends a block and never moves a queued entry, and blocks
//! emptied from either end are recycled.

use std::fmt;
use std::ops::Range;

/// Entries per block. The scheduler's 40-byte entries make a block
/// 10 KiB, no larger than a contiguous ring grows to for a few hundred
/// jobs. Every row scheduler with work holds a block, so larger blocks
/// raise a hyperscale fleet's peak memory.
const BLOCK: usize = 256;

/// A FIFO of `Copy` entries in fixed-size blocks, indexed from the front.
///
/// Entry `i` sits at position `head + i` counted from the start of the
/// first block, so every block but the last is full and the first
/// block's entries before `head` are already removed. An empty queue
/// holds no block and has `head == 0`.
pub(crate) struct BlockQueue<T> {
    blocks: Vec<Vec<T>>,
    head: usize,
    len: usize,
    /// One emptied block kept for the next growth, so a queue that
    /// drains and refills every round does not allocate.
    spare: Option<Vec<T>>,
}

impl<T: Copy> BlockQueue<T> {
    pub(crate) fn new() -> Self {
        Self {
            blocks: Vec::new(),
            head: 0,
            len: 0,
            spare: None,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends `values` in order, filling the last block before starting
    /// the next.
    pub(crate) fn extend(&mut self, values: impl IntoIterator<Item = T>) {
        let mut values = values.into_iter();
        loop {
            let last = match self.blocks.last_mut() {
                Some(last) if last.len() < BLOCK => last,
                _ => match values.next() {
                    Some(value) => {
                        self.push_block(value);
                        self.len += 1;
                        continue;
                    }
                    None => return,
                },
            };
            let (before, room) = (last.len(), BLOCK - last.len());
            last.extend(values.by_ref().take(room));
            let added = last.len() - before;
            self.len += added;
            if added < room {
                return;
            }
        }
    }

    /// Starts a new last block with `value`, once in [`BLOCK`] pushes.
    #[cold]
    fn push_block(&mut self, value: T) {
        let mut block = self
            .spare
            .take()
            .unwrap_or_else(|| Vec::with_capacity(BLOCK));
        block.push(value);
        self.blocks.push(block);
    }

    /// Entry `i`; panics unless `i < len`.
    pub(crate) fn get(&self, i: usize) -> T {
        let p = self.head + i;
        self.blocks[p / BLOCK][p % BLOCK]
    }

    /// Overwrites entry `i`; panics unless `i < len`.
    pub(crate) fn set(&mut self, i: usize, value: T) {
        let p = self.head + i;
        self.blocks[p / BLOCK][p % BLOCK] = value;
    }

    /// Removes the entries in `range`, keeping the order of the rest.
    /// Like `VecDeque::drain`, it moves whichever side of the gap is
    /// shorter: the entries before it on a deep backlog whose window
    /// ended early, the entries after it when the walk reached the end.
    pub(crate) fn remove_range(&mut self, range: Range<usize>) {
        let Range { start, end } = range;
        assert!(
            start <= end && end <= self.len,
            "range {start}..{end} out of bounds for length {}",
            self.len
        );
        let gap = end - start;
        if gap == 0 {
            return;
        }
        if gap == self.len {
            self.clear();
        } else if start <= self.len - end {
            for i in (0..start).rev() {
                self.set(i + gap, self.get(i));
            }
            self.head += gap;
            self.len -= gap;
            let emptied = self.head / BLOCK;
            self.head %= BLOCK;
            for block in self.blocks.drain(..emptied) {
                Self::recycle(&mut self.spare, block);
            }
        } else {
            for i in end..self.len {
                self.set(i - gap, self.get(i));
            }
            self.len -= gap;
            let filled = self.head + self.len;
            let blocks = filled.div_ceil(BLOCK);
            for block in self.blocks.drain(blocks..) {
                Self::recycle(&mut self.spare, block);
            }
            let last = self
                .blocks
                .last_mut()
                .expect("a non-empty queue has a block");
            last.truncate(filled - (blocks - 1) * BLOCK);
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.blocks.iter().flatten().skip(self.head)
    }

    fn clear(&mut self) {
        for block in self.blocks.drain(..) {
            Self::recycle(&mut self.spare, block);
        }
        self.head = 0;
        self.len = 0;
    }

    fn recycle(spare: &mut Option<Vec<T>>, mut block: Vec<T>) {
        if spare.is_none() {
            block.clear();
            *spare = Some(block);
        }
    }
}

impl<T: Copy + PartialEq> PartialEq for BlockQueue<T> {
    /// Equal contents in order, wherever the blocks begin.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for BlockQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_sim::{derive_stream, SimRng};
    use std::collections::VecDeque;

    /// The block queue and a `VecDeque` holding the same entries.
    struct Model {
        queue: BlockQueue<u64>,
        reference: VecDeque<u64>,
        next: u64,
    }

    impl Model {
        fn new() -> Self {
            Self {
                queue: BlockQueue::new(),
                reference: VecDeque::new(),
                next: 0,
            }
        }

        /// Appends `n` fresh entries, as one batch when `n` is even and
        /// from an iterator of unknown length when it is odd.
        fn push(&mut self, n: usize) {
            let batch = self.next + 1..self.next + 1 + n as u64;
            self.next += n as u64;
            if n.is_multiple_of(2) {
                self.queue.extend(batch.clone());
            } else {
                self.queue.extend(batch.clone().filter(|_| true));
            }
            self.reference.extend(batch);
            self.check();
        }

        fn set(&mut self, i: usize) {
            self.next += 1;
            self.queue.set(i, self.next);
            self.reference[i] = self.next;
            self.check();
        }

        fn remove(&mut self, range: Range<usize>) {
            self.queue.remove_range(range.clone());
            self.reference.drain(range);
            self.check();
        }

        /// Same length and entries, read both by index and by iterator,
        /// and the block layout the type documents.
        fn check(&self) {
            let q = &self.queue;
            assert_eq!(q.len(), self.reference.len());
            assert!(q.iter().eq(self.reference.iter()));
            for (i, &v) in self.reference.iter().enumerate() {
                assert_eq!(q.get(i), v, "entry {i}");
            }
            assert!(q.head < BLOCK);
            assert_eq!(q.blocks.len(), (q.head + q.len).div_ceil(BLOCK));
            if q.len == 0 {
                assert_eq!(q.head, 0);
            }
            let n = q.blocks.len();
            for (k, block) in q.blocks.iter().enumerate() {
                assert_eq!(block.capacity(), BLOCK, "block {k}");
                if k + 1 < n {
                    assert_eq!(block.len(), BLOCK, "block {k} of {n}");
                }
            }
        }
    }

    /// A queue holding `len` entries whose first one sits `head` places
    /// into its block.
    fn model_at(head: usize, len: usize) -> Model {
        let mut m = Model::new();
        m.push(head + len);
        m.remove(0..head);
        assert_eq!(m.queue.head, if len == 0 { 0 } else { head });
        m
    }

    const EDGES: [usize; 9] = [0, 1, 255, 256, 257, 511, 512, 513, 768];

    #[test]
    fn removals_at_block_boundaries_match_the_reference() {
        for head in [0, 1, 255] {
            for len in EDGES {
                let mut cuts: Vec<Range<usize>> = vec![0..0, 0..len, len..len];
                for &k in EDGES.iter().filter(|&&k| k <= len) {
                    cuts.extend([0..k, k..len, k / 2..k, k..(k + len) / 2]);
                }
                for cut in cuts {
                    let mut m = model_at(head, len);
                    m.remove(cut.clone());
                    // The queue keeps working after the removal.
                    m.push(BLOCK + 1);
                    if m.reference.len() > 3 {
                        m.set(m.reference.len() / 2);
                        m.remove(1..3);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_queue_refills_from_its_spare_block() {
        let mut m = Model::new();
        for len in EDGES {
            m.push(len);
            m.remove(0..len);
            assert!(m.queue.blocks.is_empty());
        }
        // A queue that drains and refills reuses its one spare block.
        m.push(10);
        let spare = m.queue.blocks[0].as_ptr();
        m.remove(0..10);
        m.push(3);
        assert_eq!(m.queue.blocks[0].as_ptr(), spare);
        m.remove(0..3);
        m.push(2 * BLOCK);
        m.remove(BLOCK..2 * BLOCK);
        m.remove(0..BLOCK);
        assert!(m.queue.spare.is_some());
    }

    /// Seeded random sequences of pushes, sets and removals from the
    /// head side, the tail side and the middle.
    #[test]
    fn random_sequences_match_the_reference() {
        for seed in 0..40 {
            let mut rng: SimRng = derive_stream(seed, 1);
            let mut m = Model::new();
            for _ in 0..200 {
                let len = m.reference.len();
                match rng.gen_range(0..6u64) {
                    0 | 1 => {
                        let n = rng.gen_range(0..700u64) as usize;
                        m.push(n);
                    }
                    2 if len > 0 => {
                        let i = rng.gen_range(0..len as u64) as usize;
                        m.set(i);
                    }
                    3 => {
                        // A dispatch window that ended early: the gap
                        // starts near the front of a long queue.
                        let end = rng.gen_range(0..len as u64 + 1) as usize;
                        let start = rng.gen_range(0..end as u64 / 4 + 1) as usize;
                        m.remove(start..end);
                    }
                    4 => {
                        // A window that reached the end of the queue.
                        let start = rng.gen_range(0..len as u64 + 1) as usize;
                        m.remove(start..len);
                    }
                    _ => {
                        let a = rng.gen_range(0..len as u64 + 1) as usize;
                        let b = rng.gen_range(0..len as u64 + 1) as usize;
                        m.remove(a.min(b)..a.max(b));
                    }
                }
            }
        }
    }

    #[test]
    fn equality_ignores_block_offsets() {
        let mut a = BlockQueue::new();
        let mut b = BlockQueue::new();
        b.extend([u64::MAX; 255]);
        a.extend(0..300);
        b.extend(0..300);
        b.remove_range(0..255);
        assert_ne!(a.head, b.head);
        assert_eq!(a, b);
        b.set(7, 0);
        assert_ne!(a, b);
    }
}
