//! A bump arena for memory that is freed all at once.
//!
//! The skip list's nodes live until the list drops (`skiplist.rs`), so
//! none needs freeing on its own: the arena hands out slices of fixed-size
//! blocks and frees only the blocks, when it drops. A delta of N keys is
//! then N / (nodes a block) allocations and as many frees, not N of each,
//! and the allocator gets back whole 64 KiB chunks instead of a heap
//! scattered with small ones that it would consolidate later, at the
//! expense of whichever thread next asked it for a large chunk.
//!
//! The arena never runs a destructor: whoever places a value in it drops
//! that value in place before the arena goes.

use parking_lot::Mutex;
use std::alloc::{self, Layout};
use std::ptr::NonNull;

/// The size of a block. A request larger than this gets a block of its
/// own. At 64 KiB a block is below glibc's mmap threshold, so it comes
/// from the heap, and large enough that freeing it makes glibc consolidate
/// the small chunks freed before it (the dropped keys and values) there
/// and then, on the dropping thread, not on the next thread that asks for
/// a large chunk (DESIGN.md § "What a row costs").
pub(crate) const BLOCK_BYTES: usize = 64 * 1024;

/// The alignment of a block; a request aligned more strictly gets a block
/// of its own.
const BLOCK_ALIGN: usize = 16;

/// Bump-allocated memory, freed block by block when the arena drops.
pub(crate) struct Arena {
    bump: Mutex<Bump>,
}

/// The block being filled, and every block handed out so far.
struct Bump {
    /// The current block's next free byte (null before the first block).
    next: *mut u8,
    /// The bytes left in the current block from `next` on.
    left: usize,
    blocks: Vec<(NonNull<u8>, Layout)>,
}

// SAFETY: the blocks are owned by the arena and its pointers into them are
// read only under its mutex (handing out slices) or in `Drop` (exclusive
// access).
unsafe impl Send for Bump {}

impl Arena {
    /// An arena that holds no block until its first allocation.
    pub(crate) fn new() -> Self {
        Arena {
            bump: Mutex::new(Bump {
                next: std::ptr::null_mut(),
                left: 0,
                blocks: Vec::new(),
            }),
        }
    }

    /// Uninitialised memory for `layout`, valid until the arena drops.
    /// It is never freed on its own.
    pub(crate) fn alloc(&self, layout: Layout) -> NonNull<u8> {
        assert!(layout.size() > 0, "a zero-sized arena allocation");
        let mut bump = self.bump.lock();
        let at = bump.next as usize;
        let pad = at.next_multiple_of(layout.align()) - at;
        if pad + layout.size() <= bump.left {
            // SAFETY: the `pad + size` bytes from `next` lie inside the
            // current block, which is live (`left` is 0 before the first),
            // so `start` is not null.
            let (start, next) = unsafe {
                let start = bump.next.add(pad);
                (NonNull::new_unchecked(start), start.add(layout.size()))
            };
            bump.next = next;
            bump.left -= pad + layout.size();
            return start;
        }
        if layout.size() > BLOCK_BYTES || layout.align() > BLOCK_ALIGN {
            // A block of its own; the current block keeps filling.
            return bump.block(layout.pad_to_align());
        }
        let block = bump.block(
            Layout::from_size_align(BLOCK_BYTES, BLOCK_ALIGN).expect("a block's layout is valid"),
        );
        // SAFETY: the block holds `BLOCK_BYTES` ≥ `size` bytes.
        bump.next = unsafe { block.as_ptr().add(layout.size()) };
        bump.left = BLOCK_BYTES - layout.size();
        block
    }

    /// How many blocks the arena holds.
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> usize {
        self.bump.lock().blocks.len()
    }
}

impl Bump {
    /// A fresh block of `layout`, recorded for `Drop`.
    fn block(&mut self, layout: Layout) -> NonNull<u8> {
        // SAFETY: callers pass a layout of at least one byte.
        let block = unsafe { alloc::alloc(layout) };
        let Some(block) = NonNull::new(block) else {
            alloc::handle_alloc_error(layout)
        };
        self.blocks.push((block, layout));
        block
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        for &(block, layout) in &self.bump.get_mut().blocks {
            // SAFETY: each block came from `alloc::alloc` with this layout
            // and is freed once, here.
            unsafe { alloc::dealloc(block.as_ptr(), layout) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_aligned_disjoint_and_share_blocks() {
        let arena = Arena::new();
        assert_eq!(arena.blocks(), 0, "an empty arena holds no block");
        let (mut spans, mut bytes) = (Vec::new(), 0);
        for i in 0..4_000usize {
            let layout = Layout::from_size_align(8 + i % 57, [1, 2, 4, 8, 16][i % 5]).unwrap();
            let p = arena.alloc(layout).as_ptr() as usize;
            assert_eq!(p % layout.align(), 0);
            spans.push((p, p + layout.size()));
            bytes += layout.size();
        }
        spans.sort_unstable();
        assert!(
            spans.windows(2).all(|w| w[0].1 <= w[1].0),
            "overlapping spans"
        );
        // One block a 64 KiB of requests (give or take the padding), not
        // one a request.
        let full = bytes.div_ceil(BLOCK_BYTES);
        assert!(
            (full..=full + 1).contains(&arena.blocks()),
            "{bytes} B in {} blocks",
            arena.blocks()
        );
        let blocks = arena.blocks();
        // An oversize request gets its own block and the current one keeps
        // filling.
        let big = Layout::from_size_align(BLOCK_BYTES + 1, 8).unwrap();
        arena.alloc(big);
        arena.alloc(Layout::new::<u64>());
        assert_eq!(arena.blocks(), blocks + 1);
    }
}
