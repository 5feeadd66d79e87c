//! The kernels' working buffers: one stack of them per thread.
//!
//! A kernel that needs a buffer for the length of a call or a pool block —
//! a lowering's `cols`, `gemm`'s operand panel or transposed copy, the
//! depthwise stencil's packed planes, a weight-backward wave's products —
//! borrows it with [`with`] instead of allocating it, and the buffer stays
//! with its thread from call to call. Borrows nest: a forward block holds
//! its `cols` while its `gemm` packs a panel, and a thread waiting on a pool
//! region runs queued blocks that borrow too. Each nested [`with`] gets the
//! next buffer of the stack, so no borrow aliases another, and the buffers
//! go back last-in first-out — also when the closure panics.
//!
//! A buffer is lent with what its last borrower left in it (zeros past the
//! longest use so far), so every borrower writes what it reads:
//! `tests/kernel_properties.rs` runs the kernels on one thread over shapes
//! of other sizes in between and compares against a fresh thread's bytes.

use std::cell::RefCell;

thread_local! {
    /// This thread's buffers that are not lent; [`with`] takes the top one.
    static STACK: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on a `len`-long buffer of this thread's, lent for the call,
/// old contents included.
pub(crate) fn with<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    /// Puts the buffer back on the stack when dropped, so a panic in `f`
    /// returns it too.
    struct Lent(Vec<f32>);
    impl Drop for Lent {
        fn drop(&mut self) {
            let buf = std::mem::take(&mut self.0);
            // Once this thread's locals are gone, the buffer is just freed.
            _ = STACK.try_with(|stack| stack.borrow_mut().push(buf));
        }
    }
    let mut lent = Lent(STACK.with_borrow_mut(Vec::pop).unwrap_or_default());
    if lent.0.len() < len {
        lent.0.resize(len, 0.0);
    }
    f(&mut lent.0[..len])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Nested borrows get disjoint buffers, and each gets back what it
    /// left in its buffer when the same nesting runs again.
    #[test]
    fn nested_borrows_get_disjoint_buffers() {
        let nest = |fill: bool| {
            with(3, |outer| {
                with(5, |inner| {
                    let (o, i) = (outer.as_ptr_range(), inner.as_ptr_range());
                    assert!(o.end <= i.start || i.end <= o.start, "{o:?} overlaps {i:?}");
                    if fill {
                        outer.fill(1.0);
                        inner.fill(2.0);
                    }
                    with(4, |innermost| innermost.fill(3.0));
                    (outer.to_vec(), inner.to_vec())
                })
            })
        };
        nest(true);
        assert_eq!(nest(false), (vec![1.0; 3], vec![2.0; 5]));
    }

    /// Buffers on this thread's stack that are not lent.
    fn idle() -> usize {
        STACK.with_borrow(Vec::len)
    }

    /// A panic inside a borrow returns its buffer: the stack is as deep and
    /// as usable afterwards as before.
    #[test]
    fn a_panic_inside_a_borrow_leaves_the_stack_usable() {
        with(2, |outer| with(6, |_| outer.fill(7.0)));
        let before = idle();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with(2, |outer| {
                with(6, |_| panic!("inside a borrow"));
                outer.fill(9.0);
            })
        }));
        assert!(caught.is_err());
        assert_eq!(idle(), before, "both buffers are back");
        with(2, |outer| {
            assert_eq!(
                outer, [7.0; 2],
                "the outer borrow was not written after the panic"
            );
            with(6, |inner| assert_eq!(inner.len(), 6));
        });
    }
}
