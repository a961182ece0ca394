//! The return address stack.
//!
//! The paper excludes returns from the target cache "because they are
//! effectively handled with the return address stack" (citing Webb, and
//! Kaeli & Emma). This is a bounded circular stack: pushing past capacity
//! silently overwrites the oldest entry (as real hardware does), and popping
//! an empty stack returns `None`.

use sim_isa::Addr;
use std::fmt;

/// A bounded return address stack with wrap-around overwrite.
///
/// # Example
///
/// ```
/// use branch_predictors::ReturnAddressStack;
/// use sim_isa::Addr;
///
/// let mut ras = ReturnAddressStack::new(8);
/// ras.push(Addr::new(0x104)); // call at 0x100
/// ras.push(Addr::new(0x204)); // nested call at 0x200
/// assert_eq!(ras.pop(), Some(Addr::new(0x204)));
/// assert_eq!(ras.pop(), Some(Addr::new(0x104)));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct ReturnAddressStack {
    slots: Vec<Addr>,
    /// Index of the next free slot (mod capacity).
    top: usize,
    /// Number of live entries (saturates at capacity).
    depth: usize,
}

impl ReturnAddressStack {
    /// Creates an empty stack with room for `capacity` return addresses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "return stack capacity must be at least 1");
        ReturnAddressStack {
            slots: vec![Addr::NULL; capacity],
            top: 0,
            depth: 0,
        }
    }

    /// The stack's capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of live entries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }

    /// Pushes a return address (the fall-through of a call). If the stack is
    /// full, the oldest entry is silently overwritten.
    #[inline]
    pub fn push(&mut self, return_addr: Addr) {
        self.slots[self.top] = return_addr;
        self.top = (self.top + 1) % self.slots.len();
        self.depth = (self.depth + 1).min(self.slots.len());
    }

    /// Pops the most recent return address, or `None` if the stack is empty
    /// (in which case the fetch engine has no prediction for the return).
    #[inline]
    pub fn pop(&mut self) -> Option<Addr> {
        if self.depth == 0 {
            return None;
        }
        self.top = (self.top + self.slots.len() - 1) % self.slots.len();
        self.depth -= 1;
        Some(self.slots[self.top])
    }

    /// The address a pop *would* return, without popping.
    #[inline]
    pub fn peek(&self) -> Option<Addr> {
        if self.depth == 0 {
            None
        } else {
            let i = (self.top + self.slots.len() - 1) % self.slots.len();
            Some(self.slots[i])
        }
    }

    /// Empties the stack.
    pub fn clear(&mut self) {
        self.top = 0;
        self.depth = 0;
    }
}

impl fmt::Debug for ReturnAddressStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReturnAddressStack({}/{})", self.depth, self.slots.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut s = ReturnAddressStack::new(4);
        s.push(Addr::new(0x10));
        s.push(Addr::new(0x20));
        s.push(Addr::new(0x30));
        assert_eq!(s.pop(), Some(Addr::new(0x30)));
        assert_eq!(s.pop(), Some(Addr::new(0x20)));
        assert_eq!(s.pop(), Some(Addr::new(0x10)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn overflow_overwrites_oldest() {
        let mut s = ReturnAddressStack::new(2);
        s.push(Addr::new(0x10));
        s.push(Addr::new(0x20));
        s.push(Addr::new(0x30)); // overwrites 0x10
        assert_eq!(s.depth(), 2);
        assert_eq!(s.pop(), Some(Addr::new(0x30)));
        assert_eq!(s.pop(), Some(Addr::new(0x20)));
        assert_eq!(s.pop(), None, "the overwritten entry is gone");
    }

    #[test]
    fn peek_does_not_pop() {
        let mut s = ReturnAddressStack::new(4);
        assert_eq!(s.peek(), None);
        s.push(Addr::new(0x10));
        assert_eq!(s.peek(), Some(Addr::new(0x10)));
        assert_eq!(s.depth(), 1);
        assert_eq!(s.pop(), Some(Addr::new(0x10)));
    }

    #[test]
    fn clear_empties() {
        let mut s = ReturnAddressStack::new(4);
        s.push(Addr::new(0x10));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn capacity_one_behaves() {
        let mut s = ReturnAddressStack::new(1);
        s.push(Addr::new(0x10));
        s.push(Addr::new(0x20));
        assert_eq!(s.pop(), Some(Addr::new(0x20)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        ReturnAddressStack::new(0);
    }

    #[test]
    fn deep_call_chain_round_trip() {
        let mut s = ReturnAddressStack::new(64);
        for i in 0..64u64 {
            s.push(Addr::from_word_index(i));
        }
        for i in (0..64u64).rev() {
            assert_eq!(s.pop(), Some(Addr::from_word_index(i)));
        }
    }
}
